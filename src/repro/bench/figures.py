"""The paper's evaluation, each part defined once: Figures 8, 9 and 10
(with the Pingali & Rogers static baseline), §5.3.4 and the §5.2 matrix
multiply.  Each is one function of a :class:`Scale` and a Sweeper
returning the report and its data (``figure10(REDUCED, Sweeper()).text``),
with one claims check beside it.  A relative claim runs at every scale;
a threshold tied to one point runs at the scale that has the point.
``benchmarks/`` runs them at ``FULL``, tier-1 and ``pods reproduce`` at
``REDUCED``; evaluations sharing a Sweeper simulate a shared point once."""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field

from repro.apps.matmul import compile_matmul
from repro.apps.simple_app import compile_simple
from repro.bench.harness import Sweeper
from repro.bench.report import render_series_chart, render_table
from repro.sim.stats import UNITS


@dataclass(frozen=True)
class Scale:
    """SIMPLE meshes (Figures 9, 10), PE grid and time steps; §5.3.4's
    mesh; the matrix order and its PEs; meshes with a grid of their own."""

    sizes: tuple
    pes: tuple
    steps: int
    conduction: int
    matmul: int
    matmul_pes: tuple
    grids: dict = field(default_factory=dict)


# The paper's grid; PODS_BENCH_FULL=1 runs 64x64 at 2 and 4 PEs too.
FULL = Scale(sizes=(16, 32, 64), pes=(1, 2, 4, 8, 16, 32), steps=2,
             conduction=32, matmul=24, matmul_pes=(1, 2, 4, 8, 16),
             grids={} if os.environ.get("PODS_BENCH_FULL")
             else {64: (1, 8, 16, 32)})
REDUCED = Scale(sizes=(8, 16), pes=(1, 2, 4, 8), steps=1, conduction=16,
                matmul=8, matmul_pes=(1, 2, 4))


@dataclass
class Figure:
    """A regenerated figure: its report, its data and its scale."""

    text: str
    data: dict
    scale: Scale


@functools.cache
def _program(key: str):
    if key == "matmul":
        return compile_matmul(checksum=True)
    return compile_simple(conduction_only=key == "conduction")


def _sweep(sweeper: Sweeper, key: str, args: tuple, grid) -> dict:
    return {pes: sweeper.run(_program(key), args, pes, key=key)
            for pes in grid}


def _simple(scale: Scale, sweeper: Sweeper) -> dict:
    """Figures 9 and 10's points: {mesh: {pes: Point}}."""
    return {n: _sweep(sweeper, "simple", (n, scale.steps),
                      scale.grids.get(n, scale.pes)) for n in scale.sizes}


def _speedup(times: dict) -> dict:
    return {pes: times[min(times)] / t for pes, t in times.items()}


def _by_pes(scale: Scale, series: dict, fmt: str, y_label: str) -> str:
    """A row per PE count, a column per series ("-": no point); a chart."""
    rows = [[pes] + [format(s[pes], fmt) if pes in s else "-"
                     for s in series.values()] for pes in scale.pes]
    chart = render_series_chart(
        list(scale.pes), {k: [s.get(p) for p in scale.pes]
                          for k, s in series.items()}, y_label=y_label)
    return render_table(["PEs", *series], rows) + "\n\n" + chart


def figure8(scale: Scale, sweeper: Sweeper) -> Figure:
    """Average utilization of each functional unit, SIMPLE 16x16, from
    the per-unit busy-interval timelines."""
    util = {pes: p.utilization for pes, p in
            _sweep(sweeper, "simple", (16, scale.steps), scale.pes).items()}
    rows = [[pes, *(format(u[unit], ".1%") for unit in UNITS)]
            for pes, u in util.items()]
    steps = f"{scale.steps} time step" + "s" * (scale.steps != 1)
    return Figure("Figure 8 - average utilization of each "
                  f"functional unit\n(SIMPLE 16x16, {steps}; derived from "
                  "busy-interval timelines)\n\n"
                  + render_table(["PEs", *UNITS], rows), util, scale)


def check_figure8(fig: Figure) -> None:
    """The EU is the busiest unit at every PE count, so the supporting
    units can all be software on the same processor."""
    for pes, u in fig.data.items():
        assert max(u, key=u.get) == "EU", f"{pes} PEs: {u}"
    if fig.scale is FULL:  # the support units stay lightly loaded
        at32 = fig.data[32]
        assert at32["MM"] < 0.15 and at32["AM"] < 0.5, at32


def figure9(scale: Scale, sweeper: Sweeper) -> Figure:
    """EU utilization by mesh, from the recorded EU busy intervals."""
    eu = {n: {pes: p.utilization["EU"] for pes, p in row.items()}
          for n, row in _simple(scale, sweeper).items()}
    return Figure("Figure 9 - Execution Unit utilization for SIMPLE\n"
                  "(derived from busy-interval timelines)\n\n"
                  + _by_pes(scale, {f"{n}x{n}": row for n, row in eu.items()},
                            ".1%", "EU utilization (fraction) vs PEs"),
                  eu, scale)


def check_figure9(fig: Figure) -> None:
    """EU utilization falls with PEs; larger problems keep EUs busier."""
    eu = fig.data
    for n, row in eu.items():
        assert row[min(row)] > row[max(row)], f"{n}x{n}: {row}"
    small, large, wide = min(eu), max(eu), fig.scale.pes[-1]
    assert eu[large][wide] > eu[small][wide], (
        f"at {wide} PEs {large}x{large} is not busier: {eu}")
    if fig.scale is FULL:  # high on one PE: the EU dominates (Figure 8)
        assert eu[64][1] > 0.5, eu[64]


def figure10(scale: Scale, sweeper: Sweeper) -> Figure:
    """Speed-up by mesh, beside P&R's static compilation of the largest."""
    simple, large = _program("simple"), max(scale.sizes)
    points = _simple(scale, sweeper)
    speedup = {n: _speedup({pes: p.time_us for pes, p in row.items()})
               for n, row in points.items()}
    pr = _speedup({pes: simple.run((large, scale.steps), backend="static",
                                   parallelism=pes).time_us
                   for pes in points[large]})
    series = {f"{n}x{n}": s for n, s in speedup.items()}
    series[f"{large}x{large} P&R"] = pr
    answers = {n: {p.value for p in row.values()}
               | {simple.run((n, scale.steps), backend="seq").value}
               for n, row in points.items()}
    return Figure("Figure 10 - speed-up of SIMPLE\n(paper tops: "
                  "16x16 -> 8.1, 32x32 -> 12.4, 64x64 -> 18.9 @32 PEs)\n\n"
                  + _by_pes(scale, series, ".2f", "speed-up vs PEs"),
                  {"speedup": speedup, "P&R": pr, "answers": answers}, scale)


def check_figure10(fig: Figure) -> None:
    """Larger problems scale further, PODS beats the static baseline on
    the largest mesh, and every width returns the sequential answer."""
    s, pr = fig.data["speedup"], fig.data["P&R"]
    tops = [max(s[n].values()) for n in sorted(s)]
    assert 1.0 < tops[0] and all(a < b for a, b in zip(tops, tops[1:])), (
        f"speed-up tops do not order by size: {tops}")
    large, wide = max(s), fig.scale.pes[-1]
    assert s[large][wide] > pr[wide], f"PODS {s[large]} vs P&R {pr}"
    assert all(len(a) == 1 for a in fig.data["answers"].values()), (
        f"answers by mesh, the sequential one included: {fig.data}")
    if fig.scale is FULL:
        top16, top64 = max(s[16].values()), max(s[64].values())
        assert top16 > 2.5 and top64 > 8.0, (top16, top64)
        # 64x64 still profits at 32 PEs; 16x16 saturated well before.
        assert max(s[16], key=s[16].get) < 32 and s[64][32] == top64, s
    elif fig.scale is REDUCED:
        assert s[16][4] > 1.5, s[16]


def sec534(scale: Scale, sweeper: Sweeper) -> Figure:
    """The conduction phase sequentially and under PODS on one PE."""
    n, args = scale.conduction, (scale.conduction, scale.steps)
    seq = _program("conduction").run(args, backend="seq").time_us
    pods = _sweep(sweeper, "conduction", args, (1,))[1].time_us
    table = render_table(["version", "modeled time (s)"], [
        ["sequential (C proxy)", seq / 1e6], ["PODS, 1 PE", pods / 1e6],
        ["ratio", pods / seq], ["paper: sequential C", 0.9],
        ["paper: PODS 1 PE", 1.72], ["paper ratio", 1.72 / 0.9]])
    text = (f"Section 5.3.4 - efficiency comparison (conduction-only, "
            f"{n}x{n})\n\n" + table + "\n\n"
            "The reproduction keeps the direction and order of the\n"
            "comparison: PODS on one PE pays a bounded overhead over the\n"
            "sequential version, so the scalability base time is valid.\n"
            "Our per-SP sequential threads are longer than the original\n"
            "system's, so our overhead factor is smaller than the\n"
            "paper's ~1.9x.")
    return Figure(text, {"ratio": pods / seq}, scale)


def check_sec534(fig: Figure) -> None:
    """Slower than sequential, but by a bounded, "not grossly
    inefficient" factor (the paper's wording)."""
    assert 1.0 < fig.data["ratio"] < 3.0, fig.data


def matmul(scale: Scale, sweeper: Sweeper) -> Figure:
    """Matrix-multiply speed-up, and its checksum at every width."""
    n = scale.matmul
    points = _sweep(sweeper, "matmul", (n,), scale.matmul_pes)
    speedup = _speedup({pes: p.time_us for pes, p in points.items()})
    rows = [[pes, p.time_us / 1e3, speedup[pes]] for pes, p in points.items()]
    seq = _program("matmul").run((n,), backend="seq").value
    answers = {round(v, 9) for v in [seq, *(p.value for p in points.values())]}
    return Figure(f"Matrix multiply {n}x{n} (generic example of "
                  "Section 5.2)\n\n"
                  + render_table(["PEs", "time (ms)", "speed-up"], rows),
                  {"speedup": speedup, "answers": answers}, scale)


def check_matmul(fig: Figure) -> None:
    """The checksum is the sequential one at every PE count."""
    assert len(fig.data["answers"]) == 1, fig.data["answers"]
    if fig.scale is FULL:
        assert fig.data["speedup"][8] > 3.0, fig.data["speedup"]


FIGURES = {"fig8": figure8, "fig9": figure9, "fig10": figure10}


def reproduce(name: str) -> Figure:
    """Regenerate 'fig8', 'fig9' or 'fig10' at reduced scale."""
    if name not in FIGURES:
        raise ValueError(
            f"unknown figure {name!r}; choose from {sorted(FIGURES)}")
    return FIGURES[name](REDUCED, Sweeper())
