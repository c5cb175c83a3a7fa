"""Figure 9: Execution Unit utilization for SIMPLE at 16x16, 32x32 and
64x64 over 1..32 PEs.  Paper shape: ~70% on one PE falling to ~50% at 32
PEs for 64x64; smaller problems sit lower, especially at high PE counts —
yet SIMPLE "continues to speed-up even when the Execution Units are 50%
idle"."""

from __future__ import annotations

from conftest import PE_GRID, pe_grid, simple_args

from repro.bench.harness import save_report
from repro.bench.report import render_series_chart, render_table

SIZES = [16, 32, 64]


def test_fig9_eu_utilization(benchmark, obs_sweeper, simple_program):
    util: dict[int, dict[int, float]] = {}
    for n in SIZES:
        util[n] = {}
        for pes in pe_grid(n):
            point = obs_sweeper.run(simple_program, simple_args(n), pes,
                                    key="simple")
            util[n][pes] = point.utilization["EU"]
            # EU utilization is derived from the recorded busy-interval
            # timeline; it must match the accumulator within 0.1%.
            ref = point.extras["utilization_aggregate"]["EU"]
            assert abs(util[n][pes] - ref) <= max(abs(ref), 1e-12) * 1e-3, (
                f"EU at {n}x{n}/{pes} PEs: {util[n][pes]} vs {ref}")

    rows = []
    for pes in PE_GRID:
        rows.append([pes] + [
            f"{util[n][pes] * 100:.1f}%" if pes in util[n] else "-"
            for n in SIZES
        ])
    table = render_table(["PEs"] + [f"{n}x{n}" for n in SIZES], rows)
    chart = render_series_chart(
        PE_GRID,
        {f"{n}x{n}": [util[n].get(p) for p in PE_GRID] for n in SIZES},
        y_label="EU utilization (fraction) vs PEs",
    )
    report = ("Figure 9 - Execution Unit utilization for SIMPLE\n"
              "(derived from busy-interval timelines)\n\n"
              + table + "\n\n" + chart)
    save_report("fig09_eu_utilization.txt", report)
    print("\n" + report)

    # Shape assertions from the paper:
    # (1) utilization falls as PEs grow, for every size;
    for n in SIZES:
        grid = [p for p in pe_grid(n)]
        assert util[n][grid[0]] > util[n][grid[-1]]
    # (2) on many PEs, larger problems keep the EUs busier;
    assert util[64][32] > util[16][32]
    # (3) single-PE utilization is high (the EU dominates, Fig. 8).
    assert util[64][1] > 0.5

    benchmark.pedantic(
        lambda: obs_sweeper.run(simple_program, simple_args(16), 8,
                                key="simple"),
        rounds=1, iterations=1,
    )
