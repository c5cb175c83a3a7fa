"""Figure 10: speed-up of SIMPLE vs number of PEs, for 16x16 / 32x32 /
64x64, with the Pingali & Rogers static-compilation baseline at 64x64.

Paper shape: curves order by problem size (16x16 tops out first, 64x64
keeps climbing to 32 PEs), and "PODS outperformed the pure compilation
approach ... when the problem size was sufficiently large"."""

from __future__ import annotations

from conftest import PE_GRID, pe_grid, simple_args

from repro.bench.harness import save_report
from repro.bench.report import render_series_chart, render_table

SIZES = [16, 32, 64]


def test_fig10_speedup(benchmark, sweeper, simple_program):
    speedup: dict[int, dict[int, float]] = {}
    for n in SIZES:
        base = sweeper.run(simple_program, simple_args(n), 1, key="simple")
        speedup[n] = {1: 1.0}
        for pes in pe_grid(n):
            if pes == 1:
                continue
            point = sweeper.run(simple_program, simple_args(n), pes,
                                key="simple")
            speedup[n][pes] = base.time_us / point.time_us

    # P&R static-compilation baseline at 64x64 (cheap: interpreter-based).
    pr64 = {}
    base_pr = simple_program.run(simple_args(64), backend="static",
                                 parallelism=1)
    pr64[1] = 1.0
    for pes in pe_grid(64):
        if pes == 1:
            continue
        st = simple_program.run(simple_args(64), backend="static",
                                parallelism=pes)
        pr64[pes] = base_pr.time_us / st.time_us

    rows = []
    for pes in PE_GRID:
        rows.append([pes]
                    + [f"{speedup[n][pes]:.2f}" if pes in speedup[n] else "-"
                       for n in SIZES]
                    + [f"{pr64[pes]:.2f}" if pes in pr64 else "-"])
    table = render_table(
        ["PEs"] + [f"{n}x{n}" for n in SIZES] + ["64x64 P&R"], rows)

    series = {f"{n}x{n}": [speedup[n].get(p) for p in PE_GRID] for n in SIZES}
    series["64x64 P&R"] = [pr64.get(p) for p in PE_GRID]
    chart = render_series_chart(PE_GRID, series, y_label="speed-up vs PEs")
    report = ("Figure 10 - speed-up of SIMPLE\n"
              "(paper tops: 16x16 -> 8.1, 32x32 -> 12.4, 64x64 -> 18.9 "
              "@32 PEs)\n\n" + table + "\n\n" + chart)
    save_report("fig10_speedup.txt", report)
    print("\n" + report)

    top16 = max(speedup[16].values())
    top32 = max(speedup[32].values())
    top64 = max(speedup[64].values())
    # Shape: tops order by problem size, with real separation.
    assert top16 < top32 < top64
    assert top16 > 2.5, top16
    assert top64 > 8.0, top64
    # 64x64 is still profiting at 32 PEs while 16x16 has saturated well
    # before (its peak is not at the largest PE count).
    assert max(speedup[16], key=speedup[16].get) < 32
    assert speedup[64][32] == top64
    # PODS beats the static baseline at 64x64 on many PEs.
    assert speedup[64][32] > pr64[32]

    benchmark.pedantic(
        lambda: sweeper.run(simple_program, simple_args(16), 32, key="simple"),
        rounds=1, iterations=1,
    )
