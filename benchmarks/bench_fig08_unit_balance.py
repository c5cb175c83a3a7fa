"""Figure 8: average utilization of each functional unit, SIMPLE 16x16,
1..32 PEs.  Headline claim: the Execution Unit dominates, so "there is no
need for any specialized hardware units to support the system"."""

from __future__ import annotations

from conftest import PE_GRID, simple_args

from repro.bench.harness import save_report
from repro.bench.report import render_table
from repro.sim.stats import UNITS


def test_fig8_unit_balance(benchmark, obs_sweeper, simple_program):
    args = simple_args(16)
    rows = []
    points = {}
    for pes in PE_GRID:
        point = obs_sweeper.run(simple_program, args, pes, key="simple")
        points[pes] = point
        rows.append([pes] + [f"{point.utilization[u] * 100:.1f}%"
                             for u in UNITS])

    table = render_table(["PEs"] + list(UNITS), rows)
    report = ("Figure 8 - average utilization of each functional unit\n"
              "(SIMPLE 16x16, 2 time steps; derived from busy-interval "
              "timelines)\n\n" + table)
    save_report("fig08_unit_balance.txt", report)
    print("\n" + report)

    # The timeline-derived numbers must agree with the simulator's
    # busy-time accumulators to within 0.1% (relative).
    for pes, point in points.items():
        aggregate = point.extras["utilization_aggregate"]
        for u in UNITS:
            derived = point.utilization[u]
            ref = aggregate[u]
            assert abs(derived - ref) <= max(abs(ref), 1e-12) * 1e-3, (
                f"{u} at {pes} PEs: derived {derived} vs aggregate {ref}")

    # The paper's conclusion, checked at every PE count: the EU is the
    # most heavily utilized unit, so the supporting units can all be
    # software on the same iPSC processor.
    for pes, point in points.items():
        busiest = max(point.utilization, key=point.utilization.get)
        assert busiest == "EU", (
            f"{busiest} beat the EU at {pes} PEs: {point.utilization}")

    # The support units stay lightly loaded at scale.
    at32 = points[32].utilization
    assert at32["MM"] < 0.15
    assert at32["AM"] < 0.5

    benchmark.pedantic(
        lambda: obs_sweeper.run(simple_program, args, 4, key="simple"),
        rounds=1, iterations=1,
    )
