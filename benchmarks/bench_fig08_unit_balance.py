"""Figure 8: average utilization of each functional unit, SIMPLE 16x16,
1..32 PEs.  Headline claim: the Execution Unit dominates, so "there is no
need for any specialized hardware units to support the system"."""

from __future__ import annotations

from conftest import save_report

from repro.bench.figures import FULL, check_figure8, figure8


def test_fig8_unit_balance(benchmark, sweeper):
    fig = benchmark.pedantic(figure8, args=(FULL, sweeper),
                             rounds=1, iterations=1)
    save_report("fig08_unit_balance.txt", fig.text)
    print("\n" + fig.text)
    check_figure8(fig)
