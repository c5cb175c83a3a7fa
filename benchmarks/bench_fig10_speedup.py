"""Figure 10: speed-up of SIMPLE vs number of PEs, for 16x16 / 32x32 /
64x64, with the Pingali & Rogers static-compilation baseline at 64x64.

Paper shape: curves order by problem size (16x16 tops out first, 64x64
keeps climbing to 32 PEs), and "PODS outperformed the pure compilation
approach ... when the problem size was sufficiently large"."""

from __future__ import annotations

from conftest import save_report

from repro.bench.figures import FULL, check_figure10, figure10


def test_fig10_speedup(benchmark, sweeper):
    fig = benchmark.pedantic(figure10, args=(FULL, sweeper),
                             rounds=1, iterations=1)
    save_report("fig10_speedup.txt", fig.text)
    print("\n" + fig.text)
    check_figure10(fig)
