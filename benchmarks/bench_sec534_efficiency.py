"""Section 5.3.4: efficiency of PODS on one PE vs the best sequential
version.  Paper numbers: a 32x32 conduction takes 0.9 s compiled
sequentially and 1.72 s under PODS on a single PE — "approximately twice
the time", i.e. the parallel machinery does not make the 1-PE base of the
speedup curves meaningless."""

from __future__ import annotations

from conftest import save_report

from repro.bench.figures import FULL, check_sec534, sec534


def test_sec534_sequential_efficiency(benchmark, sweeper):
    fig = benchmark.pedantic(sec534, args=(FULL, sweeper),
                             rounds=1, iterations=1)
    save_report("sec534_efficiency.txt", fig.text)
    print("\n" + fig.text)
    check_sec534(fig)
