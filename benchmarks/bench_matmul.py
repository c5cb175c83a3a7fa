"""The paper's generic example (Section 5.2): matrix multiply speedup
plus backend agreement."""

from __future__ import annotations

from conftest import save_report

from repro.bench.figures import FULL, check_matmul, matmul


def test_matmul_speedup(benchmark, sweeper):
    fig = benchmark.pedantic(matmul, args=(FULL, sweeper),
                             rounds=1, iterations=1)
    save_report("matmul_speedup.txt", fig.text)
    print("\n" + fig.text)
    check_matmul(fig)
