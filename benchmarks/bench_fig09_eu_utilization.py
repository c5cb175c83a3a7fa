"""Figure 9: Execution Unit utilization for SIMPLE at 16x16, 32x32 and
64x64 over 1..32 PEs.  Paper shape: ~70% on one PE falling to ~50% at 32
PEs for 64x64; smaller problems sit lower, especially at high PE counts —
yet SIMPLE "continues to speed-up even when the Execution Units are 50%
idle"."""

from __future__ import annotations

from conftest import save_report

from repro.bench.figures import FULL, check_figure9, figure9


def test_fig9_eu_utilization(benchmark, sweeper):
    fig = benchmark.pedantic(figure9, args=(FULL, sweeper),
                             rounds=1, iterations=1)
    save_report("fig09_eu_utilization.txt", fig.text)
    print("\n" + fig.text)
    check_figure9(fig)
