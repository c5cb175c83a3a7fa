"""The paper's evaluation at reduced scale.

Every claim that ``benchmarks/`` checks at full scale is defined once,
in :mod:`repro.bench.figures`; the relative ones (and the thresholds
tied to a reduced-scale point) run here, on the points ``pods
reproduce`` shows.
"""

import pytest

from repro.bench import figures
from repro.bench.figures import REDUCED
from repro.bench.harness import Sweeper


@pytest.fixture(scope="module")
def sweeper():
    return Sweeper()


@pytest.fixture(scope="module")
def fig10(sweeper):
    return figures.figure10(REDUCED, sweeper)


class TestHeadlines:
    def test_figure8_eu_dominates(self, sweeper):
        figures.check_figure8(figures.figure8(REDUCED, sweeper))

    def test_figure9_utilization_trends(self, sweeper):
        figures.check_figure9(figures.figure9(REDUCED, sweeper))

    def test_figure10_ordering(self, fig10):
        # With PODS above P&R and every width's answer the sequential one.
        figures.check_figure10(fig10)

    def test_pods_beats_static_baseline(self, fig10):
        pods, pr = fig10.data["speedup"][16], fig10.data["P&R"]
        assert pods[4] > pr[4], (pods, pr)

    def test_all_backends_one_answer(self, fig10):
        # Each mesh's set holds every width's answer and the sequential one.
        for n, answers in fig10.data["answers"].items():
            assert len(answers) == 1, (n, answers)

    def test_sec534_direction(self, sweeper):
        figures.check_sec534(figures.sec534(REDUCED, sweeper))

    def test_matmul_checksum(self, sweeper):
        figures.check_matmul(figures.matmul(REDUCED, sweeper))

    def test_a_claim_that_fails_is_reported(self, sweeper):
        fig = figures.figure9(REDUCED, sweeper)
        fig.data[8], fig.data[16] = fig.data[16], fig.data[8]
        with pytest.raises(AssertionError, match="is not busier"):
            figures.check_figure9(fig)
