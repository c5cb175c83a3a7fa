"""Fast smoke test of the headline reproduction claims.

The full regeneration lives in benchmarks/; this reduced-scale version
keeps the reproduction story guarded by the plain test suite.
"""

import pytest

from repro.apps.simple_app import compile_simple


@pytest.fixture(scope="module")
def simple():
    return compile_simple()


@pytest.fixture(scope="module")
def points(simple):
    out = {}
    for n, pes in [(8, 1), (8, 4), (16, 1), (16, 4)]:
        out[(n, pes)] = simple.run((n, 1), backend="sim", parallelism=pes).raw
    return out


class TestHeadlines:
    def test_figure8_eu_dominates(self, points):
        for point in points.values():
            util = point.stats.utilizations()
            assert util["EU"] == max(util.values())

    def test_figure9_utilization_trends(self, points):
        # Falls with PEs; larger problem busier on many PEs.
        assert (points[(16, 1)].stats.utilization("EU")
                > points[(16, 4)].stats.utilization("EU"))
        assert (points[(16, 4)].stats.utilization("EU")
                > points[(8, 4)].stats.utilization("EU"))

    def test_figure10_ordering(self, points):
        s8 = points[(8, 1)].finish_time_us / points[(8, 4)].finish_time_us
        s16 = points[(16, 1)].finish_time_us / points[(16, 4)].finish_time_us
        assert s16 > s8 > 1.0  # larger problems scale further

    def test_pods_beats_static_baseline(self, simple, points):
        static = simple.run((16, 1), backend="static", parallelism=4)
        static1 = simple.run((16, 1), backend="static", parallelism=1)
        pods_speedup = (points[(16, 1)].finish_time_us
                        / points[(16, 4)].finish_time_us)
        pr_speedup = static1.time_us / static.time_us
        assert pods_speedup > pr_speedup

    def test_sec534_direction(self, simple, points):
        seq = simple.run((16, 1), backend="seq")
        assert 1.0 < points[(16, 1)].finish_time_us / seq.time_us < 3.0

    def test_all_backends_one_answer(self, simple, points):
        seq = simple.run((8, 1), backend="seq").value
        assert points[(8, 1)].value == pytest.approx(seq, rel=1e-12)
        assert points[(8, 4)].value == pytest.approx(seq, rel=1e-12)
