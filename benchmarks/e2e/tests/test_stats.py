import statistics

import pytest

from e2ebench import stats
from e2ebench.tracer import Recorder


def test_median_and_quartiles_match_the_drivers_definition():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0, 3.5, 8.0, 7.0]
    q = statistics.quantiles(values, n=4)
    assert stats.median(values) == statistics.median(values)
    assert stats.quartiles(values) == (q[0], q[2])
    assert stats.spread(values) == pytest.approx(
        (q[2] - q[0]) / statistics.median(values))


def test_single_sample_has_zero_spread():
    assert stats.quartiles([2.5]) == (2.5, 2.5)
    assert stats.spread([2.5]) == 0.0


@pytest.mark.parametrize("n, expected", [
    (2, None), (13, None), (39, None),   # fewer than 10 beyond even p75
    (40, 75.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10_000, 99.9),
])
def test_percentile_needs_ten_samples_beyond_it(n, expected):
    assert stats.eligible_percentile(n) == expected


def test_summary_says_so_when_no_percentile_qualifies():
    line = stats.describe([1.0, 2.0, 3.0], "s")
    assert "no percentile" in line and "n=3" in line
    assert "p75" in stats.describe(list(range(1, 41)), "s")


def test_percentile_is_a_measured_value():
    values = list(range(1, 101))
    assert stats.percentile(values, 90.0) == 90
    assert stats.percentile(values, 99.0) == 99


def test_self_time_subtracts_children_and_twins():
    rec = Recorder()
    rec.rep = "r0"
    with rec.span("twin") as twin:
        pass
    with rec.span("outer", twin=twin) as outer:
        with rec.span("inner") as inner:
            pass
    # Durations are whatever the clock said; set them to known values.
    twin.update(start=0.0, end=1.0)
    outer.update(start=1.0, end=11.0)
    inner.update(start=2.0, end=5.0)
    assert rec.per_rep("outer") == [10.0]
    assert rec.per_rep("outer", self_time=True) == [10.0 - 3.0 - 1.0]
    assert rec.per_rep("inner", self_time=True) == [3.0]
    assert inner["parent"] == outer["id"] and outer["parent"] is None


def test_per_rep_sums_within_a_rep_and_separates_reps():
    rec = Recorder()
    for rep, durations in (("a", (1.0, 2.0)), ("b", (4.0,))):
        rec.rep = rep
        for d in durations:
            with rec.span("x") as span:
                pass
            span.update(start=0.0, end=d)
    assert rec.per_rep("x") == [3.0, 4.0]
