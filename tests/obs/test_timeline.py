"""Unit tests for the span log's busy lines, plus the key integration
property: utilization *derived* from the recorded spans matches the
simulator's busy-time accumulators."""

import pytest

from repro.common.config import ObsConfig
from repro.obs.spanlog import Line, SpanLog, busy, utilization
from repro.sim.stats import UNITS


def spans(line):
    return list(zip(line.starts, line.ends))


def timeline_log(num_pes):
    return SpanLog(num_pes, ObsConfig(timelines=True))


class TestUnitTimeline:
    def test_accumulates_and_orders(self):
        line = Line()
        line.add(0.0, 1.0)
        line.add(2.0, 4.0)
        assert line.busy_us == pytest.approx(3.0)
        assert spans(line) == [(0, 1), (2, 4)]

    def test_adjacent_spans_coalesce(self):
        line = Line()
        line.add(0.0, 1.0)
        line.add(1.0, 2.0)  # back-to-back service: same busy interval
        assert len(line) == 1
        assert line.ends[0] == 2.0
        assert line.busy_us == pytest.approx(2.0)

    def test_empty_spans_ignored(self):
        line = Line()
        line.add(5.0, 5.0)
        line.add(5.0, 4.0)
        assert len(line) == 0 and line.busy_us == 0.0

    def test_busy_between_clips_to_window(self):
        # Busy time inside a window is the window less its gaps.
        line = Line()
        line.add(0.0, 10.0)
        line.add(20.0, 30.0)
        assert line.gaps(5.0, 25.0) == [(10.0, 20.0)]
        assert line.gaps(11.0, 19.0) == [(11.0, 19.0)]


class TestEdgeCases:
    """Malformed input: the line must stay consistent (busy time exact,
    spans ordered) no matter what."""

    def test_zero_length_span_between_real_spans(self):
        line = Line()
        line.add(0.0, 1.0)
        line.add(1.5, 1.5)     # zero-length: no span, no busy time
        line.add(2.0, 3.0)
        assert spans(line) == [(0, 1), (2, 3)]
        assert line.busy_us == pytest.approx(2.0)

    def test_out_of_order_end_clamped_to_frontier(self):
        # A span starting before the previous end (out-of-order end
        # event) is clamped: the overlap is never double-counted.
        line = Line()
        line.add(0.0, 5.0)
        line.add(3.0, 8.0)     # overlaps [3, 5]
        assert len(line) == 1
        assert line.ends[0] == 8.0
        assert line.busy_us == pytest.approx(8.0)

    def test_out_of_order_end_fully_contained(self):
        line = Line()
        line.add(0.0, 5.0)
        line.add(1.0, 4.0)     # entirely inside the frontier: no-op
        assert len(line) == 1
        assert line.busy_us == pytest.approx(5.0)

    def test_gaps_complement_spans(self):
        line = Line()
        line.add(1.0, 2.0)
        line.add(4.0, 6.0)
        gaps = line.gaps(0.0, 8.0)
        assert gaps == [(0.0, 1.0), (2.0, 4.0), (6.0, 8.0)]
        total = line.busy_us + sum(e - s for s, e in gaps)
        assert total == pytest.approx(8.0)

    def test_gaps_with_span_crossing_window_end(self):
        line = Line()
        line.add(3.0, 12.0)    # runs past the window
        assert line.gaps(0.0, 10.0) == [(0.0, 3.0)]

    def test_gaps_of_empty_timeline_is_whole_window(self):
        line = Line()
        assert line.gaps(2.0, 5.0) == [(2.0, 5.0)]


class TestTimelineStore:
    def test_busy_and_utilization(self):
        log = timeline_log(num_pes=2)
        log.busy[0]["EU"](0.0, 4.0)
        log.busy[1]["EU"](0.0, 2.0)
        log.busy[0]["MU"](1.0, 2.0)
        assert busy(log, "EU") == pytest.approx(6.0)
        assert busy(log, "EU", pe=1) == pytest.approx(2.0)
        # averaged over PEs, per-PE, and a unit with no spans at all
        assert utilization(log, "EU", 10.0) == pytest.approx(0.3)
        assert utilization(log, "EU", 10.0, pe=0) == pytest.approx(0.4)
        assert utilization(log, "AM", 10.0) == 0.0

    def test_items_deterministic(self):
        log = timeline_log(num_pes=2)
        log.busy[1]["MU"](0.0, 1.0)
        log.busy[0]["EU"](0.0, 1.0)
        log.busy[0]["AM"](0.0, 1.0)
        assert [(pe, u) for pe, u, _ in log.busy_lines()] == [
            (0, "AM"), (0, "EU"), (1, "MU")]


class TestDerivationMatchesAccumulators:
    def test_derived_utilization_matches_stats(self, observed_run):
        """The Figure 8/9 acceptance property: timeline-derived numbers
        agree with the busy accumulators within 0.1% relative."""
        _, result = observed_run
        stats = result.stats
        assert stats.log.lines is not None
        for unit in UNITS:
            for pe in (None, 0, 1):
                derived = stats.timeline_utilization(unit, pe=pe)
                ref = stats.utilization(unit, pe=pe)
                assert derived == pytest.approx(ref, rel=1e-3, abs=1e-12)

    def test_spans_nonoverlapping_per_unit(self, observed_run):
        _, result = observed_run
        for _pe, _unit, line in result.stats.log.busy_lines():
            for end, start in zip(line.ends, line.starts[1:]):
                assert end <= start + 1e-9

    def test_fallback_without_timelines(self):
        from repro.sim.stats import PEStats, RunStats

        pe = PEStats()
        pe.busy["EU"] = 5.0
        stats = RunStats(num_pes=1, finish_time_us=10.0, pe_stats=[pe])
        assert stats.timeline_utilization("EU") == pytest.approx(0.5)
