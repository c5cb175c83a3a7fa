"""Unit tests for busy-interval timelines, plus the key integration
property: utilization *derived* from the recorded spans matches the
simulator's busy-time accumulators."""

import pytest

from repro.obs.timeline import TimelineStore, UnitTimeline
from repro.sim.stats import UNITS


class TestUnitTimeline:
    def test_accumulates_and_orders(self):
        line = UnitTimeline()
        line.add(0.0, 1.0)
        line.add(2.0, 4.0)
        assert line.busy_us == pytest.approx(3.0)
        assert [(s.start, s.end) for s in line.spans()] == [(0, 1), (2, 4)]

    def test_adjacent_spans_coalesce(self):
        line = UnitTimeline()
        line.add(0.0, 1.0)
        line.add(1.0, 2.0)  # back-to-back service: same busy interval
        assert len(line) == 1
        assert line.spans()[0].end == 2.0
        assert line.busy_us == pytest.approx(2.0)

    def test_empty_spans_ignored(self):
        line = UnitTimeline()
        line.add(5.0, 5.0)
        line.add(5.0, 4.0)
        assert len(line) == 0 and line.busy_us == 0.0

    def test_busy_between_clips_to_window(self):
        line = UnitTimeline()
        line.add(0.0, 10.0)
        line.add(20.0, 30.0)
        assert line.busy_between(5.0, 25.0) == pytest.approx(10.0)
        assert line.busy_between(11.0, 19.0) == 0.0


class TestEdgeCases:
    """Malformed and overflowing input: the store must stay consistent
    (busy time exact, spans ordered, loss visible) no matter what."""

    def test_zero_length_span_between_real_spans(self):
        line = UnitTimeline()
        line.add(0.0, 1.0)
        line.add(1.5, 1.5)     # zero-length: no span, no busy time
        line.add(2.0, 3.0)
        assert [(s.start, s.end) for s in line.spans()] == [(0, 1), (2, 3)]
        assert line.busy_us == pytest.approx(2.0)

    def test_out_of_order_end_clamped_to_frontier(self):
        # A span starting before the previous end (out-of-order end
        # event) is clamped: the overlap is never double-counted.
        line = UnitTimeline()
        line.add(0.0, 5.0)
        line.add(3.0, 8.0)     # overlaps [3, 5]
        assert len(line) == 1
        assert line.spans()[0].end == 8.0
        assert line.busy_us == pytest.approx(8.0)

    def test_out_of_order_end_fully_contained(self):
        line = UnitTimeline()
        line.add(0.0, 5.0)
        line.add(1.0, 4.0)     # entirely inside the frontier: no-op
        assert len(line) == 1
        assert line.busy_us == pytest.approx(5.0)

    def test_overflow_counts_drops_and_keeps_busy_exact(self):
        line = UnitTimeline(limit=2)
        line.add(0.0, 1.0)
        line.add(2.0, 3.0)
        line.add(4.0, 5.0)     # over the limit: dropped from the list
        line.add(6.0, 7.0)
        assert len(line) == 2
        assert line.truncated and line.dropped == 2
        assert line.busy_us == pytest.approx(4.0)   # still exact
        # Derived busy over the retained window undercounts — the
        # truncated flag is the tell.
        assert line.busy_between(0.0, 10.0) == pytest.approx(2.0)

    def test_coalescing_across_overflow_truncation(self):
        # A span adjacent to the last *retained* span keeps coalescing
        # into it even once the limit is hit: no drop, busy stays exact.
        line = UnitTimeline(limit=1)
        line.add(0.0, 1.0)
        line.add(1.0, 2.0)     # coalesces, limit not consulted
        line.add(2.0, 3.0)
        assert len(line) == 1
        assert line.spans()[0].end == 3.0
        assert line.busy_us == pytest.approx(3.0)
        assert not line.truncated
        line.add(5.0, 6.0)     # distinct: this one drops
        assert line.truncated and line.dropped == 1
        assert line.busy_us == pytest.approx(4.0)
        line.add(6.0, 7.0)     # adjacent to the *dropped* span, but the
        # retained frontier is 3.0 — recorded as a drop, not a bogus
        # coalesce that would stretch the retained span over idle time.
        assert line.dropped == 2
        assert line.spans()[0].end == 3.0
        assert line.busy_us == pytest.approx(5.0)

    def test_gaps_complement_spans(self):
        line = UnitTimeline()
        line.add(1.0, 2.0)
        line.add(4.0, 6.0)
        gaps = [(g.start, g.end) for g in line.gaps(0.0, 8.0)]
        assert gaps == [(0.0, 1.0), (2.0, 4.0), (6.0, 8.0)]
        total = line.busy_between(0.0, 8.0) + sum(e - s for s, e in gaps)
        assert total == pytest.approx(8.0)

    def test_gaps_with_span_crossing_window_end(self):
        line = UnitTimeline()
        line.add(3.0, 12.0)    # runs past the window
        gaps = [(g.start, g.end) for g in line.gaps(0.0, 10.0)]
        assert gaps == [(0.0, 3.0)]

    def test_gaps_of_empty_timeline_is_whole_window(self):
        line = UnitTimeline()
        assert [(g.start, g.end) for g in line.gaps(2.0, 5.0)] == [(2.0, 5.0)]

    def test_store_propagates_span_limit(self):
        store = TimelineStore(num_pes=1, span_limit=1)
        store.span(0, "EU", 0.0, 1.0)
        store.span(0, "EU", 2.0, 3.0)
        assert store.truncated and store.dropped == 1
        assert store.busy("EU") == pytest.approx(2.0)


class TestTimelineStore:
    def test_busy_and_utilization(self):
        store = TimelineStore(num_pes=2)
        store.span(0, "EU", 0.0, 4.0)
        store.span(1, "EU", 0.0, 2.0)
        store.span(0, "MU", 1.0, 2.0)
        assert store.busy("EU") == pytest.approx(6.0)
        assert store.busy("EU", pe=1) == pytest.approx(2.0)
        # averaged over PEs, per-PE, and a unit with no spans at all
        assert store.utilization("EU", 10.0) == pytest.approx(0.3)
        assert store.utilization("EU", 10.0, pe=0) == pytest.approx(0.4)
        assert store.utilization("AM", 10.0) == 0.0

    def test_items_deterministic(self):
        store = TimelineStore(num_pes=2)
        store.span(1, "MU", 0.0, 1.0)
        store.span(0, "EU", 0.0, 1.0)
        store.span(0, "AM", 0.0, 1.0)
        assert [(pe, u) for pe, u, _ in store.items()] == [
            (0, "AM"), (0, "EU"), (1, "MU")]


class TestDerivationMatchesAccumulators:
    def test_derived_utilization_matches_stats(self, observed_run):
        """The Figure 8/9 acceptance property: timeline-derived numbers
        agree with the busy accumulators within 0.1% relative."""
        _, result = observed_run
        stats = result.stats
        assert stats.timelines is not None
        for unit in UNITS:
            for pe in (None, 0, 1):
                derived = stats.timeline_utilization(unit, pe=pe)
                ref = stats.utilization(unit, pe=pe)
                assert derived == pytest.approx(ref, rel=1e-3, abs=1e-12)

    def test_spans_nonoverlapping_per_unit(self, observed_run):
        _, result = observed_run
        for _pe, _unit, line in result.stats.timelines.items():
            spans = line.spans()
            for a, b in zip(spans, spans[1:]):
                assert a.end <= b.start + 1e-9

    def test_fallback_without_timelines(self):
        from repro.sim.stats import PEStats, RunStats

        pe = PEStats()
        pe.busy["EU"] = 5.0
        stats = RunStats(num_pes=1, finish_time_us=10.0, pe_stats=[pe])
        assert stats.timeline_utilization("EU") == pytest.approx(0.5)
