"""Tests for I-structure storage: presence, deferral, single assignment."""

import pytest

from repro.common.errors import SingleAssignmentViolation
from repro.runtime.istructure import ABSENT, IStructureSegment, PageCache, materialize


def deferred_count(seg, offset=None):
    """Waiters queued on ``offset``, or on any element when None."""
    if offset is not None:
        return len(seg._deferred.get(offset, []))
    return sum(len(v) for v in seg._deferred.values())


def present_count(seg):
    """Elements written so far."""
    return sum(1 for _ in seg.items())


class TestSegmentBasics:
    def test_write_then_read(self):
        seg = IStructureSegment(1, 0, 10)
        assert seg.write(3, 42) == []
        assert seg.get(3) is not ABSENT
        assert seg.read(3) == (True, 42)

    def test_read_absent(self):
        seg = IStructureSegment(1, 0, 10)
        assert seg.get(0) is ABSENT
        assert seg.read(0) == (False, None)

    def test_double_write_raises(self):
        seg = IStructureSegment(5, 0, 4)
        seg.write(2, 1.0)
        with pytest.raises(SingleAssignmentViolation) as exc:
            seg.write(2, 2.0)
        assert exc.value.array_id == 5
        assert exc.value.offset == 2

    def test_double_write_same_value_still_raises(self):
        # Single assignment is about writes, not values.
        seg = IStructureSegment(1, 0, 4)
        seg.write(0, 7)
        with pytest.raises(SingleAssignmentViolation):
            seg.write(0, 7)

    def test_offsets_respect_segment_range(self):
        seg = IStructureSegment(1, 100, 110)
        seg.write(100, "a")
        assert seg.read(109) == (False, None)
        with pytest.raises(IndexError):
            seg.read(99)
        with pytest.raises(IndexError):
            seg.write(110, "x")

    def test_get_returns_the_value_or_absent(self):
        seg = IStructureSegment(1, 100, 104)
        assert seg.get(101) is ABSENT
        seg.write(101, None)
        assert seg.get(101) is None
        seg.write(103, 7)
        assert seg.get(103) == 7
        for outside in (99, 104):
            with pytest.raises(IndexError) as exc:
                seg.get(outside)
            assert str(exc.value) == (
                f"offset {outside} outside segment [100, 104) of array 1")

    def test_contains(self):
        seg = IStructureSegment(1, 4, 8)
        assert 4 in seg
        assert 7 in seg
        assert 8 not in seg
        assert 3 not in seg

    def test_none_is_a_legal_value(self):
        seg = IStructureSegment(1, 0, 2)
        seg.write(0, None)
        assert seg.get(0) is not ABSENT
        assert seg.read(0) == (True, None)
        with pytest.raises(SingleAssignmentViolation):
            seg.write(0, None)


class TestDeferredReads:
    def test_write_wakes_waiters_fifo(self):
        seg = IStructureSegment(1, 0, 4)
        seg.defer(1, "reader-a")
        seg.defer(1, "reader-b")
        assert deferred_count(seg, 1) == 2
        woken = seg.write(1, 99)
        assert woken == ["reader-a", "reader-b"]
        assert deferred_count(seg, 1) == 0

    def test_defer_on_present_is_protocol_error(self):
        seg = IStructureSegment(1, 0, 4)
        seg.write(0, 1)
        with pytest.raises(RuntimeError):
            seg.defer(0, "late")

    def test_pending_offsets_for_deadlock_diagnostics(self):
        seg = IStructureSegment(1, 0, 8)
        seg.defer(5, "x")
        seg.defer(2, "y")
        seg.defer(5, "z")
        assert seg.pending_offsets() == [2, 5]
        assert deferred_count(seg) == 3

    def test_waiters_independent_per_offset(self):
        seg = IStructureSegment(1, 0, 4)
        seg.defer(0, "a")
        seg.defer(1, "b")
        assert seg.write(0, 10) == ["a"]
        assert deferred_count(seg, 1) == 1


class TestPageSnapshot:
    def test_snapshot_carries_absence(self):
        seg = IStructureSegment(1, 0, 8)
        seg.write(0, 10)
        seg.write(2, 30)
        cells = seg.snapshot_page(0, 4)
        assert cells[0] == 10
        assert cells[1] is ABSENT
        assert cells[2] == 30
        assert cells[3] is ABSENT

    def test_snapshot_clipped_to_segment(self):
        seg = IStructureSegment(1, 4, 8)
        seg.write(5, "v")
        cells = seg.snapshot_page(0, 8)  # page starts before segment
        assert len(cells) == 4

    def test_items_and_present_count(self):
        seg = IStructureSegment(1, 10, 14)
        seg.write(11, "b")
        seg.write(13, "d")
        assert present_count(seg) == 2
        assert list(seg.items()) == [(11, "b"), (13, "d")]


class TestPageCache:
    def test_miss_then_install_then_hit(self):
        cache = PageCache()
        hit, _ = cache.lookup(1, 0, 3)
        assert not hit
        cache.install(1, 0, 0, [10, 20, 30, 40])
        hit, value = cache.lookup(1, 0, 3)
        assert hit and value == 40
        assert cache.hits == 1
        assert cache.misses == 1

    def test_absent_cell_in_cached_page_is_a_miss(self):
        # "the same page may be copied multiple times in the future as
        # references to previously empty elements are being made"
        cache = PageCache()
        cache.install(2, 5, 160, [1, ABSENT, 3])
        hit, _ = cache.lookup(2, 5, 161)
        assert not hit
        assert cache.refetches == 1
        # Refresh with the now-complete page.
        cache.install(2, 5, 160, [1, 2, 3])
        hit, value = cache.lookup(2, 5, 161)
        assert hit and value == 2

    def test_install_element_merges(self):
        cache = PageCache()
        cache.install_element(1, 0, 0, 4, 2, "late")
        hit, value = cache.lookup(1, 0, 2)
        assert hit and value == "late"
        hit, _ = cache.lookup(1, 0, 1)
        assert not hit

    def test_bounded_cache_evicts_fifo(self):
        cache = PageCache(capacity_pages=2)
        cache.install(1, 0, 0, [1])
        cache.install(1, 1, 32, [2])
        cache.install(1, 2, 64, [3])  # evicts page 0
        assert len(cache) == 2
        hit, _ = cache.lookup(1, 0, 0)
        assert not hit
        hit, _ = cache.lookup(1, 2, 64)
        assert hit


class TestMaterialize:
    def test_materialize_with_default(self):
        seg = IStructureSegment(1, 0, 6)
        seg.write(0, 1)
        seg.write(5, 6)
        flat = materialize((2, 3), lambda off: seg.read(off), default=-1)
        assert flat == [1, -1, -1, -1, -1, 6]
