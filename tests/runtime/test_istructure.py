"""Tests for I-structure storage: presence, deferral, single assignment."""

import pytest

from repro.common.errors import SingleAssignmentViolation
from repro.runtime.istructure import IStructureSegment


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
        assert seg.get(3) == 42
        assert seg.read(3) == (True, 42)

    def test_read_absent(self):
        seg = IStructureSegment(1, 0, 10)
        assert seg.get(0) is None
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

    def test_a_replay_verifies_the_stored_value(self):
        # A resumed run recomputing a stored element: the same value is
        # counted (None), a different one is still a violation.
        seg = IStructureSegment(1, 0, 4)
        seg.defer(2, "reader")
        assert seg.write(2, 5, replay=True) == ["reader"]
        assert seg.write(2, 5, replay=True) is None
        with pytest.raises(SingleAssignmentViolation):
            seg.write(2, 6, replay=True)
        assert seg.get(2) == 5

    def test_offsets_respect_segment_range(self):
        seg = IStructureSegment(1, 100, 110)
        seg.write(100, "a")
        assert seg.read(109) == (False, None)
        for outside in (99, 110):
            with pytest.raises(IndexError):
                seg.read(outside)
            with pytest.raises(IndexError):
                seg.write(outside, "x")

    def test_get_returns_the_value_or_absent(self):
        seg = IStructureSegment(1, 100, 104)
        assert seg.get(101) is None
        seg.write(101, 0)
        assert seg.get(101) == 0
        seg.write(103, 7)
        assert seg.get(103) == 7
        for outside in (99, 104):
            with pytest.raises(IndexError) as exc:
                seg.get(outside)
            assert str(exc.value) == (
                f"offset {outside} outside segment [100, 104) of array 1")

    def test_an_absent_cell_is_none(self):
        # None marks absence, as in every store's list (program values
        # are numbers); a falsy number is present like any other.
        seg = IStructureSegment(1, 0, 2)
        assert seg.cells == [None, None]
        seg.write(0, 0)
        assert seg.cells == [0, None]
        assert seg.get(0) == 0 and seg.get(1) is None
        assert list(seg.items()) == [(0, 0)]
        with pytest.raises(SingleAssignmentViolation):
            seg.write(0, 0)

    def test_grow_extends_the_same_cells(self):
        # A dist node's handles keep probing the list they were given.
        seg = IStructureSegment(1, 0, 0)
        cells = seg.cells
        seg.grow(4)
        seg.write(3, 1.5)
        seg.grow(2)  # never shrinks
        assert seg.cells is cells and cells == [None, None, None, 1.5]
        assert seg.hi == 4


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
        assert cells[1] is None
        assert cells[2] == 30
        assert cells[3] is None

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


class TestPageCopy:
    """A PE's copy of another PE's page is a segment over that page,
    landed by ``fill``: a page snapshot fills the cells it carries, a
    value reply fills one, and a copy only gains values."""

    def test_miss_then_fill_then_hit(self):
        copy = IStructureSegment(1, 0, 4)
        assert copy.get(3) is None
        copy.fill(0, [10, 20, 30, 40])
        assert copy.get(3) == 40

    def test_a_hole_is_a_miss_until_a_later_snapshot_fills_it(self):
        # "the same page may be copied multiple times in the future as
        # references to previously empty elements are being made"
        copy = IStructureSegment(2, 160, 163)
        copy.fill(160, [1, None, 3])
        assert copy.get(161) is None
        copy.fill(160, [1, 2, 3])
        assert copy.get(161) == 2

    def test_an_older_snapshot_keeps_a_replied_value(self):
        # A page snapshot taken before a value reply can arrive after it
        # (latency grows with size): its None leaves the reply's value.
        copy = IStructureSegment(1, 0, 4)
        copy.fill(2, ["reply"])
        copy.fill(0, [10, None, None, None])
        assert copy.cells == [10, None, "reply", None]

    def test_a_value_reply_fills_one_cell(self):
        copy = IStructureSegment(1, 0, 4)
        copy.fill(2, ["late"])
        assert copy.get(2) == "late"
        assert copy.get(1) is None
