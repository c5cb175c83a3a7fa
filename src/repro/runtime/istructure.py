"""I-structure element storage (paper Sections 2 and 5.1).

An I-structure is an array obeying single assignment: every element may be
written exactly once and read any number of times.  Reads that arrive
before the write are *deferred* — enqueued on the element — and serviced
when the write happens.  Double writes raise
:class:`~repro.common.errors.SingleAssignmentViolation`.

An absent cell is None, as in every store's list (program values are
numbers), so a segment's ``cells`` can be the list an inline read probes.

:class:`IStructureSegment` stores one PE's contiguous slice of a
distributed array or its copy of another PE's page (the simulator's
Array Manager), or all a ``dist`` node holds of one: what it owns and
every copy it has.  A copy is filled, never overwritten (:meth:`fill`):
thanks to single assignment a copied value can never be stale, so there
is no coherence protocol (Section 4); a copy may simply be *incomplete*,
and the page is fetched again when an element absent at copy time is
needed.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.common.errors import SingleAssignmentViolation


class IStructureSegment:
    """Presence-bit storage for flat offsets in ``[lo, hi)`` of one array."""

    __slots__ = ("array_id", "lo", "hi", "cells", "_deferred")

    def __init__(self, array_id: int, lo: int, hi: int) -> None:
        if hi < lo:
            raise ValueError(f"bad segment range [{lo}, {hi})")
        self.array_id = array_id
        self.lo = lo
        self.hi = hi
        self.cells: list[Any] = [None] * (hi - lo)
        # offset -> list of opaque waiter records, serviced FIFO on write.
        self._deferred: dict[int, list[Any]] = {}

    def _outside(self, offset: int) -> IndexError:
        return IndexError(
            f"offset {offset} outside segment [{self.lo}, {self.hi}) "
            f"of array {self.array_id}"
        )

    def _slot(self, offset: int) -> int:
        if not self.lo <= offset < self.hi:
            raise self._outside(offset)
        return offset - self.lo

    def get(self, offset: int) -> Any:
        """The element at ``offset``, or None while unwritten; an offset
        outside ``[lo, hi)`` is an ``IndexError``, as everywhere here.
        One frame, its bounds check inline: the simulator's local Array
        Manager reads through it once per element."""
        if self.lo <= offset < self.hi:
            return self.cells[offset - self.lo]
        raise self._outside(offset)

    def read(self, offset: int) -> tuple[bool, Any]:
        """Non-destructive read: (present?, value-or-None)."""
        value = self.get(offset)
        return value is not None, value

    def defer(self, offset: int, waiter: Any) -> None:
        """Queue ``waiter`` until ``offset`` is written.

        Callers must have found the element absent first (:meth:`get`);
        deferring on a present element is a protocol error.
        """
        slot = self._slot(offset)
        if self.cells[slot] is not None:
            raise RuntimeError(
                f"deferred read on present element {offset} of array "
                f"{self.array_id}"
            )
        self._deferred.setdefault(offset, []).append(waiter)

    def write(self, offset: int, value: Any,
              replay: bool = False) -> list[Any] | None:
        """Store ``value`` and return the waiters to wake (FIFO order).

        A second write raises :class:`SingleAssignmentViolation`, unless
        it is a ``replay`` (a resumed run recomputing a stored element)
        of the value stored: that returns None, for the caller to count.
        """
        slot = self._slot(offset)
        stored = self.cells[slot]
        if stored is not None:
            if replay and stored == value:
                return None
            raise SingleAssignmentViolation(self.array_id, offset)
        self.cells[slot] = value
        return self._deferred.pop(offset, [])

    def fill(self, lo: int, values: list[Any]) -> list[tuple[int, list[Any]]]:
        """Land a run of copies from ``lo`` (None where the sender had
        none) in the absent cells, in one pass: a present cell is never
        overwritten, so a run's None never unsets an element written
        meanwhile.  Returns ``(offset, waiters)`` for each filled cell
        that readers were deferred on, in offset order (each FIFO)."""
        start, end = self._slot(lo), self._slot(lo + len(values) - 1) + 1
        cells = self.cells
        cells[start:end] = [value if cell is None else cell
                            for cell, value in zip(cells[start:end], values)]
        if not self._deferred:
            return []
        filled = sorted([off for off in self._deferred
                         if start <= off - self.lo < end
                         and cells[off - self.lo] is not None])
        return [(off, self._deferred.pop(off)) for off in filled]

    def seed(self, offset: int, value: Any) -> None:
        """Pre-store a checkpointed element (restore path, host-side).

        Monotone seeding only: an already-present cell is left untouched,
        so double-seeding is idempotent.  No waiters can exist yet —
        restore seeds at segment-install time, before any read runs.
        """
        slot = self._slot(offset)
        if self.cells[slot] is None:
            self.cells[slot] = value

    def grow(self, hi: int) -> None:
        """Extend to ``[lo, hi)`` in place, never shrink (``dist`` learns
        an array's extent late: a peer's frame can precede its
        allocation; ``cells`` stays the list a node's handles probe)."""
        self.cells.extend([None] * (hi - self.hi))
        self.hi = max(hi, self.hi)

    def discard_waiters(self, stale: Callable[[Any], bool]) -> None:
        """Forget every queued waiter ``stale`` accepts (its reader died)."""
        kept = {offset: [w for w in queue if not stale(w)]
                for offset, queue in self._deferred.items()}
        self._deferred = {offset: q for offset, q in kept.items() if q}

    def pending_offsets(self) -> list[int]:
        """Offsets that have deferred readers (deadlock diagnostics)."""
        return sorted(self._deferred)

    def snapshot_page(self, page_lo: int, page_hi: int) -> list[Any]:
        """Copy of ``[page_lo, page_hi)``, absent cells None.

        Used by the Array Manager to ship a whole page to a remote reader
        (Section 4's remote data caching).  The page bounds are clipped to
        the segment.
        """
        return self.cells[max(page_lo - self.lo, 0):max(page_hi - self.lo, 0)]

    def items(self) -> Iterator[tuple[int, Any]]:
        """Iterate (offset, value) over present elements."""
        for i, cell in enumerate(self.cells):
            if cell is not None:
                yield self.lo + i, cell

