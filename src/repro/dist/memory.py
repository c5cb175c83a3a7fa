"""A node's I-structure memory: the paper's PE-local unit (§2, §5.1).

One :class:`NodeMemory` per node process holds, per distributed array,
one :class:`~repro.runtime.istructure.IStructureSegment` — presence
bits, FIFO deferred-read queues, single assignment; the store the
simulator's Array Manager uses — for whatever the node owns or comes to
own by takeover.  It adds the two things only ``dist`` needs: *replay
verify* (a replayed write of a present element must compare equal, and
is counted) and one lock, because two threads use it — the executor
that computes and the loop that serves peers.

The unit is pure: no asyncio, no sockets, no futures, no clock.  Waiter
records go in opaque and every method returns *what to do* — the
waiters a write released, the run a read reply carries, a snapshot,
the drained replay count — for the caller to act on outside the lock.  A
peer's frame can name an array before this node's executor allocates
it, so a segment starts empty and grows by whole pages as it is touched.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.common.errors import SingleAssignmentViolation
from repro.runtime.istructure import ABSENT, IStructureSegment


class NodeMemory:
    """Every element this node stores, behind one lock."""

    def __init__(self, page_size: int) -> None:
        self.page_size = page_size
        self._lock = threading.Lock()
        self._segments: dict[int, IStructureSegment] = {}
        self._replayed = 0

    def _segment(self, a: int, off: int) -> IStructureSegment:
        """Array ``a``'s segment, covering ``off``'s page (lock held)."""
        seg = self._segments.get(a)
        if seg is None:
            seg = self._segments[a] = IStructureSegment(a, 0, 0)
        if off >= seg.hi:
            seg.grow((off // self.page_size + 1) * self.page_size)
        return seg

    def write(self, a: int, off: int, value: Any,
              replay: bool = False) -> list:
        """Store ``value``; the waiters it released, in arrival order.
        A second write raises :class:`SingleAssignmentViolation` unless
        it is a ``replay`` of the stored value, which is only counted."""
        with self._lock:
            seg = self._segment(a, off)
            try:
                return seg.write(off, value)
            except SingleAssignmentViolation:
                if not (replay and seg.read(off)[1] == value):
                    raise
                self._replayed += 1
                return []

    def read(self, a: int, off: int, waiter: Any) -> Any:
        """The element's value — or None, with ``waiter`` queued until
        its write (program values are numbers, never None)."""
        with self._lock:
            seg = self._segment(a, off)
            present, value = seg.read(off)
            if not present:
                seg.defer(off, waiter)
            return value

    def page(self, a: int, off: int, n: int) -> tuple[int, list]:
        """A read reply: ``(lo, values)``, the run of up to ``n`` elements
        that starts at ``off``'s page (at ``off``'s ``n``-aligned slice
        of it when a page is longer than ``n``).  An absent element is
        None (program values are numbers, never None); the run is
        clipped to what this node stores and ends at its last present
        element, so an array no frame has named yet gives ``[]``."""
        lo = off // self.page_size * self.page_size
        lo += (off - lo) // n * n
        with self._lock:
            seg = self._segments.get(a)
            cells = seg.snapshot_page(lo, lo + n) if seg is not None else []
        values = [None if v is ABSENT else v for v in cells]
        end = len(values)
        while end and values[end - 1] is None:
            end -= 1
        del values[end:]
        return lo, values

    def seed(self, a: int, off: int, value: Any) -> None:
        """Pre-store a checkpointed element; monotone (present stays)."""
        with self._lock:
            self._segment(a, off).seed(off, value)

    def drop_waiters(self, stale: Callable[[Any], bool]) -> None:
        """Forget the queued waiters ``stale`` accepts (a dead reader's)."""
        with self._lock:
            for seg in self._segments.values():
                seg.discard_waiters(stale)

    def snapshot(self) -> dict[int, dict[int, Any]]:
        """``{array: {offset: value}}`` of every present element."""
        with self._lock:
            return {a: dict(s.items()) for a, s in self._segments.items()}

    def take_replayed(self) -> int:
        """Drain the replay-verify counter."""
        with self._lock:
            count, self._replayed = self._replayed, 0
        return count
