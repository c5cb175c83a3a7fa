"""I-structure element storage (paper Sections 2 and 5.1).

An I-structure is an array obeying single assignment: every element may be
written exactly once and read any number of times.  Reads that arrive
before the write are *deferred* — enqueued on the element — and serviced
when the write happens.  Double writes raise
:class:`~repro.common.errors.SingleAssignmentViolation`.

:class:`IStructureSegment` stores one PE's contiguous slice of a
distributed array (or the whole array on a single-store backend).
:class:`PageCache` is the read-only software cache of remote pages
(Section 4): thanks to single assignment a cached value can never be
stale, so there is no coherence protocol; a cached page may simply be
*incomplete* and get refetched when an element that was absent at copy
time is needed.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from repro.common.errors import SingleAssignmentViolation

_ABSENT = object()


class IStructureSegment:
    """Presence-bit storage for flat offsets in ``[lo, hi)`` of one array."""

    __slots__ = ("array_id", "lo", "hi", "_cells", "_deferred")

    def __init__(self, array_id: int, lo: int, hi: int) -> None:
        if hi < lo:
            raise ValueError(f"bad segment range [{lo}, {hi})")
        self.array_id = array_id
        self.lo = lo
        self.hi = hi
        self._cells: list[Any] = [_ABSENT] * (hi - lo)
        # offset -> list of opaque waiter records, serviced FIFO on write.
        self._deferred: dict[int, list[Any]] = {}

    def __contains__(self, offset: int) -> bool:
        return self.lo <= offset < self.hi

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
        """The element at ``offset``, or :data:`ABSENT` while unwritten.

        The one-frame accessor: the bounds check is inline (an offset
        outside ``[lo, hi)`` is an ``IndexError``, as everywhere here)
        and there is no tuple to unpack.  The simulator's local Array
        Manager reads through it once per element; :meth:`read` is built
        on it.
        """
        if self.lo <= offset < self.hi:
            return self._cells[offset - self.lo]
        raise self._outside(offset)

    def read(self, offset: int) -> tuple[bool, Any]:
        """Non-destructive read: (present?, value-or-None)."""
        value = self.get(offset)
        if value is _ABSENT:
            return False, None
        return True, value

    def defer(self, offset: int, waiter: Any) -> None:
        """Queue ``waiter`` until ``offset`` is written.

        Callers must have found the element absent first (:meth:`get`);
        deferring on a present element is a protocol error.
        """
        slot = self._slot(offset)
        if self._cells[slot] is not _ABSENT:
            raise RuntimeError(
                f"deferred read on present element {offset} of array "
                f"{self.array_id}"
            )
        self._deferred.setdefault(offset, []).append(waiter)

    def write(self, offset: int, value: Any) -> list[Any]:
        """Store ``value`` and return the waiters to wake (FIFO order)."""
        slot = self._slot(offset)
        if self._cells[slot] is not _ABSENT:
            raise SingleAssignmentViolation(self.array_id, offset)
        self._cells[slot] = value
        return self._deferred.pop(offset, [])

    def seed(self, offset: int, value: Any) -> None:
        """Pre-store a checkpointed element (restore path, host-side).

        Monotone seeding only: an already-present cell is left untouched,
        so double-seeding is idempotent.  No waiters can exist yet —
        restore seeds at segment-install time, before any read runs.
        """
        slot = self._slot(offset)
        if self._cells[slot] is _ABSENT:
            self._cells[slot] = value

    def grow(self, hi: int) -> None:
        """Extend to ``[lo, hi)``, never shrink (``dist`` learns an
        array's extent late: a peer's frame can precede its allocation)."""
        self._cells.extend([_ABSENT] * (hi - self.hi))
        self.hi = max(hi, self.hi)

    def discard_waiters(self, stale: Callable[[Any], bool]) -> None:
        """Forget every queued waiter ``stale`` accepts (its reader died)."""
        for offset, queue in list(self._deferred.items()):
            keep = [w for w in queue if not stale(w)]
            if keep:
                self._deferred[offset] = keep
            else:
                del self._deferred[offset]

    def pending_offsets(self) -> list[int]:
        """Offsets that have deferred readers (deadlock diagnostics)."""
        return sorted(self._deferred)

    def snapshot_page(self, page_lo: int, page_hi: int) -> list[Any]:
        """Copy of ``[page_lo, page_hi)`` with absent cells as ``_ABSENT``.

        Used by the Array Manager to ship a whole page to a remote reader
        (Section 4's remote data caching).  The page bounds are clipped to
        the segment.
        """
        page_lo = max(page_lo, self.lo)
        page_hi = min(page_hi, self.hi)
        return [self._cells[off - self.lo] for off in range(page_lo, page_hi)]

    def items(self) -> Iterator[tuple[int, Any]]:
        """Iterate (offset, value) over present elements."""
        for i, cell in enumerate(self._cells):
            if cell is not _ABSENT:
                yield self.lo + i, cell


class PageCache:
    """One PE's software cache of remote array pages.

    A cached page is a snapshot: elements absent at fetch time stay absent
    in the copy.  A hit requires the *element* to be present, not just the
    page ("the need is not completely eliminated because not all elements
    will, in general, be present at the time the page is transmitted" -
    Section 4).  There is no eviction in the paper's model; we optionally
    bound the cache for ablation studies.
    """

    def __init__(self, capacity_pages: int | None = None) -> None:
        self.capacity_pages = capacity_pages
        # (array_id, page_index) -> (page_lo_offset, list of cells)
        self._pages: dict[tuple[int, int], tuple[int, list[Any]]] = {}
        self.hits = 0
        self.misses = 0
        self.refetches = 0

    def __len__(self) -> int:
        return len(self._pages)

    def lookup(self, array_id: int, page: int, offset: int) -> tuple[bool, Any]:
        """(hit?, value).  A present page with an absent cell is a miss."""
        entry = self._pages.get((array_id, page))
        if entry is None:
            self.misses += 1
            return False, None
        page_lo, cells = entry
        idx = offset - page_lo
        if idx < 0 or idx >= len(cells) or cells[idx] is _ABSENT:
            self.misses += 1
            self.refetches += 1
            return False, None
        self.hits += 1
        return True, cells[idx]

    def install(self, array_id: int, page: int, page_lo: int, cells: list[Any]) -> None:
        """Install (or refresh) a page snapshot received from its owner."""
        if self.capacity_pages is not None and len(self._pages) >= self.capacity_pages:
            if (array_id, page) not in self._pages:
                # FIFO eviction, only used by the bounded-cache ablation.
                oldest = next(iter(self._pages))
                del self._pages[oldest]
        self._pages[(array_id, page)] = (page_lo, list(cells))

    def install_element(self, array_id: int, page: int, page_lo: int,
                        page_size: int, offset: int, value: Any) -> None:
        """Merge a single remote value into the cache (deferred-read reply)."""
        key = (array_id, page)
        entry = self._pages.get(key)
        if entry is None:
            cells: list[Any] = [_ABSENT] * page_size
            self._pages[key] = (page_lo, cells)
        else:
            page_lo, cells = entry
        idx = offset - page_lo
        if 0 <= idx < len(cells):
            cells[idx] = value


ABSENT = _ABSENT
"""Sentinel marking an unwritten cell inside page snapshots."""


def materialize(
    dims: tuple[int, ...],
    reader: Callable[[int], tuple[bool, Any]],
    default: Any = None,
) -> list[Any]:
    """Flatten an array through ``reader(offset) -> (present, value)``.

    Utility for gathering distributed results back into a host-side list;
    absent cells become ``default``.
    """
    total = 1
    for d in dims:
        total *= d
    out = []
    for off in range(total):
        present, value = reader(off)
        out.append(value if present else default)
    return out
