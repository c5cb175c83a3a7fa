"""Shared-memory I-structures for the real-parallel backend.

Each distributed array lives in one POSIX shared-memory segment holding
an ownership-epoch table, a flag byte and an 8-byte value per element:

    [epochs: 8 bytes x epoch_slots][flags: 1 byte/elem][values: 8 bytes/elem]

The flag encodes presence and type (I-structure presence bits):

    0 = absent, 1 = float, 2 = int, 3 = bool

A write stores the value first and sets the flag last; a read spins until
the flag is non-zero.  On x86-64 with CPython this is sound: stores
become visible in program order (the value is complete before its flag
is) and the interpreter does not reorder the two statements.  Single
assignment is enforced by testing the flag before writing — a
best-effort check (two simultaneous writers could both pass it), exactly
the kind of race single-assignment *programs* never exhibit.  A cell
holds a float, a bool or an int of at most 64 bits; a wider int is
refused at the write, before anything is stored.

The epoch table carries one monotonically increasing *ownership epoch*
per worker slot, stamped by each generation of a worker when it attaches.
It is what makes recovery safe against half-dead predecessors: a replay
generation bumps its slot's epoch, and a stale generation that wakes up
later notices the bump on its next access and raises
:class:`~repro.common.errors.WorkerSuperseded` instead of racing its own
successor.  (Even an undetected late write is benign — single assignment
means the replay would have stored the identical value — the epoch just
turns "benign by argument" into "detected".)

Recovery replays set ``replay=True``: a write that finds the presence
bit already set (its predecessor got that far before dying) verifies the
stored value and moves on instead of raising a single-assignment
violation — this is what makes re-execution idempotent.
"""

from __future__ import annotations

import mmap
import os
import time
from typing import Callable

import _posixshmem

from repro.common.errors import (BoundsViolation, DeferredReadTimeout,
                                 ExecutionError, RuntimeFault,
                                 SingleAssignmentViolation, WorkerSuperseded)
from repro.runtime.arrays import SharedHandle, index_fn

FLAG_ABSENT = 0
FLAG_FLOAT = 1
FLAG_INT = 2
FLAG_BOOL = 3

_INT_MIN, _INT_MAX = -2 ** 63, 2 ** 63 - 1  # what an 8-byte cell holds

# ``ShmArray.read`` after the index rule: count, load the flag, take a
# present float from its typed view (an absent element waits), and keep
# what was answered in the handle's mirror for the inline read.
_SHM_READ = """\
self.reads += 1
flag = flags[off]
if flag == FLAG_FLOAT:
    value = floats[off]
elif flag == FLAG_ABSENT:
    value = wait(indices, off)
else:
    value = present(off, flag)
(self.seen or self.mirror())[off] = value
return value
"""

# ``ShmArray.write`` after the index rule: count, note the page, store a
# float in an absent cell of a current generation; the rest is ``store``.
_SHM_WRITE = """\
self.writes += 1
touched.add(off // page_size)
if (not isinstance(value, float) or flags[off] != FLAG_ABSENT
        or generation and epochs[slot] > generation):
    return store(indices, off, value)
floats[off] = value
flags[off] = FLAG_FLOAT
return
"""


class _Segment:
    """One mapped POSIX shared-memory segment, owned explicitly.

    ``multiprocessing.shared_memory.SharedMemory`` registers every
    segment it opens with Python's ``resource_tracker``, which would
    unlink the segment when the first worker that touched it exits —
    yanking it from under the others and the parent's final gather —
    and, once opted out of, prints a ``KeyError`` traceback whenever a
    later ``unlink`` (or another process sharing the tracker)
    unregisters the same name again.  Segments here never meet the
    tracker: a run's :class:`~repro.parallel.manifest.ShmManifest` owns
    them and :func:`unlink_segment` is the one way they go away.
    """

    def __init__(self, name: str, create: bool, size: int = 0) -> None:
        flags = os.O_RDWR | (os.O_CREAT | os.O_EXCL if create else 0)
        fd = _posixshmem.shm_open("/" + name, flags, mode=0o600)
        try:
            if create:
                os.ftruncate(fd, size)
            self.size = os.fstat(fd).st_size
            self._mmap = mmap.mmap(fd, self.size)
        finally:
            os.close(fd)
        self.buf = memoryview(self._mmap)

    def close(self) -> None:
        self.buf.release()
        self._mmap.close()


def unlink_segment(name: str) -> bool:
    """Remove segment ``name``; False when it was already gone."""
    try:
        _posixshmem.shm_unlink("/" + name)
    except FileNotFoundError:
        return False
    return True


class ShmArray(SharedHandle):
    """One shared I-structure array (attached or created): segment
    ``name``, holding the array of allocation ordinal ``ordinal`` (1 for
    an array of its own), whose identity-space header carries the
    ordinal as every store's does.

    ``epoch_slots`` sizes the ownership-epoch table (one slot per
    worker) and must agree between the creator and every attacher —
    the executor passes the run's worker count everywhere.  ``slot`` /
    ``generation`` identify this attachment for epoch stamping and
    staleness checks (``generation=0`` disables both, for standalone
    host-side use).  ``exist_ok`` turns creation into create-or-attach,
    which is what a replayed worker 0 needs: its predecessor may or may
    not have gotten around to creating the segment.

    How a read waits is bound here, once per handle: a spin that lasts
    ``spin_ceiling_s`` (and every further multiple of it) invokes
    ``on_stall`` with a structured report — array, indices, flat offset,
    owning worker slot, seconds waited — which the worker forwards to
    the supervisor; ``on_spin`` fires once when a spin begins (the
    fault-injection hook); a spin that outlives ``timeout_s`` raises
    :class:`~repro.common.errors.DeferredReadTimeout`.

    ``read(indices)`` and ``write(indices, value)`` are built here too,
    by :func:`~repro.runtime.arrays.index_fn`: the index rule for this
    handle's rank and the common case in one Python frame, ``_wait``
    behind a read of an absent element and ``_store`` behind any write
    but a float's.  What ``read`` answers goes into the handle's mirror
    (:class:`~repro.runtime.arrays.Handle`).
    """

    def __init__(self, name: str, dims: tuple[int, ...], create: bool,
                 ordinal: int = 1, attach_timeout_s: float = 10.0,
                 page_size: int = 32, epoch_slots: int = 1,
                 slot: int = 0, generation: int = 0,
                 replay: bool = False, exist_ok: bool = False,
                 timeout_s: float = 30.0,
                 spin_ceiling_s: float | None = None,
                 on_stall: Callable[[dict], None] | None = None,
                 on_spin: Callable[[], None] | None = None) -> None:
        # The extents pass their check before a segment exists to leak.
        # The header is identity-space geometry (``epoch_slots`` plays
        # ``num_pes``): what the Range Filter consults, and the
        # segment-owner hint in stall reports.
        super().__init__(ordinal, dims, page_size, epoch_slots)
        if epoch_slots < 1:
            raise ExecutionError(f"epoch_slots must be >= 1, got {epoch_slots}")
        self.slot = slot
        self.generation = generation
        self.replay = replay
        self.timeout_s = timeout_s
        self.spin_ceiling_s = spin_ceiling_s
        self.on_stall = on_stall
        self.on_spin = on_spin
        self.total = total = self.header.total_elements
        self._epoch_bytes = 8 * epoch_slots
        size = self._epoch_bytes + total * 9  # epochs + flag + value bytes

        if create:
            # POSIX shm_open + ftruncate hands out zero-filled pages, so
            # the flag region is already FLAG_ABSENT (and every epoch 0)
            # everywhere.  Never zero it explicitly: attachers may
            # already be writing by the time the creator gets scheduled
            # again, and a late memset would erase their presence bits.
            try:
                self.shm = _Segment(name, create=True, size=size)
            except FileExistsError:
                if not exist_ok:
                    raise
                # A predecessor generation created it; replay attaches.
                self.shm = self._attach(name, size, attach_timeout_s)
        else:
            self.shm = self._attach(name, size, attach_timeout_s)
        self.name = name
        self.offset = self.header.offset
        # Typed views over the mapping: cells are read and written as
        # native 8-byte floats / ints with no per-access (un)packing.
        # The value region follows ``total`` flag bytes and so need not
        # be 8-aligned; x86-64 loads and stores do not care.
        buf = self.shm.buf
        self._epochs = buf[:self._epoch_bytes].cast("q")
        self._flags = buf[self._epoch_bytes:self._epoch_bytes + total]
        vals = buf[self._epoch_bytes + total:size]
        self._floats = vals.cast("d")
        self._ints = vals.cast("q")
        if generation:
            self.set_epoch(slot, generation)
        self.read = index_fn("read", ordinal, dims, _SHM_READ, self=self,
                             flags=self._flags, floats=self._floats,
                             wait=self._wait, present=self._read_present,
                             FLAG_FLOAT=FLAG_FLOAT, FLAG_ABSENT=FLAG_ABSENT)
        self.write = index_fn(
            "write", ordinal, dims, _SHM_WRITE, "indices, value", self=self,
            touched=self.pages_touched, page_size=page_size,
            flags=self._flags, floats=self._floats, epochs=self._epochs,
            slot=slot, generation=generation, store=self._store,
            FLAG_FLOAT=FLAG_FLOAT, FLAG_ABSENT=FLAG_ABSENT)

    @staticmethod
    def _attach(name: str, size: int, attach_timeout_s: float) -> _Segment:
        deadline = time.monotonic() + attach_timeout_s
        while True:
            try:
                shm = _Segment(name, create=False)
                # The creator opens the segment before sizing it; an
                # attach landing in that window sees a short file.
                if shm.size >= size:
                    return shm
                shm.close()
            except (FileNotFoundError, ValueError):
                pass
            if time.monotonic() > deadline:
                # The creating peer is gone: a fault of the run, not of an
                # instruction — ``runtime``, which a worker may report
                # without outranking the crash that caused it.
                raise RuntimeFault(f"shared array {name} never appeared")
            time.sleep(0.001)

    # -- ownership epochs -----------------------------------------------

    def epoch(self, slot: int) -> int:
        """Current ownership epoch of ``slot`` (0 = never stamped)."""
        return self._epochs[slot]

    def set_epoch(self, slot: int, generation: int) -> None:
        """Stamp ``slot``'s epoch; monotonic (never lowers the value)."""
        if generation > self.epoch(slot):
            self._epochs[slot] = generation

    def _check_superseded(self) -> None:
        current = self._epochs[self.slot]
        if current > self.generation:
            raise WorkerSuperseded(self.slot, self.generation, current)

    # -- element access --------------------------------------------------

    def _store(self, indices: tuple[int, ...], off: int, value) -> None:
        """The write of what ``write`` does not store itself."""
        if self._flags[off] != FLAG_ABSENT:
            if self.replay:
                # Idempotent replay: the predecessor generation got this
                # far before dying.  Single assignment guarantees the
                # recomputed value is identical; verify to keep genuine
                # violations (double writes in the program) detectable
                # even under replay.
                if self._read_present(off, self._flags[off]) != value:
                    raise SingleAssignmentViolation(self.ordinal, off)
                self.replayed_present += 1
                return
            raise SingleAssignmentViolation(self.ordinal, off)
        if self.generation:
            self._check_superseded()
        if isinstance(value, bool):
            self._ints[off] = value
            flag = FLAG_BOOL
        elif isinstance(value, int):
            if not _INT_MIN <= value <= _INT_MAX:
                raise ExecutionError(
                    f"cannot store {value} in shared array {self.name}"
                    f"{list(indices)}: it does not fit the 8-byte cell")
            self._ints[off] = value
            flag = FLAG_INT
        else:
            raise ExecutionError(f"cannot store {type(value).__name__} in a "
                                 "shared array")
        self._flags[off] = flag  # presence bit set last

    def _wait(self, indices: tuple[int, ...], off: int):
        """An I-structure read of an absent element: spin until it is
        present, under the settings bound at construction."""
        if self.on_spin is not None:
            self.on_spin()
        spin_ceiling_s, on_stall = self.spin_ceiling_s, self.on_stall
        spin_start = time.monotonic()
        deadline = spin_start + self.timeout_s
        next_stall = (spin_start + spin_ceiling_s
                      if spin_ceiling_s else None)
        pause = 1e-6
        owner_of = self.header.owner_of_offset
        try:
            while True:
                flag = self._flags[off]
                if flag != FLAG_ABSENT:
                    break
                if self.generation:
                    self._check_superseded()
                now = time.monotonic()
                if next_stall is not None and now >= next_stall:
                    self.stall_reports += 1
                    if on_stall is not None:
                        on_stall({"array": self.name,
                                  "indices": list(indices),
                                  "offset": off,
                                  "owner": owner_of(off),
                                  "waited_s": now - spin_start})
                    next_stall = now + spin_ceiling_s
                if now > deadline:
                    raise DeferredReadTimeout(
                        self.name, indices, off,
                        owner_of(off), now - spin_start)
                time.sleep(pause)
                pause = min(pause * 2, 0.001)
        finally:
            self.waited(time.monotonic() - spin_start)
        return self._read_present(off, flag)

    def _read_present(self, off: int, flag: int):
        if flag == FLAG_FLOAT:
            return self._floats[off]
        value = self._ints[off]
        return bool(value) if flag == FLAG_BOOL else value

    def seed(self, off: int, value) -> None:
        """Host-side restore: store one checkpointed element by offset.

        A plain :meth:`write` — the resuming parent owns the segment, no
        worker is attached yet and the handle is generation 0.
        """
        if not 0 <= off < self.total:
            raise BoundsViolation(self.ordinal, (off,), self.dims)
        self.write(self.header.indices_of(off), value)

    def dump(self) -> dict:
        """Present elements as ``{flat offset: value}`` (checkpoint
        capture).  Monotone presence bits make this safe to call while
        workers are still writing: any flagged element has its value
        stored (write orders value before flag), and absent elements
        are simply not yet part of the cut.
        """
        out = {}
        for off in range(self.total):
            flag = self._flags[off]
            if flag != FLAG_ABSENT:
                out[off] = self._read_present(off, flag)
        return out

    def snapshot(self) -> list:
        """Host-side copy (absent -> None); call after workers finish."""
        present = self.dump()
        return [present.get(off) for off in range(self.total)]

    def to_value(self):
        """Materialize into a host-side ArrayValue."""
        from repro.runtime.values import ArrayValue

        return ArrayValue(self.dims, self.snapshot())

    def close(self) -> None:
        # Every view of the mapping must be released before closing the
        # segment: one left behind makes ``mmap.close()`` raise
        # ``BufferError`` and leaks the mapping.
        for view in (self._epochs, self._flags, self._floats, self._ints):
            view.release()
        self.shm.close()

    def unlink(self) -> None:
        unlink_segment(self.name)
