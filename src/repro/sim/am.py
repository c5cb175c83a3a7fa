"""The Array Manager (paper Section 5.1, Figure 7): I-structures in memory.

Like every unit, plain functions over the machine ``M`` and a PE
(:mod:`repro.sim.machine`).  The AM allocates arrays (the distributing
allocate broadcasts the header to every PE), serves the AREAD and AWRITE
the EU issued — locally, or as a split-phase request to the owner whose
page reply it keeps as a copy — and defers a read of an element not yet
written until its write.  ``read_request``, ``page_response``,
``value_response``, ``receive_write`` and ``receive_alloc`` take a
message off the wire.
"""

from __future__ import annotations

from typing import Any

from repro.common.errors import ExecutionError
from repro.runtime.arrays import ArrayHeader, check_extents
from repro.runtime.frames import BLOCKED
from repro.runtime.istructure import IStructureSegment
from repro.runtime.tokens import (
    AllocRequestMsg,
    PageResponseMsg,
    ReadRequestMsg,
    RemoteWriteMsg,
    ReturnAddress,
    ValueResponseMsg,
)
from repro.runtime.values import ArrayId
from repro.sim import decode, mu, ru
from repro.sim import timing as T

# Service times of a local read: present, deferred.
_LOCAL_READ = T.MEM_READ + T.UNIT_SIGNAL
_DEFERRED_READ = T.MEM_READ + T.ENQUEUED_READ


def alloc(M, pe, dims: tuple, waiter: ReturnAddress) -> None:
    if pe.halted:
        return
    aid = M._next_array_id
    M._next_array_id += 1
    check_extents(dims)
    done = M._serve(pe, "AM", T.am_allocate())
    M.schedule(done, install_header, M, pe, aid, dims)
    M.schedule(done, mu.deliver_waiter, M, waiter, ArrayId(aid))
    for other in M.pes:
        if other.pid != pe.pid:
            msg = AllocRequestMsg(pe.pid, other.pid, aid, dims)
            M.schedule(done, ru.send_msg, M, pe, msg)


def receive_alloc(M, msg: AllocRequestMsg) -> None:
    """Another PE's allocate broadcast: install the header in this AM's
    own allocate time."""
    pe = M.pes[msg.dst_pe]
    if pe.halted:
        return
    done = M._serve(pe, "AM", T.am_allocate())
    M.schedule(done, install_header, M, pe, msg.array_id, msg.dims)


def install_header(M, pe, aid: int, dims: tuple) -> None:
    if pe.halted or aid in pe.headers:
        return
    header = ArrayHeader(aid, tuple(dims), M.mc.page_size, M.mc.num_pes)
    pe.headers[aid] = header
    lo, hi = header.segment_bounds(pe.pid)
    seg = pe.segments[aid] = IStructureSegment(aid, lo, hi)
    if M._restore is not None:
        entry = M._restore.array(aid)
        if entry is not None:
            ck_dims, elements = entry
            if tuple(ck_dims) != tuple(dims):
                raise ExecutionError(
                    f"checkpoint array {aid} has dims {ck_dims}, "
                    f"this run allocates {tuple(dims)} — program or "
                    "arguments differ from the checkpointed run")
            for off, value in elements.items():
                if lo <= off < hi:
                    seg.seed(off, value)
    waiters = pe.header_waiters.pop(aid, None)
    if waiters:
        for frame in waiters:
            if frame.status == BLOCKED and frame.waiting_header == aid:
                if M.log is not None:
                    M.log.wake(M.now, frame.uid, "net-queue", None)
                frame.make_ready()
                pe.ready.append(frame)
        decode.kick(M, pe)


def read_local(M, pe, seg: IStructureSegment, offset: int, frame,
               slot: int) -> None:
    """Serve an AREAD of an element this PE holds (the EU decided
    locality at issue).  A present element's value goes straight into
    ``frame``.  An absent one parks a ``ReturnAddress``: a segment queues
    one waiter type, since a deferred remote read parks its reader's
    here too, and the write wakes each by ``waiter.pe``
    (:func:`write_local`)."""
    if pe.halted:
        return
    pe.stats.array_reads_local += 1
    value = seg.get(offset)
    if value is not None:
        done = M._serve(pe, "AM", _LOCAL_READ)
        M.schedule(done, mu.put_slot, M, pe, frame, slot, value)
    else:
        M._serve(pe, "AM", _DEFERRED_READ)
        seg.defer(offset, ReturnAddress(pe.pid, frame.uid, slot))
        pe.stats.deferred_local += 1


def read(M, pe, aid: int, offset: int, waiter: ReturnAddress) -> None:
    """Serve an AREAD of an element another PE holds: this PE's copy of
    its page, else a split-phase request to the owner."""
    if pe.halted:
        return
    pe.stats.array_reads_remote += 1
    header = pe.headers[aid]
    mc = M.mc
    if mc.cache_enabled:
        copy = pe.copies.get((aid, header.page_of(offset)))
        value = None if copy is None else copy.get(offset)
        if value is not None:
            pe.stats.cache_hits += 1
            done = M._serve(pe, "AM", T.am_cached_read(True))
            M.schedule(done, mu.deliver_waiter, M, waiter, value)
            return
        pe.stats.cache_misses += 1
    done = M._serve(pe, "AM", T.am_cached_read(False))
    owner = header.owner_of_offset(offset)
    if M.log is not None:
        M.log.remote_read(M.now, pe.pid, aid, offset, owner,
                          waiter.frame_uid)
    msg = ReadRequestMsg(pe.pid, owner, aid, offset, waiter)
    M.schedule(done, ru.send_msg, M, pe, msg)
    if not mc.split_phase_reads:
        # Ablation / P&R-style behaviour: the PE stalls on this very
        # read (no latency hiding).  The stall is bounded by one full
        # round trip so that reads of not-yet-written elements — true
        # dataflow dependencies — cannot deadlock the whole PE: after
        # the bound the EU yields to other SPs.
        key = (waiter.frame_uid, waiter.slot)
        pe.suspended_on = key
        if M.log is not None:
            M.log.stall_begin(pe.pid, M.now)
        bound = 2.0 * T.message_latency(32) + T.message_latency(
            mc.page_size * mc.element_bytes + 32)
        M.schedule(M.now + bound, suspend_timeout, M, pe, key)


def suspend_timeout(M, pe, key: tuple) -> None:
    if pe.suspended_on == key:
        pe.suspended_on = None
        if M.log is not None:
            M.log.stall_end(pe.pid, M.now)
        decode.kick(M, pe)


def read_request(M, msg: ReadRequestMsg) -> None:
    """The owner's side of a remote read: ship the element's page if it
    is present, else defer the reader until the write."""
    pe = M.pes[msg.dst_pe]
    if pe.halted:
        return
    seg = pe.segments.get(msg.array_id)
    if seg is None:
        # The allocate broadcast has not reached this PE yet: retry
        # after it lands (headers install in bounded time).
        M.schedule(M.now + T.ALLOC_ARRAY, read_request, M, msg)
        return
    if seg.get(msg.offset) is not None:
        header = pe.headers[msg.array_id]
        page = header.page_of(msg.offset)
        page_lo = max(page * header.page_size, seg.lo)
        page_hi = min((page + 1) * header.page_size, seg.hi)
        cells = seg.snapshot_page(page_lo, page_hi)
        done = M._serve(pe, "AM", T.am_send_page(len(cells)))
        pe.stats.pages_sent += 1
        reply = PageResponseMsg(
            pe.pid, msg.src_pe, msg.array_id, page, page_lo,
            tuple(cells), msg.offset, msg.waiter,
            element_bytes=M.mc.element_bytes,
        )
        M.schedule(done, ru.send_msg, M, pe, reply)
    else:
        M._serve(pe, "AM", T.am_remote_read(True))
        seg.defer(msg.offset, msg.waiter)
        pe.stats.deferred_remote += 1


def _copy(pe, aid: int, page: int) -> IStructureSegment:
    """This PE's copy of another PE's page, empty until the first page or
    value lands in it.  A copy only gains values: single assignment
    means a copied element is never stale, so a page snapshot and a
    value reply each fill absent cells, in whichever order they land
    (Section 4's caching without coherence traffic)."""
    copy = pe.copies.get((aid, page))
    if copy is None:
        header = pe.headers[aid]
        lo = page * header.page_size
        hi = min(lo + header.page_size, header.total_elements)
        copy = pe.copies[aid, page] = IStructureSegment(aid, lo, hi)
    return copy


def page_response(M, msg: PageResponseMsg) -> None:
    pe = M.pes[msg.dst_pe]
    if pe.halted:
        return
    done = M._serve(pe, "AM", T.am_receive_page(len(msg.cells)))
    if M.mc.cache_enabled:
        _copy(pe, msg.array_id, msg.page).fill(msg.page_lo, msg.cells)
    value = msg.cells[msg.offset - msg.page_lo]
    if value is None:
        raise ExecutionError(
            "page response does not contain the requested element "
            f"(array {msg.array_id} offset {msg.offset})")
    M.schedule(done, mu.deliver_waiter, M, msg.waiter, value,
               "remote-read", None)


def value_response(M, msg: ValueResponseMsg) -> None:
    pe = M.pes[msg.dst_pe]
    if pe.halted:
        return
    done = M._serve(pe, "AM", T.MEM_WRITE)
    if M.mc.cache_enabled:
        page = pe.headers[msg.array_id].page_of(msg.offset)
        _copy(pe, msg.array_id, page).fill(msg.offset, [msg.value])
    M.schedule(done, mu.deliver_waiter, M, msg.waiter, msg.value,
               "istructure-defer", msg.src_sp)


def write(M, pe, aid: int, offset: int, value: Any,
          writer: int | None) -> None:
    """Serve an AWRITE this PE's EU found remote, or one forwarded to it
    (a ``RemoteWriteMsg``, whose header may still be in flight)."""
    if pe.halted:
        return
    header = pe.headers.get(aid)
    if header is None:
        M.schedule(M.now + T.ALLOC_ARRAY, write, M, pe, aid, offset, value,
                   writer)
        return
    seg = pe.segments[aid]
    if seg.lo <= offset < seg.hi:
        write_local(M, pe, seg, offset, value, writer)
        return
    # Index-space responsibility differs from data ownership: forward
    # the write to the owner (the remote writes of Section 4.2.3).
    pe.stats.array_writes_remote += 1
    done = M._serve(pe, "AM", T.MEM_WRITE + T.UNIT_SIGNAL)
    owner = header.owner_of_offset(offset)
    msg = RemoteWriteMsg(pe.pid, owner, aid, offset, value, src_sp=writer)
    M.schedule(done, ru.send_msg, M, pe, msg)


def receive_write(M, msg: RemoteWriteMsg) -> None:
    write(M, M.pes[msg.dst_pe], msg.array_id, msg.offset, msg.value,
          msg.src_sp)


def write_local(M, pe, seg: IStructureSegment, offset: int, value: Any,
                writer: int | None) -> None:
    """Store an element this PE holds and wake its deferred readers.  A
    resumed run recomputing a checkpointed element finds it present:
    single assignment says the value is the same, and the segment
    verifies it (a pre-seeded element never has deferred readers)."""
    if pe.halted:
        return
    aid = seg.array_id
    pe.stats.array_writes_local += 1
    if M.log is not None:
        M.log.page_touch(aid, pe.headers[aid].page_of(offset))
    woken = seg.write(offset, value, M._replay)  # may raise
    if woken is None:
        M.replayed_present += 1
        M._serve(pe, "AM", T.am_array_write(0))
        return
    done = M._serve(pe, "AM", T.am_array_write(len(woken)))
    for waiter in woken:
        if waiter.pe == pe.pid:
            M.schedule(done, mu.deliver_waiter, M, waiter, value,
                       "istructure-defer", writer)
        else:
            reply = ValueResponseMsg(pe.pid, waiter.pe, aid, offset, value,
                                     waiter, src_sp=writer)
            M.schedule(done, ru.send_msg, M, pe, reply)
