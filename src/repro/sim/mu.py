"""The Matching Unit (paper Section 5.1, Figure 7), with the Memory
Manager's frame operations.

Like every unit, plain functions over the machine ``M`` and a PE
(:mod:`repro.sim.machine`).  A token costs the MU's 15 us hash lookup.
The first matching token of a new context creates the SP instance, whose
frame the MM allocates (0.9 us).  A direct token, a local read's reply
and a remote reply fill a slot of a frame that exists, and wake what
waits on it.
"""

from __future__ import annotations

from typing import Any

from repro.runtime.frames import DONE, Frame
from repro.runtime.tokens import MatchToken, ReturnAddress
from repro.sim import decode
from repro.sim import timing as T

ROOT_UID = 0     # the host's frame: a token to it carries the result
UNSET = object()  # ``M.result`` before that token arrives


def enqueue(M, pe, token) -> None:
    if pe.halted:
        return
    done = M._serve(pe, "MU", T.MATCH_TOKEN)
    M.schedule(done, deliver, M, pe, token)


def deliver(M, pe, token) -> None:
    if pe.halted:
        return
    pe.stats.tokens_matched += 1
    if M.log is not None:
        M.log.token_match(M.now, pe.pid, token)
    if isinstance(token, MatchToken):
        key = (token.block_id, token.ctx)
        frame = pe.match_table.get(key)
        if frame is None:
            frame = create_frame(M, pe, token.block_id, token.ctx)
            pe.match_table[key] = frame
            frame.inputs_received += 1
            slot = M._inputs[token.block_id][token.input_index]
            frame.put(slot, token.value)
            pe.ready.append(frame)
            decode.kick(M, pe)
        else:
            frame.inputs_received += 1
            if frame.status == DONE:
                # Tombstone: the SP finished before this straggler
                # arrived; drop it and retire the entry once complete.
                M.late_tokens += 1
                if frame.inputs_received >= frame.inputs_expected:
                    pe.match_table.pop(key, None)
                return
            slot = M._inputs[token.block_id][token.input_index]
            put_slot(M, pe, frame, slot, token.value, "token-wait",
                     token.src_sp)
    else:  # DirectToken
        if token.frame_uid == ROOT_UID:
            M.result = token.value
            if M.log is not None:
                M.log.result(token.src_sp)
            return
        frame = M.frames.get(token.frame_uid)
        if frame is None or frame.status == DONE:
            M.late_tokens += 1
            return
        put_slot(M, pe, frame, token.slot, token.value, "token-wait",
                 token.src_sp)


def create_frame(M, pe, block_id: int, ctx: tuple) -> Frame:
    template = M.program.templates[block_id]
    uid = M._next_frame_uid
    M._next_frame_uid += 1
    frame = Frame(uid, block_id, ctx, pe.pid, template.num_slots,
                  name=template.name,
                  inputs_expected=len(template.inputs))
    frame.code = M._dcode[block_id]
    M.frames[uid] = frame
    M._serve(pe, "MM", T.MM_FRAME_OP)
    pe.stats.frames_created += 1
    pe.live_frames += 1
    if pe.live_frames > M.max_live_frames:
        M.max_live_frames = pe.live_frames
    if M.log is not None:
        M.log.sp_create(M.now, pe.pid, frame)
    return frame


def put_slot(M, pe, frame: Frame, slot: int, value: Any,
             cause: str = "net-queue", src: int | None = None) -> None:
    """Fill ``slot`` of ``frame``, which lives on ``pe``, and wake what
    waits on it.  Also the event that answers a local read
    (``am.read_local``), hence the halt test.  A frame leaves
    ``M.frames`` exactly when ``decode.end`` marks it DONE, so the DONE
    test here is :func:`deliver_waiter`'s "uid not found": a reply to an
    SP that has ended is one late token either way."""
    if pe.halted:
        return
    if frame.status == DONE:
        M.late_tokens += 1
        return
    woke = frame.put(slot, value)
    if woke:
        if M.log is not None:
            M.log.wake(M.now, frame.uid, cause, src)
        frame.make_ready()
        pe.ready.append(frame)
    suspended = pe.suspended_on
    if suspended is not None and suspended == (frame.uid, slot):
        pe.suspended_on = None
        if M.log is not None:
            M.log.stall_end(pe.pid, M.now)
        decode.kick(M, pe)
    elif woke:
        decode.kick(M, pe)


def deliver_waiter(M, waiter: ReturnAddress, value: Any,
                   cause: str = "net-queue", src: int | None = None) -> None:
    if M._halted and M.pes[waiter.pe].halted:
        return
    if waiter.frame_uid == ROOT_UID:
        M.result = value
        if M.log is not None:
            M.log.result(src)
        return
    frame = M.frames.get(waiter.frame_uid)
    if frame is None:
        M.late_tokens += 1
        return
    put_slot(M, M.pes[waiter.pe], frame, waiter.slot, value, cause, src)
