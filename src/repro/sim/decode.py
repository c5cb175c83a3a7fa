"""The Execution Unit (paper Section 5.1, Figure 7): its step and its
instruction handlers.

The EU runs the current SP control-driven, at the measured 80386/80387
instruction times, and context-switches (1.312 us) when an operand slot
is absent.  Like every unit it is plain functions over the machine ``M``
and a PE (:mod:`repro.sim.machine`): :func:`compile_eu` builds each PE's
step once per machine, :func:`kick` schedules it, :func:`block_on` parks
the running SP.

Everything about an SP instruction except its operand *values* is known
at translate time — the paper's point is precisely that this makes
run-time dispatch cheap — so :func:`decode_program` resolves it once per
template instead of once per execution.  Each instruction compiles to
one closure ``handler(M, pe, frame, t) -> (t2, frame_or_None)`` whose
cells hold the pre-resolved operand slot indices (``-1`` marks an
immediate), the bound scalar function, the float/int timing-cost pair,
and the successor pc.  The EU step runs a frame by calling
``frame.code[frame.pc]``; this module is the only place that maps
opcodes to behaviour (``tests/test_layering.py`` holds that).

The contract every handler keeps — it is the machine's, pinned by
``tests/sim/reference_fingerprint.json``:

* **Blocking order.**  Operand presence is tested against
  ``frame.present_mask`` in the order a, b, extra, then args; the
  handler blocks on the *first* absent operand, before any side effect.
* **Count before dispatch.**  ``stats.instructions`` is incremented once
  all operands are present and before the instruction acts, so an
  instruction that then blocks (header not installed, spawn budget
  exhausted) counts again when it re-executes.
* **Float accumulation order.**  ``busy["EU"] += cost`` then
  ``t + cost``; modeled times are compared with ``==``, so the order of
  additions is part of the behaviour.
* **Diagnostics.**  Error text names the template and the pc.

AREAD and AWRITE are compiled whole: the handler checks the operands,
looks the header up (blocking on it while the allocate broadcast is in
flight), computes the offset and decides locality at issue, against the
PE's own segment.  A local access schedules the Array Manager's
local-only event (``am.read_local`` / ``am.write_local``), a remote one
``am.read`` / ``am.write``.
"""

from __future__ import annotations

from functools import partial
from heapq import heappush
from operator import itemgetter
from typing import Callable

from repro.common.errors import ExecutionError
from repro.runtime.frames import DONE, READY, RUNNING
from repro.runtime.tokens import DirectToken, MatchToken, ReturnAddress
from repro.runtime.values import ArrayId
from repro.sim import am, ru
from repro.sim import timing as T
from repro.sim.timing import _BIN_COSTS, _UN_COSTS
from repro.translator import isa

_MOV_COST = T.MOV
_INT_ADD = T.INT_ADD
_INT_CMP = T.INT_CMP
_UNIT_SIGNAL = T.UNIT_SIGNAL
_ARRAY_ACCESS = T.LOCAL_ARRAY_ACCESS
_RFRANGE_COST = 2 * T.INT_CMP + 2 * T.INT_ADD + T.INT_MUL

# handler(M, pe, frame, t) -> (t2, frame | None)
Handler = Callable


def _operand(o) -> tuple[int, object]:
    """Pre-resolve one operand to ``(slot_index, constant)``.

    ``slot_index`` is ``-1`` for immediates *and* for missing a/b/extra
    fields, whose constant is ``None``.
    """
    if o is None:
        return -1, None
    if o[0] == "k":
        return -1, o[1]
    return o[1], None


def _arg_specs(instr: isa.Instr) -> tuple:
    return tuple(_operand(o) for o in instr.args)


def _index_plan(specs: tuple) -> tuple[int, Callable | None]:
    """An array access's subscripts, planned at decode time.

    ``need`` is the presence mask of every subscript slot.  ``pick``
    gathers the whole subscript tuple from the slots in one C call when
    every subscript is a slot and there are at least two (``itemgetter``
    returns a tuple then), else None: constants and rank 1 take the
    handler's operand loop.
    """
    ids = [i for i, _ in specs if i >= 0]
    need = 0
    for i in ids:
        need |= 1 << i
    pick = itemgetter(*ids) if len(ids) == len(specs) >= 2 else None
    return need, pick


# -- the EU step --------------------------------------------------------


def compile_eu(M, pe):
    """Build ``pe``'s Execution Unit step, once per machine.

    ``step(M, pe)`` runs the PE's EU until it idles, blocks the PE, or
    must yield to an earlier pending event.  Everything that cannot
    change during a run is a closure cell: the queue, the PE's stats and
    ready deque, the obs hooks, the context-switch cost.  What a fault or
    another unit can change between steps (``halted``, ``suspended_on``,
    ``degrade``, ``running``, ``eu_time``) is read from the PE on every
    step.  The machine and the PE arrive as the event's arguments, not as
    cells: a step that closed over them would tie every finished machine,
    arrays and all, into a reference cycle.

    Instructions dispatch through the frame's handler table.
    ``pe.degrade`` can only change in a ``_pe_degrade`` event, which
    cannot run mid-step, so it is read once per step, outside the
    instruction loop.
    """
    queue = M._queue
    log = M.log
    span = run_begin = run_end = None
    if log is not None and log.lines is not None:
        span = log.lines[pe.pid, "EU"].add
    if log is not None and log.sps is not None:
        run_begin, run_end = log.run_begin, log.run_end
    stats = pe.stats
    busy = stats.busy
    ready = pe.ready
    switch = T.CONTEXT_SWITCH

    def eu_step(M, pe) -> None:
        pe.eu_scheduled = False
        # An SP carried over a yield keeps its run segment open: a
        # resume at the yield instant continues it (what closing and
        # reopening records, since the log merges a run piece that
        # starts where the last one ended).  It is closed at the
        # yield, ``pe.eu_time``, only when something came between.
        frame = pe.running
        if pe.halted or pe.suspended_on is not None:
            if pe.halted and run_end is not None and frame is not None:
                run_end(frame.uid, pe.eu_time)
            return
        now = M.now
        t = pe.eu_time
        if now > t:
            if run_end is not None and frame is not None:
                # Resumed after a blocking-read suspension.
                run_end(frame.uid, t)
                run_begin(frame.uid, now)
            t = now
        # Inside one EU step the local clock advances only by busy
        # work (instruction costs and context switches), so
        # [t0, exit t] is exactly one busy interval of the EU
        # timeline.
        t0 = t
        degrade = pe.degrade

        while True:
            if frame is None:
                if not ready:
                    pe.eu_time = t
                    if span is not None and t > t0:
                        span(t0, t)
                    return
                frame = ready.popleft()
                if frame.status != READY:
                    frame = None
                    continue
                frame.status = RUNNING
                pe.running = frame
                if run_begin is not None:
                    # Ends the sched-queue wait; the context switch
                    # is charged to the SP's run time.
                    run_begin(frame.uid, t)
                t += switch
                busy["EU"] += switch
                stats.context_switches += 1
                continue

            # Never simulate the EU past a pending earlier event.
            # A same-time event still to run sits in the heap at
            # ``now`` and counts exactly when ``now < t``.
            if queue and queue[0][0] < t:
                pe.eu_scheduled = True
                pe.eu_time = t
                M._seq = seq = M._seq + 1
                heappush(queue, (t, seq, pe.eu_step, (M, pe)))
                if span is not None and t > t0:
                    span(t0, t)
                return

            # handler -> (new_time, frame_or_None); None means the
            # frame blocked or terminated and the EU must pick
            # another SP.
            t2, frame = frame.code[frame.pc](M, pe, frame, t)
            if degrade != 1.0 and t2 > t:
                # pe-degrade fault: the EU runs `degrade` times
                # slower; the extra time is busy time (the unit is
                # grinding).
                extra = (t2 - t) * (degrade - 1.0)
                busy["EU"] += extra
                t2 += extra
            t = t2
            if pe.suspended_on is not None:
                # Left open like a yield; the resume closes it.
                pe.eu_time = t
                if span is not None and t > t0:
                    span(t0, t)
                return

    return eu_step


def kick(M, pe) -> None:
    """Schedule ``pe``'s EU step if it has an SP to run — one ready, or
    the one it was running when a blocking-read stall ended — unless a
    step is pending or the PE is still stalled."""
    if (not pe.eu_scheduled and pe.suspended_on is None
            and (pe.running is not None or pe.ready)):
        pe.eu_scheduled = True
        M.schedule(max(M.now, pe.eu_time), pe.eu_step, M, pe)


def block_on(M, pe, frame, slot, t, header=None):
    """Block the running SP on its absent operand ``slot``, on the
    ``header`` of an array not installed here yet, or (both None) on its
    spawn budget; the EU picks another SP."""
    if header is None:
        frame.block_on_slot(slot)
    else:
        frame.block_on_header(header)
        pe.header_waiters.setdefault(header, []).append(frame)
    if M.log is not None:
        M.log.block(t, pe.pid, frame, slot)
    pe.running = None
    return t, None


# -- per-opcode compilers ----------------------------------------------
#
# Every compiler is called once per (pc, instr) at decode time and
# returns the run-time closure.  Presence checks read frame.present_mask
# and block via block_on on the first absent slot, in the order
# a, b, extra, then args.


def _c_bin(pc: int, instr: isa.Instr) -> Handler:
    next_pc = pc + 1
    dst = instr.dst
    fn = instr.fn
    func = isa.BINARY_FUNCS[fn]
    fcost, icost = _BIN_COSTS[fn]
    ai, ak = _operand(instr.a)
    bi, bk = _operand(instr.b)
    dst_bit = 1 << dst

    def h_bin(M, pe, frame, t):
        slots = frame._slots
        mask = frame.present_mask
        if ai >= 0:
            if not mask >> ai & 1:
                return block_on(M, pe, frame, ai, t)
            av = slots[ai]
        else:
            av = ak
        if bi >= 0:
            if not mask >> bi & 1:
                return block_on(M, pe, frame, bi, t)
            bv = slots[bi]
        else:
            bv = bk
        stats = pe.stats
        stats.instructions += 1
        cost = fcost if isinstance(av, float) or isinstance(bv, float) \
            else icost
        try:
            slots[dst] = func(av, bv)
        except TypeError as exc:
            raise ExecutionError(
                f"{frame.name} pc={pc}: {fn} on "
                f"{av!r}, {bv!r}: {exc}") from None
        frame.present_mask = mask | dst_bit
        frame.pc = next_pc
        stats.busy["EU"] += cost
        return t + cost, frame

    return h_bin


def _c_un(pc: int, instr: isa.Instr) -> Handler:
    next_pc = pc + 1
    dst = instr.dst
    fn = instr.fn
    func = isa.UNARY_FUNCS[fn]
    fcost, icost = _UN_COSTS[fn]
    ai, ak = _operand(instr.a)
    dst_bit = 1 << dst

    def h_un(M, pe, frame, t):
        slots = frame._slots
        mask = frame.present_mask
        if ai >= 0:
            if not mask >> ai & 1:
                return block_on(M, pe, frame, ai, t)
            av = slots[ai]
        else:
            av = ak
        stats = pe.stats
        stats.instructions += 1
        cost = fcost if isinstance(av, float) else icost
        try:
            slots[dst] = func(av)
        except (TypeError, ValueError) as exc:
            raise ExecutionError(
                f"{frame.name} pc={pc}: {fn} on {av!r}: "
                f"{exc}") from None
        frame.present_mask = mask | dst_bit
        frame.pc = next_pc
        stats.busy["EU"] += cost
        return t + cost, frame

    return h_un


def _c_mov(pc: int, instr: isa.Instr) -> Handler:
    next_pc = pc + 1
    dst = instr.dst
    ai, ak = _operand(instr.a)
    dst_bit = 1 << dst

    def h_mov(M, pe, frame, t):
        slots = frame._slots
        mask = frame.present_mask
        if ai >= 0:
            if not mask >> ai & 1:
                return block_on(M, pe, frame, ai, t)
            av = slots[ai]
        else:
            av = ak
        stats = pe.stats
        stats.instructions += 1
        slots[dst] = av
        frame.present_mask = mask | dst_bit
        frame.pc = next_pc
        stats.busy["EU"] += _MOV_COST
        return t + _MOV_COST, frame

    return h_mov


def _c_jump(pc: int, instr: isa.Instr) -> Handler:
    """JUMP, and NOP as a jump to the next instruction."""
    target = pc + 1 if instr.op == isa.NOP else instr.target

    def h_jump(M, pe, frame, t):
        stats = pe.stats
        stats.instructions += 1
        frame.pc = target
        stats.busy["EU"] += _INT_ADD
        return t + _INT_ADD, frame

    return h_jump


def _c_branch(pc: int, instr: isa.Instr, taken_if: bool) -> Handler:
    target = instr.target
    next_pc = pc + 1
    ai, ak = _operand(instr.a)

    def h_branch(M, pe, frame, t):
        mask = frame.present_mask
        if ai >= 0:
            if not mask >> ai & 1:
                return block_on(M, pe, frame, ai, t)
            av = frame._slots[ai]
        else:
            av = ak
        stats = pe.stats
        stats.instructions += 1
        frame.pc = target if bool(av) == taken_if else next_pc
        stats.busy["EU"] += _INT_CMP
        return t + _INT_CMP, frame

    return h_branch


def _c_sendr(pc: int, instr: isa.Instr) -> Handler:
    next_pc = pc + 1
    ai, ak = _operand(instr.a)
    bi, bk = _operand(instr.b)

    def h_sendr(M, pe, frame, t):
        slots = frame._slots
        mask = frame.present_mask
        if ai >= 0:
            if not mask >> ai & 1:
                return block_on(M, pe, frame, ai, t)
            raddr = slots[ai]
        else:
            raddr = ak
        if bi >= 0:
            if not mask >> bi & 1:
                return block_on(M, pe, frame, bi, t)
            bv = slots[bi]
        else:
            bv = bk
        stats = pe.stats
        stats.instructions += 1
        if not isinstance(raddr, ReturnAddress):
            raise ExecutionError(
                f"{frame.name} pc={pc}: SENDR target is not a "
                f"return address: {raddr!r}")
        M.schedule(t, ru.send_token, M, pe, raddr.pe,
                   DirectToken(raddr.frame_uid, raddr.slot, bv,
                               src_sp=frame.uid))
        frame.pc = next_pc
        stats.busy["EU"] += _INT_ADD
        return t + _INT_ADD, frame

    return h_sendr


def _c_alloc(pc: int, instr: isa.Instr) -> Handler:
    next_pc = pc + 1
    dst = instr.dst
    specs = _arg_specs(instr)

    def h_alloc(M, pe, frame, t):
        slots = frame._slots
        mask = frame.present_mask
        argvals = []
        for i, k in specs:
            if i >= 0:
                if not mask >> i & 1:
                    return block_on(M, pe, frame, i, t)
                argvals.append(slots[i])
            else:
                argvals.append(k)
        stats = pe.stats
        stats.instructions += 1
        frame.clear(dst)
        waiter = ReturnAddress(pe.pid, frame.uid, dst)
        M.schedule(t + _UNIT_SIGNAL, am.alloc, M, pe, tuple(argvals),
                   waiter)
        frame.pc = next_pc
        stats.busy["EU"] += _MOV_COST
        return t + _MOV_COST, frame

    return h_alloc


def _c_aread(pc: int, instr: isa.Instr) -> Handler:
    next_pc = pc + 1
    dst = instr.dst
    keep = ~(1 << dst)
    ai, ak = _operand(instr.a)
    specs = _arg_specs(instr)
    need, pick = _index_plan(specs)

    def h_aread(M, pe, frame, t):
        slots = frame._slots
        mask = frame.present_mask
        if ai >= 0:
            if not mask >> ai & 1:
                return block_on(M, pe, frame, ai, t)
            av = slots[ai]
        else:
            av = ak
        if pick is not None and mask & need == need:
            indices = pick(slots)
        else:
            indices = ()
            for i, k in specs:
                if i >= 0:
                    if not mask >> i & 1:
                        return block_on(M, pe, frame, i, t)
                    indices += (slots[i],)
                else:
                    indices += (k,)
        stats = pe.stats
        stats.instructions += 1
        if type(av) is not ArrayId:
            raise ExecutionError(
                f"{frame.name} pc={pc}: subscript applied to "
                f"non-array value {av!r}")
        aid = av.id
        header = pe.headers.get(aid)
        if header is None:
            # The allocate broadcast has not reached this PE yet.
            return block_on(M, pe, frame, None, t, aid)
        offset = header.offset(indices)  # may raise BoundsViolation
        frame.present_mask = mask & keep
        # A PE's header and segment are installed together.
        seg = pe.segments[aid]
        if seg.lo <= offset < seg.hi:
            M.schedule(t + _UNIT_SIGNAL, am.read_local, M, pe, seg, offset,
                       frame, dst)
        else:
            M.schedule(t + _UNIT_SIGNAL, am.read, M, pe, aid, offset,
                       ReturnAddress(pe.pid, frame.uid, dst))
        frame.pc = next_pc
        stats.busy["EU"] += _ARRAY_ACCESS
        return t + _ARRAY_ACCESS, frame

    return h_aread


def _c_awrite(pc: int, instr: isa.Instr) -> Handler:
    next_pc = pc + 1
    ai, ak = _operand(instr.a)
    bi, bk = _operand(instr.b)
    specs = _arg_specs(instr)
    need, pick = _index_plan(specs)

    def h_awrite(M, pe, frame, t):
        slots = frame._slots
        mask = frame.present_mask
        if ai >= 0:
            if not mask >> ai & 1:
                return block_on(M, pe, frame, ai, t)
            av = slots[ai]
        else:
            av = ak
        if bi >= 0:
            if not mask >> bi & 1:
                return block_on(M, pe, frame, bi, t)
            bv = slots[bi]
        else:
            bv = bk
        if pick is not None and mask & need == need:
            indices = pick(slots)
        else:
            indices = ()
            for i, k in specs:
                if i >= 0:
                    if not mask >> i & 1:
                        return block_on(M, pe, frame, i, t)
                    indices += (slots[i],)
                else:
                    indices += (k,)
        stats = pe.stats
        stats.instructions += 1
        if type(av) is not ArrayId:
            raise ExecutionError(
                f"{frame.name} pc={pc}: subscript applied to "
                f"non-array value {av!r}")
        aid = av.id
        header = pe.headers.get(aid)
        if header is None:
            return block_on(M, pe, frame, None, t, aid)
        offset = header.offset(indices)  # may raise BoundsViolation
        seg = pe.segments[aid]
        if seg.lo <= offset < seg.hi:
            M.schedule(t + _UNIT_SIGNAL, am.write_local, M, pe, seg, offset,
                       bv, frame.uid)
        else:
            M.schedule(t + _UNIT_SIGNAL, am.write, M, pe, aid, offset, bv,
                       frame.uid)
        frame.pc = next_pc
        stats.busy["EU"] += _ARRAY_ACCESS
        return t + _ARRAY_ACCESS, frame

    return h_awrite


def _c_rfrange(pc: int, instr: isa.Instr) -> Handler:
    next_pc = pc + 1
    dst, dst2 = instr.dst, instr.dst2
    dst_bits = (1 << dst) | (1 << dst2)
    descending, dim = instr.descending, instr.dim
    ai, ak = _operand(instr.a)
    bi, bk = _operand(instr.b)
    ei, ek = _operand(instr.extra)
    specs = _arg_specs(instr)

    def h_rfrange(M, pe, frame, t):
        slots = frame._slots
        mask = frame.present_mask
        if ai >= 0:
            if not mask >> ai & 1:
                return block_on(M, pe, frame, ai, t)
            av = slots[ai]
        else:
            av = ak
        if bi >= 0:
            if not mask >> bi & 1:
                return block_on(M, pe, frame, bi, t)
            bv = slots[bi]
        else:
            bv = bk
        if ei >= 0:
            if not mask >> ei & 1:
                return block_on(M, pe, frame, ei, t)
            ev = slots[ei]
        else:
            ev = ek
        argvals = []
        for i, k in specs:
            if i >= 0:
                if not mask >> i & 1:
                    return block_on(M, pe, frame, i, t)
                argvals.append(slots[i])
            else:
                argvals.append(k)
        pe.stats.instructions += 1
        if not isinstance(av, ArrayId):
            raise ExecutionError(
                f"{frame.name}: range filter on non-array {av!r}")
        header = pe.headers.get(av.id)
        if header is None:
            return block_on(M, pe, frame, None, t, av.id)
        first, last = header.filtered_range(
            pe.pid, bv, ev, descending=descending, fixed=tuple(argvals),
            dim=dim)
        if M.log is not None:
            M.log.rf(t, pe.pid, frame, instr, argvals, first, last)
        slots[dst] = first
        slots[dst2] = last
        frame.present_mask |= dst_bits
        frame.pc = next_pc
        pe.stats.busy["EU"] += _RFRANGE_COST
        return t + _RFRANGE_COST, frame

    return h_rfrange


def _c_spawn(pc: int, instr: isa.Instr) -> Handler:
    next_pc = pc + 1
    specs = _arg_specs(instr)
    block = instr.block
    distributed = instr.distributed
    result_slots = instr.result_slots

    def h_spawn(M, pe, frame, t):
        slots = frame._slots
        mask = frame.present_mask
        argvals = []
        for i, k in specs:
            if i >= 0:
                if not mask >> i & 1:
                    return block_on(M, pe, frame, i, t)
                argvals.append(slots[i])
            else:
                argvals.append(k)
        pe.stats.instructions += 1
        mc = M.mc
        budget = mc.spawn_budget
        counted = budget is not None and not distributed
        if counted and frame.outstanding_children >= budget:
            # k-bounded run-ahead: stall until one child retires.  No
            # side effects have happened yet, so the instruction simply
            # re-executes on wake (the END of a child).
            frame.budget_blocked = True
            return block_on(M, pe, frame, None, t)
        if counted:
            frame.outstanding_children += 1
            ctx = (frame.uid, frame.next_spawn_seq(), "b")
        else:
            ctx = (frame.uid, frame.next_spawn_seq())
        for rslot in result_slots:
            frame.clear(rslot)
        payload = list(argvals)
        for rslot in result_slots:
            payload.append(ReturnAddress(pe.pid, frame.uid, rslot))
        tokens = tuple(MatchToken(block, ctx, i, value, src_sp=frame.uid)
                       for i, value in enumerate(payload))
        if distributed and mc.num_pes > 1:
            # LD operator: replicate over all PEs via the binomial
            # spanning-tree broadcast (see BroadcastTokensMsg).
            M.schedule(t, ru.bcast_tokens, M, pe, pe.pid, tokens)
        else:
            dst = pe.pid
            if (mc.function_placement == "round_robin" and mc.num_pes > 1
                    and M._is_function.get(block, False)):
                # Functional parallelism: spread call-tree SPs over PEs.
                dst = M._spawn_rr % mc.num_pes
                M._spawn_rr += 1
            for token in tokens:
                M.schedule(t, ru.send_token, M, pe, dst, token)
        cost = _INT_ADD * max(1, len(payload))
        frame.pc = next_pc
        pe.stats.busy["EU"] += cost
        return t + cost, frame

    return h_spawn


def _c_end(pc: int, instr: isa.Instr) -> Handler:
    def h_end(M, pe, frame, t):
        stats = pe.stats
        stats.instructions += 1
        frame.status = DONE
        pe.running = None
        if M.log is not None:
            M.log.sp_end(t, pe.pid, frame)
        stats.frames_destroyed += 1
        pe.live_frames -= 1
        ctx = frame.ctx
        if len(ctx) == 3 and ctx[2] == "b":
            # Budget-counted child: release its parent's spawn slot.
            parent = M.frames.get(ctx[0])
            if parent is not None:
                parent.outstanding_children -= 1
                if parent.budget_blocked:
                    parent.budget_blocked = False
                    if M.log is not None:
                        # The retiring child freed the budget slot.
                        M.log.wake(t, parent.uid, "sched-queue", frame.uid)
                    parent.make_ready()
                    parent_pe = M.pes[parent.pe]
                    parent_pe.ready.append(parent)
                    kick(M, parent_pe)
        M._serve(pe, "MM", T.MM_FRAME_OP)
        M.frames.pop(frame.uid, None)
        if frame.inputs_received >= frame.inputs_expected:
            pe.match_table.pop((frame.block_id, frame.ctx), None)
        # else: keep the entry as a tombstone so straggler tokens match
        # it and get dropped (mu.deliver).
        return t, None

    return h_end


_COMPILERS: dict[int, Callable[[int, isa.Instr], Handler]] = {
    isa.MOV: _c_mov,
    isa.BIN: _c_bin,
    isa.UN: _c_un,
    isa.JUMP: _c_jump,
    isa.BRF: partial(_c_branch, taken_if=False),
    isa.BRT: partial(_c_branch, taken_if=True),
    isa.ALLOC: _c_alloc,
    isa.AREAD: _c_aread,
    isa.AWRITE: _c_awrite,
    isa.RFRANGE: _c_rfrange,
    isa.SPAWN: _c_spawn,
    isa.SENDR: _c_sendr,
    isa.END: _c_end,
    isa.NOP: _c_jump,
}


def compile_template(template: isa.SPTemplate) -> list[Handler]:
    """Compile one SP template into its flat dispatch table."""
    code: list[Handler] = []
    for pc, instr in enumerate(template.code):
        compiler = _COMPILERS.get(instr.op)
        if compiler is None:
            # A table entry that cannot be built is a translation bug,
            # so fail at decode rather than at execution.
            raise ExecutionError(f"unknown opcode {instr.op}")
        code.append(compiler(pc, instr))
    return code


def decode_program(program: isa.PodsProgram) -> dict[int, list[Handler]]:
    """block_id -> dispatch table, for every template in the program."""
    return {bid: compile_template(tmpl)
            for bid, tmpl in program.templates.items()}
