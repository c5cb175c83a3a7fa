"""The EU's instruction decoder: SP templates compiled to handler tables.

Everything about an SP instruction except its operand *values* is known
at translate time — the paper's point is precisely that this makes
run-time dispatch cheap — so :func:`decode_program` resolves it once per
template instead of once per execution.  Each instruction compiles to
one closure ``handler(M, pe, frame, t) -> (t2, frame_or_None)`` whose
cells hold the pre-resolved operand slot indices (``-1`` marks an
immediate), the bound scalar function, the float/int timing-cost pair,
and the successor pc.  Each PE's compiled EU step
(:meth:`Machine._compile_eu`) runs a frame by calling
``frame.code[frame.pc]``; this module is the only place that maps
opcodes to behaviour (``tests/test_layering.py`` holds that).

The contract every handler keeps — it is the machine's, pinned by
``tests/sim/reference_fingerprint.json``:

* **Blocking order.**  Operand presence is tested against
  ``frame.present_mask`` in the order a, b, extra, then args; the
  handler blocks on the *first* absent operand, before any side effect.
* **Count before dispatch.**  ``stats.instructions`` is incremented once
  all operands are present and before the instruction acts, so an
  instruction that then blocks inside a split-phase helper (header not
  installed, spawn budget exhausted) counts again when it re-executes.
* **Float accumulation order.**  ``busy["EU"] += cost`` then
  ``t + cost``; modeled times are compared with ``==``, so the order of
  additions is part of the behaviour.
* **Diagnostics.**  Error text names the template and the pc.

AREAD and AWRITE are compiled whole: the handler checks the operands,
looks the header up (blocking on it while the allocate broadcast is in
flight), computes the offset and decides locality at issue, against the
PE's own segment.  A local access schedules the Array Manager's
local-only event (``Machine._am_read_local`` / ``_am_write_local``), a
remote one ``_am_read`` / ``_am_write``.  The complex opcodes RFRANGE,
SPAWN and END keep their side-effect logic in the ``Machine._eu_*``
helpers; only their decode/presence front end is compiled here.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable

from repro.common.errors import ExecutionError
from repro.runtime.tokens import DirectToken, ReturnAddress
from repro.runtime.values import ArrayId
from repro.sim.timing import _BIN_COSTS, _UN_COSTS
from repro.translator import isa

from repro.sim import timing as T

_MOV_COST = T.MOV
_INT_ADD = T.INT_ADD
_INT_CMP = T.INT_CMP
_UNIT_SIGNAL = T.UNIT_SIGNAL
_ARRAY_ACCESS = T.LOCAL_ARRAY_ACCESS

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


# -- per-opcode compilers ----------------------------------------------
#
# Every compiler is called once per (pc, instr) at decode time and
# returns the run-time closure.  Presence checks read frame.present_mask
# and block via M._block_on on the first absent slot, in the order
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
                return M._block_on(pe, frame, ai, t)
            av = slots[ai]
        else:
            av = ak
        if bi >= 0:
            if not mask >> bi & 1:
                return M._block_on(pe, frame, bi, t)
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
                return M._block_on(pe, frame, ai, t)
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
                return M._block_on(pe, frame, ai, t)
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
    target = instr.target

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
                return M._block_on(pe, frame, ai, t)
            av = frame._slots[ai]
        else:
            av = ak
        stats = pe.stats
        stats.instructions += 1
        frame.pc = target if bool(av) == taken_if else next_pc
        stats.busy["EU"] += _INT_CMP
        return t + _INT_CMP, frame

    return h_branch


def _c_brf(pc: int, instr: isa.Instr) -> Handler:
    return _c_branch(pc, instr, False)


def _c_brt(pc: int, instr: isa.Instr) -> Handler:
    return _c_branch(pc, instr, True)


def _c_nop(pc: int, instr: isa.Instr) -> Handler:
    next_pc = pc + 1

    def h_nop(M, pe, frame, t):
        stats = pe.stats
        stats.instructions += 1
        frame.pc = next_pc
        stats.busy["EU"] += _INT_ADD
        return t + _INT_ADD, frame

    return h_nop


def _c_sendr(pc: int, instr: isa.Instr) -> Handler:
    next_pc = pc + 1
    ai, ak = _operand(instr.a)
    bi, bk = _operand(instr.b)

    def h_sendr(M, pe, frame, t):
        slots = frame._slots
        mask = frame.present_mask
        if ai >= 0:
            if not mask >> ai & 1:
                return M._block_on(pe, frame, ai, t)
            raddr = slots[ai]
        else:
            raddr = ak
        if bi >= 0:
            if not mask >> bi & 1:
                return M._block_on(pe, frame, bi, t)
            bv = slots[bi]
        else:
            bv = bk
        stats = pe.stats
        stats.instructions += 1
        if not isinstance(raddr, ReturnAddress):
            raise ExecutionError(
                f"{frame.name} pc={pc}: SENDR target is not a "
                f"return address: {raddr!r}")
        M.schedule(t, M._send_token, pe, raddr.pe,
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
                    return M._block_on(pe, frame, i, t)
                argvals.append(slots[i])
            else:
                argvals.append(k)
        stats = pe.stats
        stats.instructions += 1
        frame.clear(dst)
        waiter = ReturnAddress(pe.pid, frame.uid, dst)
        M.schedule(t + _UNIT_SIGNAL, M._am_alloc, pe, tuple(argvals),
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
                return M._block_on(pe, frame, ai, t)
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
                        return M._block_on(pe, frame, i, t)
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
            return M._block_on_header(pe, frame, aid, t)
        offset = header.offset(indices)  # may raise BoundsViolation
        frame.present_mask = mask & keep
        # A PE's header and segment are installed together.
        seg = pe.segments[aid]
        if seg.lo <= offset < seg.hi:
            M.schedule(t + _UNIT_SIGNAL, M._am_read_local, pe, seg, offset,
                       frame, dst)
        else:
            M.schedule(t + _UNIT_SIGNAL, M._am_read, pe, aid, offset,
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
                return M._block_on(pe, frame, ai, t)
            av = slots[ai]
        else:
            av = ak
        if bi >= 0:
            if not mask >> bi & 1:
                return M._block_on(pe, frame, bi, t)
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
                        return M._block_on(pe, frame, i, t)
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
            return M._block_on_header(pe, frame, aid, t)
        offset = header.offset(indices)  # may raise BoundsViolation
        seg = pe.segments[aid]
        if seg.lo <= offset < seg.hi:
            M.schedule(t + _UNIT_SIGNAL, M._am_write_local, pe, seg, offset,
                       bv, frame.uid)
        else:
            M.schedule(t + _UNIT_SIGNAL, M._am_write, pe, aid, offset, bv,
                       False, frame.uid)
        frame.pc = next_pc
        stats.busy["EU"] += _ARRAY_ACCESS
        return t + _ARRAY_ACCESS, frame

    return h_awrite


def _c_rfrange(pc: int, instr: isa.Instr) -> Handler:
    ai, ak = _operand(instr.a)
    bi, bk = _operand(instr.b)
    ei, ek = _operand(instr.extra)
    specs = _arg_specs(instr)

    def h_rfrange(M, pe, frame, t):
        slots = frame._slots
        mask = frame.present_mask
        if ai >= 0:
            if not mask >> ai & 1:
                return M._block_on(pe, frame, ai, t)
            av = slots[ai]
        else:
            av = ak
        if bi >= 0:
            if not mask >> bi & 1:
                return M._block_on(pe, frame, bi, t)
            bv = slots[bi]
        else:
            bv = bk
        if ei >= 0:
            if not mask >> ei & 1:
                return M._block_on(pe, frame, ei, t)
            ev = slots[ei]
        else:
            ev = ek
        argvals = []
        for i, k in specs:
            if i >= 0:
                if not mask >> i & 1:
                    return M._block_on(pe, frame, i, t)
                argvals.append(slots[i])
            else:
                argvals.append(k)
        pe.stats.instructions += 1
        return M._eu_rfrange(pe, frame, instr, av, bv, ev, argvals, t)

    return h_rfrange


def _c_spawn(pc: int, instr: isa.Instr) -> Handler:
    specs = _arg_specs(instr)

    def h_spawn(M, pe, frame, t):
        slots = frame._slots
        mask = frame.present_mask
        argvals = []
        for i, k in specs:
            if i >= 0:
                if not mask >> i & 1:
                    return M._block_on(pe, frame, i, t)
                argvals.append(slots[i])
            else:
                argvals.append(k)
        pe.stats.instructions += 1
        return M._eu_spawn(pe, frame, instr, argvals, t)

    return h_spawn


def _c_end(pc: int, instr: isa.Instr) -> Handler:
    def h_end(M, pe, frame, t):
        pe.stats.instructions += 1
        return M._eu_end(pe, frame, t)

    return h_end


_COMPILERS: dict[int, Callable[[int, isa.Instr], Handler]] = {
    isa.MOV: _c_mov,
    isa.BIN: _c_bin,
    isa.UN: _c_un,
    isa.JUMP: _c_jump,
    isa.BRF: _c_brf,
    isa.BRT: _c_brt,
    isa.ALLOC: _c_alloc,
    isa.AREAD: _c_aread,
    isa.AWRITE: _c_awrite,
    isa.RFRANGE: _c_rfrange,
    isa.SPAWN: _c_spawn,
    isa.SENDR: _c_sendr,
    isa.END: _c_end,
    isa.NOP: _c_nop,
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
