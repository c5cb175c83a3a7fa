"""The PODS Translator: code blocks -> Subcompact Processes.

Lowers each dataflow code block into a sequential SP template (paper
Section 3): instructions are laid out "according to dataflow arcs such
that no instruction depends on data generated by an instruction lower in
the sequence" (the builder's region order already satisfies this and the
graph validator enforces it); loop circulation (switch / increment / D
operators of Figure 2) becomes a program-counter skeleton; k-bounded-loop
synchronization instructions are never generated in the first place —
sequential execution within the SP subsumes them.

Frame layout per block:

* one slot per non-constant definition (constants become immediate
  operands);
* token inputs: block params, then return-address slots (one per carried
  variable for loops; exactly one for functions);
* loops add: ``first``/``last`` bound slots, and one *shadow* slot per
  carried variable.  ``next`` writes the shadow; the skeleton copies
  carried->shadow at the top of each iteration and shadow->carried at the
  bottom, giving Id's all-updates-see-old-values semantics.

If the Partitioner marked a loop distributed, its prologue computes the
clamped bounds with a single RFRANGE instruction (the "modified Range
Filter" of Figure 5 — the index-generation subgraph is replaced rather
than filtering discrete index tokens).
"""

from __future__ import annotations

from repro.common.errors import TranslationError
from repro.graph import ir
from repro.translator import isa


class _Lower:
    """Lowers one code block to one SP template."""

    def __init__(self, graph: ir.ProgramGraph, block: ir.CodeBlock) -> None:
        self.graph = graph
        self.block = block
        self.slots: dict[int, int] = {}
        self.num_slots = 0
        self.code: list[isa.Instr] = []

    # -- slots ----------------------------------------------------------

    def new_slot(self) -> int:
        s = self.num_slots
        self.num_slots += 1
        return s

    def slot_of(self, vid: int) -> int:
        s = self.slots.get(vid)
        if s is None:
            s = self.slots[vid] = self.num_slots
            self.num_slots = s + 1
        return s

    def operand(self, vid: int) -> isa.Operand:
        d = self.block.defs[vid]
        if type(d) is ir.ConstDef:
            return ("k", d.value)
        s = self.slots.get(vid)
        if s is None:
            s = self.slots[vid] = self.num_slots
            self.num_slots = s + 1
        return ("s", s)

    # -- emission ---------------------------------------------------------

    def emit(self, instr: isa.Instr) -> int:
        self.code.append(instr)
        return len(self.code) - 1

    def here(self) -> int:
        return len(self.code)

    # -- top level ----------------------------------------------------------

    def lower(self) -> isa.SPTemplate:
        block = self.block
        # Allocate slots for params first so input positions are stable.
        param_slots = [self.slot_of(v) for v in block.param_vids()]

        if block.kind == ir.FUNCTION:
            raddr_slots = [self.new_slot()]
            self._lower_function(raddr_slots[0])
        elif block.kind == ir.FOR:
            raddr_slots = [self.new_slot() for _ in block.carried_names]
            self._lower_for(raddr_slots)
        elif block.kind == ir.WHILE:
            raddr_slots = [self.new_slot() for _ in block.carried_names]
            self._lower_while(raddr_slots)
        else:
            raise TranslationError(f"unknown block kind {block.kind!r}")

        return isa.SPTemplate(
            block_id=block.block_id,
            name=block.name,
            kind="function" if block.kind == ir.FUNCTION else "loop",
            code=self.code,
            num_slots=self.num_slots,
            inputs=tuple(param_slots + raddr_slots),
            source=block.describe(),
        )

    def _lower_function(self, raddr_slot: int) -> None:
        self.emit_region(self.block.body, raddr_slot)
        # Implicit epilogue for paths that fall off the end (semantic
        # analysis guarantees a top-level return, so this is unreachable
        # for user code, but keeps every path END-terminated).
        self.emit(isa.Instr(isa.SENDR, a=isa.slot(raddr_slot),
                            b=isa.const(0), comment="implicit return 0"))
        self.emit(isa.Instr(isa.END))

    # -- loop skeletons -------------------------------------------------------

    def _lower_for(self, raddr_slots: list[int]) -> None:
        block = self.block
        assert block.index_vid is not None
        idx = self.slot_of(block.index_vid)
        first = self.new_slot()
        last = self.new_slot()
        init_op = self.operand(block.init_param)
        limit_op = self.operand(block.limit_param)

        if block.distributed and block.range_filter is not None:
            rf = block.range_filter
            self.emit(isa.Instr(
                isa.RFRANGE, dst=first, dst2=last,
                a=self.operand(rf.array_vid),
                args=tuple(map(self.operand, rf.fixed_vids)),
                b=init_op, extra=limit_op,
                dim=rf.dim, descending=block.descending,
                comment="range filter",
            ))
        else:
            self.emit(isa.Instr(isa.MOV, dst=first, a=init_op))
            self.emit(isa.Instr(isa.MOV, dst=last, a=limit_op))

        self.emit(isa.Instr(isa.MOV, dst=idx, a=isa.slot(first),
                            comment=f"index {block.defs[block.index_vid].name}"))
        cond = self.new_slot()
        shadow = self._carried_shadow_slots()

        loop_top = self.here()
        test_fn = "ge" if block.descending else "le"
        self.emit(isa.Instr(isa.BIN, dst=cond, fn=test_fn,
                            a=isa.slot(idx), b=isa.slot(last)))
        exit_branch = self.emit(isa.Instr(isa.BRF, a=isa.slot(cond)))

        self._copy_carried_to_shadow(shadow)
        self.emit_region(block.body, raddr_slot=None, shadow=shadow)
        self._copy_shadow_to_carried(shadow)

        step_fn = "sub" if block.descending else "add"
        self.emit(isa.Instr(isa.BIN, dst=idx, fn=step_fn,
                            a=isa.slot(idx), b=isa.const(1)))
        self.emit(isa.Instr(isa.JUMP, target=loop_top))

        self.code[exit_branch].target = self.here()
        self._loop_epilogue(raddr_slots)

    def _lower_while(self, raddr_slots: list[int]) -> None:
        block = self.block
        shadow = self._carried_shadow_slots()

        loop_top = self.here()
        self.emit_region(block.cond_region, raddr_slot=None, shadow=shadow)
        exit_branch = self.emit(
            isa.Instr(isa.BRF, a=self.operand(block.cond_vid)))

        self._copy_carried_to_shadow(shadow)
        self.emit_region(block.body, raddr_slot=None, shadow=shadow)
        self._copy_shadow_to_carried(shadow)
        self.emit(isa.Instr(isa.JUMP, target=loop_top))

        self.code[exit_branch].target = self.here()
        self._loop_epilogue(raddr_slots)

    def _carried_shadow_slots(self) -> list[int]:
        return [self.new_slot() for _ in self.block.carried_names]

    def _copy_carried_to_shadow(self, shadow: list[int]) -> None:
        for k, vid in enumerate(self.block.carried_params):
            self.emit(isa.Instr(isa.MOV, dst=shadow[k],
                                a=isa.slot(self.slot_of(vid)),
                                comment=f"carry {self.block.carried_names[k]}"))

    def _copy_shadow_to_carried(self, shadow: list[int]) -> None:
        for k, vid in enumerate(self.block.carried_params):
            self.emit(isa.Instr(isa.MOV, dst=self.slot_of(vid),
                                a=isa.slot(shadow[k])))

    def _loop_epilogue(self, raddr_slots: list[int]) -> None:
        for k, vid in enumerate(self.block.carried_params):
            self.emit(isa.Instr(
                isa.SENDR, a=isa.slot(raddr_slots[k]),
                b=isa.slot(self.slot_of(vid)),
                comment=f"loop result {self.block.carried_names[k]}",
            ))
        self.emit(isa.Instr(isa.END))

    # -- regions ---------------------------------------------------------------

    def emit_region(self, region: ir.Region, raddr_slot: int | None,
                    shadow: list[int] | None = None) -> None:
        for item in region:
            emit = _EMIT_ITEM.get(type(item))
            if emit is None:
                raise TranslationError(f"unknown item {type(item).__name__}")
            emit(self, item, raddr_slot, shadow)

    def _emit_compute_item(self, item: ir.ComputeItem, raddr_slot: int | None,
                           shadow: list[int] | None) -> None:
        vid = item.vid
        d = self.block.defs[vid]
        emit = _EMIT_DEF.get(type(d))
        if emit is None:
            raise TranslationError(
                f"cannot compute def {type(d).__name__} (v{vid})")
        emit(self, d, self.slot_of(vid))

    def _emit_write(self, item: ir.WriteItem, raddr_slot: int | None,
                    shadow: list[int] | None) -> None:
        self.emit(isa.Instr(
            isa.AWRITE, a=self.operand(item.array),
            args=tuple(map(self.operand, item.indices)),
            b=self.operand(item.value),
        ))

    def _emit_invoke(self, item: ir.InvokeItem, raddr_slot: int | None,
                     shadow: list[int] | None) -> None:
        self.emit(isa.Instr(
            isa.SPAWN, block=item.block,
            args=tuple(map(self.operand, item.args)),
            result_slots=tuple(map(self.slot_of, item.results)),
            distributed=item.distributed,
            comment="LD" if item.distributed else "L",
        ))

    def _emit_next(self, item: ir.NextItem, raddr_slot: int | None,
                   shadow: list[int] | None) -> None:
        if shadow is None:
            raise TranslationError("next outside loop skeleton")
        self.emit(isa.Instr(
            isa.MOV, dst=shadow[item.carried_index],
            a=self.operand(item.value),
            comment=f"next {self.block.carried_names[item.carried_index]}",
        ))

    def _emit_return(self, item: ir.ReturnItem, raddr_slot: int | None,
                     shadow: list[int] | None) -> None:
        if raddr_slot is None:
            raise TranslationError("return outside function block")
        self.emit(isa.Instr(isa.SENDR, a=isa.slot(raddr_slot),
                            b=self.operand(item.value)))
        self.emit(isa.Instr(isa.END))

    def _emit_op(self, d: ir.OpDef, dst: int) -> None:
        args = d.args
        if len(args) == 2:
            self.emit(isa.Instr(isa.BIN, dst=dst, fn=d.fn,
                                a=self.operand(args[0]),
                                b=self.operand(args[1])))
        elif len(args) == 1:
            self.emit(isa.Instr(isa.UN, dst=dst, fn=d.fn,
                                a=self.operand(args[0])))
        else:
            raise TranslationError(f"op {d.fn} arity {len(args)}")

    def _emit_alloc(self, d: ir.AllocDef, dst: int) -> None:
        self.emit(isa.Instr(
            isa.ALLOC, dst=dst,
            args=tuple(map(self.operand, d.dims)),
            distributed=d.distributed, comment=d.name,
        ))

    def _emit_read(self, d: ir.ReadDef, dst: int) -> None:
        self.emit(isa.Instr(
            isa.AREAD, dst=dst, a=self.operand(d.array),
            args=tuple(map(self.operand, d.indices)),
        ))

    def _emit_call(self, d: ir.CallDef, dst: int) -> None:
        callee = self.graph.functions.get(d.fn)
        if callee is None:
            raise TranslationError(f"call to unknown function {d.fn!r}")
        self.emit(isa.Instr(
            isa.SPAWN, block=callee,
            args=tuple(map(self.operand, d.args)),
            result_slots=(dst,), comment=f"call {d.fn}",
        ))

    def _emit_if(self, item: ir.IfItem, raddr_slot: int | None,
                 shadow: list[int] | None) -> None:
        branch = self.emit(isa.Instr(isa.BRF, a=self.operand(item.cond)))
        self.emit_region(item.then_region, raddr_slot, shadow)
        for j in item.joins:
            d = self.block.defs[j]
            self.emit(isa.Instr(isa.MOV, dst=self.slot_of(j),
                                a=self.operand(d.then_vid), comment="join"))
        jump_end = self.emit(isa.Instr(isa.JUMP))
        self.code[branch].target = self.here()
        self.emit_region(item.else_region, raddr_slot, shadow)
        for j in item.joins:
            d = self.block.defs[j]
            self.emit(isa.Instr(isa.MOV, dst=self.slot_of(j),
                                a=self.operand(d.else_vid), comment="join"))
        self.code[jump_end].target = self.here()


# Item / def class -> its emitter, looked up by ``type()``: every IR
# item and def class is a leaf, so the exact type is the whole decision.
_EMIT_ITEM = {
    ir.ComputeItem: _Lower._emit_compute_item,
    ir.WriteItem: _Lower._emit_write,
    ir.InvokeItem: _Lower._emit_invoke,
    ir.IfItem: _Lower._emit_if,
    ir.NextItem: _Lower._emit_next,
    ir.ReturnItem: _Lower._emit_return,
}
_EMIT_DEF = {
    ir.OpDef: _Lower._emit_op,
    ir.AllocDef: _Lower._emit_alloc,
    ir.ReadDef: _Lower._emit_read,
    ir.CallDef: _Lower._emit_call,
}


def translate(graph: ir.ProgramGraph) -> isa.PodsProgram:
    """Lower every code block of ``graph`` to an SP template."""
    templates: dict[int, isa.SPTemplate] = {}
    for block_id, block in graph.blocks.items():
        templates[block_id] = _Lower(graph, block).lower()
    entry_block = graph.functions[graph.entry]
    arity = graph.blocks[entry_block].num_params
    return isa.PodsProgram(
        templates=templates, entry_block=entry_block, arity=arity,
        name=graph.name,
    )
