"""Graph-level optimization: loop-invariant hoisting.

The paper applied "no optimization techniques, except for standard
scalar expansion"; this optional pass adds the classic complementary
one — expressions inside a loop whose inputs are loop-invariant move to
the invoking block, execute once, and flow in as an extra loop
parameter (one more token on the L/LD operator instead of a
recomputation per iteration, or per iteration *per PE* for distributed
loops).

Only pure, fault-free operators are hoisted by default (``div``/
``mod``/``pow``/``sqrt`` can raise, and hoisting would surface the fault
even when the loop body never executes); ``speculative=True`` admits
them too — they are precisely the expensive ones where hoisting pays
most, at the cost of eager faults.  Carried-variable parameters and the loop
index are of course not invariant; ``init``/``limit`` parameters are.
Hoisting runs innermost-first so invariants bubble up as far as they
can; conditionals are left alone (an expression under an ``if`` may be
guarded for a reason).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph import ir

# Pure operators that cannot fault on any operands the type system admits.
_HOISTABLE_FNS = {
    "add", "sub", "mul", "min", "max", "neg", "abs",
    "lt", "le", "gt", "ge", "eq", "ne", "and", "or", "not",
    "float",
}

# Pure but fault-capable: hoisting executes them even when the loop
# body would not have (speculation).
_SPECULATIVE_FNS = {"div", "idiv", "mod", "pow", "sqrt", "int"}


@dataclass
class HoistReport:
    """What the pass did (for tests and curiosity)."""

    hoisted: int = 0
    per_block: dict[str, int] = None

    def __post_init__(self) -> None:
        if self.per_block is None:
            self.per_block = {}


def _invoke_sites(graph: ir.ProgramGraph):
    """child block id -> (parent block, region, index of the InvokeItem)."""
    sites = {}

    def scan(block: ir.CodeBlock, region: ir.Region) -> None:
        for idx, item in enumerate(region):
            if type(item) is ir.InvokeItem:
                sites[item.block] = (block, region, item)
            elif type(item) is ir.IfItem:
                scan(block, item.then_region)
                scan(block, item.else_region)

    for block in graph.blocks.values():
        scan(block, block.body)
        if block.kind == ir.WHILE:
            scan(block, block.cond_region)
    return sites


def _depth(graph: ir.ProgramGraph, block: ir.CodeBlock) -> int:
    d = 0
    while block.parent is not None:
        block = graph.blocks[block.parent]
        d += 1
    return d


def hoist_invariants(graph: ir.ProgramGraph,
                     speculative: bool = False) -> HoistReport:
    """Hoist loop-invariant pure expressions out of loop blocks."""
    fns = _HOISTABLE_FNS | (_SPECULATIVE_FNS if speculative else set())
    report = HoistReport()
    # Innermost loops first so invariants can bubble multiple levels.
    loops = sorted(graph.loop_blocks(),
                   key=lambda b: _depth(graph, b), reverse=True)
    # Hoisting inserts compute items and appends invoke args in place;
    # it never adds or moves an InvokeItem, so the sites hold throughout.
    sites = _invoke_sites(graph)
    for loop in loops:
        if loop.block_id not in sites:
            continue
        parent, parent_region, invoke = sites[loop.block_id]
        moved = _hoist_block(loop, parent, parent_region, invoke, fns)
        if moved:
            report.hoisted += moved
            report.per_block[loop.name] = moved
    return report


def _hoist_block(loop: ir.CodeBlock, parent: ir.CodeBlock,
                 parent_region: ir.Region, invoke: ir.InvokeItem,
                 fns: set[str]) -> int:
    carried = set(loop.carried_params)

    def invariant_vid(vid: int) -> bool:
        d = loop.defs[vid]
        if type(d) is ir.ConstDef:
            return True
        if type(d) is ir.ParamDef:
            return vid not in carried
        return False

    moved = 0
    changed = True
    while changed:
        changed = False
        for idx, item in enumerate(loop.body):
            if type(item) is not ir.ComputeItem:
                continue
            d = loop.defs[item.vid]
            if type(d) is not ir.OpDef or d.fn not in fns:
                continue
            if not all(invariant_vid(a) for a in d.args):
                continue

            # Build the same op in the parent from the parent-side values.
            parent_args = []
            for a in d.args:
                ad = loop.defs[a]
                if type(ad) is ir.ConstDef:
                    parent_args.append(parent.new_vid(ir.ConstDef(ad.value)))
                else:  # invariant ParamDef
                    parent_args.append(invoke.args[ad.index])
            new_vid = parent.new_vid(ir.OpDef(d.fn, parent_args))
            pos = parent_region.index(invoke)
            parent_region.insert(pos, ir.ComputeItem(new_vid))

            # The loop receives the value as a fresh parameter; the old
            # definition vid becomes that parameter so all uses stand.
            loop.defs[item.vid] = ir.ParamDef(loop.num_params, "$hoisted")
            loop.num_params += 1
            invoke.args.append(new_vid)
            del loop.body[idx]
            moved += 1
            changed = True
            break
    return moved


# ---------------------------------------------------------------------
# Common-subexpression elimination
# ---------------------------------------------------------------------


def _replace_uses(block: ir.CodeBlock, old: int, new: int) -> None:
    """Rewrite every reference to vid ``old`` into ``new``."""
    for d in block.defs.values():
        kind = type(d)
        if kind is ir.OpDef:
            d.args = [new if a == old else a for a in d.args]
        elif kind is ir.ReadDef:
            if d.array == old:
                d.array = new
            d.indices = [new if a == old else a for a in d.indices]
        elif kind is ir.AllocDef:
            d.dims = [new if a == old else a for a in d.dims]
        elif kind is ir.CallDef:
            d.args = [new if a == old else a for a in d.args]
        elif kind is ir.JoinDef:
            if d.then_vid == old:
                d.then_vid = new
            if d.else_vid == old:
                d.else_vid = new

    def visit(region: ir.Region) -> None:
        for item in region:
            kind = type(item)
            if kind is ir.WriteItem:
                if item.array == old:
                    item.array = new
                item.indices = [new if a == old else a for a in item.indices]
                if item.value == old:
                    item.value = new
            elif kind is ir.InvokeItem:
                item.args = [new if a == old else a for a in item.args]
            elif kind is ir.IfItem:
                if item.cond == old:
                    item.cond = new
                visit(item.then_region)
                visit(item.else_region)
            elif kind is ir.NextItem:
                if item.value == old:
                    item.value = new
            elif kind is ir.ReturnItem:
                if item.value == old:
                    item.value = new

    visit(block.body)
    if block.kind == ir.WHILE:
        visit(block.cond_region)
    if block.cond_vid == old:
        block.cond_vid = new


def eliminate_common_subexpressions(graph: ir.ProgramGraph) -> int:
    """Region-local CSE over pure scalar operators.

    Two identical OpDefs in the same region compute the same value
    (operands are vids, so structural equality is value equality under
    single assignment); the second is removed and its uses redirected.
    Region-local scope keeps control-flow conditions intact.
    Returns the number of eliminated definitions.
    """
    removed = 0
    for block in graph.blocks.values():
        removed += _cse_region(block, block.body)
        if block.kind == ir.WHILE:
            removed += _cse_region(block, block.cond_region)
    return removed


def _cse_region(block: ir.CodeBlock, region: ir.Region) -> int:
    removed = 0
    seen: dict[tuple, int] = {}
    idx = 0
    while idx < len(region):
        item = region[idx]
        if type(item) is ir.IfItem:
            removed += _cse_region(block, item.then_region)
            removed += _cse_region(block, item.else_region)
            idx += 1
            continue
        if type(item) is ir.ComputeItem:
            d = block.defs[item.vid]
            if type(d) is ir.OpDef:
                key = (d.fn, tuple(d.args))
                prior = seen.get(key)
                if prior is not None:
                    _replace_uses(block, item.vid, prior)
                    del block.defs[item.vid]
                    del region[idx]
                    removed += 1
                    continue
                seen[key] = item.vid
        idx += 1
    return removed


# ---------------------------------------------------------------------
# Dead code elimination
# ---------------------------------------------------------------------


# Defs a dead-code sweep keeps whether or not their value is used.
_EFFECTFUL = frozenset((ir.AllocDef, ir.ReadDef, ir.CallDef))


def _live_vids(block: ir.CodeBlock) -> set[int]:
    """Vids whose values are observable (reach a side effect, control
    decision, invoke, next, or return), transitively."""
    live: set[int] = set()
    worklist: list[int] = []

    def mark(vid: int) -> None:
        if vid not in live:
            live.add(vid)
            worklist.append(vid)

    def seed(region: ir.Region) -> None:
        for item in region:
            kind = type(item)
            if kind is ir.ComputeItem:
                # Allocations, reads and calls are kept (observable /
                # effectful); their operands are therefore live.
                if type(block.defs[item.vid]) in _EFFECTFUL:
                    mark(item.vid)
            elif kind is ir.WriteItem:
                mark(item.array)
                for a in item.indices:
                    mark(a)
                mark(item.value)
            elif kind is ir.InvokeItem:
                for a in item.args:
                    mark(a)
                for r in item.results:
                    mark(r)
            elif kind is ir.IfItem:
                mark(item.cond)
                for j in item.joins:
                    mark(j)
                seed(item.then_region)
                seed(item.else_region)
            elif kind is ir.NextItem:
                mark(item.value)
            elif kind is ir.ReturnItem:
                mark(item.value)

    seed(block.body)
    if block.kind == ir.WHILE:
        seed(block.cond_region)
        if block.cond_vid is not None:
            mark(block.cond_vid)

    while worklist:
        d = block.defs.get(worklist.pop())
        kind = type(d)
        if kind is ir.OpDef:
            for a in d.args:
                mark(a)
        elif kind is ir.ReadDef:
            mark(d.array)
            for a in d.indices:
                mark(a)
        elif kind is ir.AllocDef:
            for a in d.dims:
                mark(a)
        elif kind is ir.CallDef:
            for a in d.args:
                mark(a)
        elif kind is ir.JoinDef:
            mark(d.then_vid)
            mark(d.else_vid)
    return live


def eliminate_dead_code(graph: ir.ProgramGraph) -> int:
    """Remove pure scalar computations whose values nothing observes.
    Returns the number of removed definitions."""
    removed = 0
    for block in graph.blocks.values():
        live = _live_vids(block)

        def sweep(region: ir.Region) -> None:
            nonlocal removed
            idx = 0
            while idx < len(region):
                item = region[idx]
                if type(item) is ir.IfItem:
                    sweep(item.then_region)
                    sweep(item.else_region)
                elif type(item) is ir.ComputeItem:
                    d = block.defs[item.vid]
                    if type(d) is ir.OpDef and item.vid not in live:
                        del block.defs[item.vid]
                        del region[idx]
                        removed += 1
                        continue
                idx += 1

        sweep(block.body)
        if block.kind == ir.WHILE:
            sweep(block.cond_region)
    return removed


def optimize_graph(graph: ir.ProgramGraph, speculative: bool = False) -> dict:
    """Run the full pass pipeline: CSE -> invariant hoisting -> DCE.
    Returns a summary of what each pass did."""
    cse = eliminate_common_subexpressions(graph)
    hoist = hoist_invariants(graph, speculative=speculative)
    dce = eliminate_dead_code(graph)
    return {"cse": cse, "hoisted": hoist.hoisted, "dce": dce}
