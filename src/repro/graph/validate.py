"""Structural validation of a ProgramGraph.

Checks the invariant the PODS Translator relies on (Section 3): within a
region, "no instruction depends on data generated by an instruction lower
in the sequence" — i.e. every referenced vid is defined earlier in the
region, or is a parameter / loop index / constant of the block.
"""

from __future__ import annotations

from repro.common.errors import GraphError
from repro.graph import ir


def validate_graph(graph: ir.ProgramGraph) -> None:
    """Raise :class:`GraphError` on the first malformed block."""
    if graph.entry not in graph.functions:
        raise GraphError(f"missing entry function {graph.entry!r}")
    for block in graph.blocks.values():
        _validate_block(graph, block)


def _validate_block(graph: ir.ProgramGraph, block: ir.CodeBlock) -> None:
    where = block.describe()

    params = [d for d in block.defs.values() if type(d) is ir.ParamDef]
    positions = sorted(p.index for p in params)
    if positions != list(range(block.num_params)):
        raise GraphError(f"{where}: param positions {positions} are not "
                         f"0..{block.num_params - 1}")

    available = {vid for vid, d in block.defs.items()
                 if type(d) in _INPUT_DEFS}
    if block.kind == ir.FOR and block.index_vid is None:
        raise GraphError(f"{where}: for-block without index def")
    if block.kind == ir.WHILE:
        if block.cond_vid is None:
            raise GraphError(f"{where}: while-block without condition")
        cond_avail = set(available)
        _validate_region(graph, block, block.cond_region, cond_avail, where)
        if block.cond_vid not in cond_avail:
            raise GraphError(f"{where}: condition vid not defined by cond region")

    _validate_region(graph, block, block.body, available, where)


# Definitions available from a block's start: not computed by an item.
_INPUT_DEFS = frozenset((ir.ParamDef, ir.ConstDef, ir.IndexDef))


def _validate_region(graph: ir.ProgramGraph, block: ir.CodeBlock,
                     region: ir.Region, available: set[int], where: str) -> None:
    for item in region:
        check = _CHECK_ITEM.get(type(item))
        if check is None:
            raise GraphError(f"{where}: unknown item {type(item).__name__}")
        check(graph, block, item, available, where)


def _need(block: ir.CodeBlock, available: set[int], vids, what: str,
          where: str) -> None:
    """Every vid of ``vids`` is defined before this point of the region."""
    for vid in vids:
        if vid in available:  # everything available is one of block.defs
            continue
        if vid not in block.defs:
            raise GraphError(f"{where}: {what} references unknown v{vid}")
        raise GraphError(
            f"{where}: {what} uses v{vid} before it is defined "
            "(dataflow-order violation)"
        )


def _check_compute(graph: ir.ProgramGraph, block: ir.CodeBlock,
                   item: ir.ComputeItem, available: set[int], where: str) -> None:
    d = block.defs.get(item.vid)
    if d is None:
        raise GraphError(f"{where}: compute of unknown v{item.vid}")
    kind = type(d)
    if kind is ir.OpDef:
        _need(block, available, d.args, f"op {d.fn}", where)
    elif kind is ir.ReadDef:
        _need(block, available, (d.array,), "array read", where)
        _need(block, available, d.indices, "array read index", where)
    elif kind is ir.AllocDef:
        _need(block, available, d.dims, "alloc dim", where)
    elif kind is ir.CallDef:
        if d.fn not in graph.functions:
            raise GraphError(f"{where}: call to unknown {d.fn!r}")
        _need(block, available, d.args, f"call {d.fn}", where)
    else:
        raise GraphError(
            f"{where}: v{item.vid} ({kind.__name__}) cannot be a "
            "compute item"
        )
    available.add(item.vid)


def _check_write(graph: ir.ProgramGraph, block: ir.CodeBlock,
                 item: ir.WriteItem, available: set[int], where: str) -> None:
    _need(block, available, (item.array,), "array write", where)
    _need(block, available, item.indices, "array write index", where)
    _need(block, available, (item.value,), "array write value", where)


def _check_invoke(graph: ir.ProgramGraph, block: ir.CodeBlock,
                  item: ir.InvokeItem, available: set[int], where: str) -> None:
    child = graph.blocks.get(item.block)
    if child is None:
        raise GraphError(f"{where}: invoke of unknown block {item.block}")
    if child.kind not in (ir.FOR, ir.WHILE):
        raise GraphError(f"{where}: invoke target is not a loop block")
    if len(item.args) != child.num_params:
        raise GraphError(
            f"{where}: invoke of {child.name} passes {len(item.args)} "
            f"args, block declares {child.num_params} params"
        )
    if len(item.results) != len(child.carried_names):
        raise GraphError(
            f"{where}: invoke of {child.name} binds {len(item.results)} "
            f"results, loop carries {len(child.carried_names)}"
        )
    _need(block, available, item.args, f"invoke {child.name}", where)
    for r in item.results:
        if type(block.defs.get(r)) is not ir.ResultDef:
            raise GraphError(f"{where}: invoke result v{r} is not a "
                             "ResultDef")
        available.add(r)


def _check_if(graph: ir.ProgramGraph, block: ir.CodeBlock,
              item: ir.IfItem, available: set[int], where: str) -> None:
    _need(block, available, (item.cond,), "if condition", where)
    then_avail = set(available)
    _validate_region(graph, block, item.then_region, then_avail, where)
    else_avail = set(available)
    _validate_region(graph, block, item.else_region, else_avail, where)
    for j in item.joins:
        d = block.defs.get(j)
        if type(d) is not ir.JoinDef:
            raise GraphError(f"{where}: if join v{j} is not a JoinDef")
        if d.then_vid not in then_avail:
            raise GraphError(f"{where}: join then-value v{d.then_vid} "
                             "not defined by then branch")
        if d.else_vid not in else_avail:
            raise GraphError(f"{where}: join else-value v{d.else_vid} "
                             "not defined by else branch")
        available.add(j)


def _check_next(graph: ir.ProgramGraph, block: ir.CodeBlock,
                item: ir.NextItem, available: set[int], where: str) -> None:
    if block.kind not in (ir.FOR, ir.WHILE):
        raise GraphError(f"{where}: next outside loop block")
    if not 0 <= item.carried_index < len(block.carried_names):
        raise GraphError(f"{where}: next index {item.carried_index} "
                         "out of range")
    _need(block, available, (item.value,), "next value", where)


def _check_return(graph: ir.ProgramGraph, block: ir.CodeBlock,
                  item: ir.ReturnItem, available: set[int], where: str) -> None:
    if block.kind != ir.FUNCTION:
        raise GraphError(f"{where}: return inside loop block")
    _need(block, available, (item.value,), "return value", where)


# Item class -> its check, looked up by ``type(item)``: every region
# item class is a leaf, so the exact type is the whole decision.
_CHECK_ITEM = {
    ir.ComputeItem: _check_compute,
    ir.WriteItem: _check_write,
    ir.InvokeItem: _check_invoke,
    ir.IfItem: _check_if,
    ir.NextItem: _check_next,
    ir.ReturnItem: _check_return,
}
