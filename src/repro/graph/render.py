"""Dataflow-graph rendering: Graphviz DOT and indented text.

The paper's Figure 2 draws the example program as nested code-block
scopes with operator nodes and data arcs; :func:`to_dot` produces the
same picture for any compiled program (one cluster per code block, L/LD
edges between blocks), and :func:`to_text` is the terminal-friendly
variant used by ``pods graph``.
"""

from __future__ import annotations

from repro.graph import ir


def _def_label(block: ir.CodeBlock, vid: int) -> str:
    d = block.defs[vid]
    if isinstance(d, ir.ParamDef):
        return f"param {d.name or d.index}"
    if isinstance(d, ir.ConstDef):
        return repr(d.value)
    if isinstance(d, ir.OpDef):
        return d.fn
    if isinstance(d, ir.AllocDef):
        tag = "allocate-D" if d.distributed else "allocate"
        return f"{tag}[{len(d.dims)}d]"
    if isinstance(d, ir.ReadDef):
        return "I-fetch"
    if isinstance(d, ir.CallDef):
        return f"call {d.fn}"
    if isinstance(d, ir.IndexDef):
        return f"index {d.name}"
    if isinstance(d, ir.JoinDef):
        return "merge"
    if isinstance(d, ir.ResultDef):
        return f"result {d.name or d.k}"
    return type(d).__name__


def _used_vids(block: ir.CodeBlock) -> set[int]:
    """Vids that appear anywhere (so constants with no uses are hidden)."""
    used: set[int] = set()
    for region in ir.regions(block):
        for item in region:
            if type(item) is ir.ComputeItem:
                used.add(item.vid)
                used.update(ir.uses(block.defs[item.vid]))
            else:
                used.update(ir.uses(item))
    if block.kind == ir.WHILE and block.cond_vid is not None:
        used.add(block.cond_vid)
    if block.index_vid is not None:
        used.add(block.index_vid)
    return used


def _arcs(block: ir.CodeBlock) -> list[tuple[int, int]]:
    """Data arcs (src vid -> dst vid) within one block."""
    return [(a, vid) for vid, d in block.defs.items() for a in ir.uses(d)]


def to_dot(graph: ir.ProgramGraph) -> str:
    """Graphviz DOT: one cluster per code block, L/LD edges between."""
    lines = ["digraph dataflow {", "  rankdir=TB;",
             "  node [shape=box, fontsize=10];"]
    for bid in sorted(graph.blocks):
        block = graph.blocks[bid]
        used = _used_vids(block)
        style = "dashed" if block.kind != ir.FUNCTION else "solid"
        color = "red" if block.distributed else "black"
        lines.append(f"  subgraph cluster_{bid} {{")
        label = block.name
        if block.distributed:
            label += " [LD+RF]"
        elif block.has_lcd:
            label += " [LCD]"
        lines.append(f'    label="{label}"; style={style}; color={color};')
        for vid in sorted(used):
            if vid not in block.defs:
                continue
            lines.append(
                f'    b{bid}v{vid} [label="{_def_label(block, vid)}"];')
        for src, dst in _arcs(block):
            if src in used and dst in used:
                lines.append(f"    b{bid}v{src} -> b{bid}v{dst};")
        lines.append("  }")

    # Inter-block edges: each block's L / LD invocations, in program order.
    invokes = sorted(((block.block_id, run[-1])
                      for bid in graph.functions.values()
                      for block, run in ir.subtree(graph, graph.blocks[bid])
                      if type(run[-1]) is ir.InvokeItem),
                     key=lambda edge: edge[0])
    for bid, item in invokes:
        tag = "LD" if item.distributed else "L"
        child = graph.blocks[item.block]
        child_anchor = _first_node(child)
        if child_anchor is not None and item.args:
            lines.append(
                f'  b{bid}v{item.args[0]} -> '
                f'b{child.block_id}v{child_anchor} '
                f'[label="{tag}", style=bold];')
    lines.append("}")
    return "\n".join(lines)


def _first_node(block: ir.CodeBlock) -> int | None:
    used = _used_vids(block)
    return min(used) if used else None


def to_text(graph: ir.ProgramGraph) -> str:
    """Indented scope view in the spirit of Figure 2."""
    children: dict[int | None, list[ir.CodeBlock]] = {}
    for block in graph.blocks.values():
        children.setdefault(block.parent, []).append(block)

    lines: list[str] = []

    def visit(block: ir.CodeBlock, depth: int) -> None:
        pad = "  " * depth
        tags = []
        if block.distributed:
            rf = block.range_filter
            tags.append(f"LD+RF(dim {rf.dim})" if rf else "LD")
        if block.has_lcd:
            tags.append("LCD" + (" desc" if block.descending else ""))
        tag = f"  [{', '.join(tags)}]" if tags else ""
        lines.append(f"{pad}{block.kind} {block.name}{tag}")
        used = _used_vids(block)
        ops = [v for v in sorted(used)
               if v in block.defs
               and isinstance(block.defs[v],
                              (ir.OpDef, ir.ReadDef, ir.AllocDef, ir.CallDef))]
        if ops:
            names = ", ".join(_def_label(block, v) for v in ops[:12])
            more = f" (+{len(ops) - 12})" if len(ops) > 12 else ""
            lines.append(f"{pad}  ops: {names}{more}")
        for child in sorted(children.get(block.block_id, []),
                            key=lambda b: b.block_id):
            visit(child, depth + 1)

    for name, bid in sorted(graph.functions.items()):
        visit(graph.blocks[bid], 0)
    return "\n".join(lines)
