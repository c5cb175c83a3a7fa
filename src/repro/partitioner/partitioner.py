"""The PODS Partitioner (paper Section 4.2.4).

Modifies a program graph so its execution distributes over the PEs:

1. every array allocation becomes a *distributing allocate* (arrays are
   always partitioned page-wise over the PEs, Section 4.1);
2. the for-loop distribution algorithm walks each loop nest depth-first:
   the outermost level **without** a loop-carried dependency is *marked*
   — it receives the single Range Filter of the nest and its L operator
   (in the parent block) becomes a distributing LD; everything below a
   marked loop stays local and iterates its full range, everything above
   stays local because distributing an LCD level cannot help ("at best,
   they will run in a staggered doacross-like manner").

Marking additionally requires a usable Range Filter: some array write in
the loop's subtree must use the loop index as a bare subscript, with all
leading subscript positions resolvable to values available in the loop's
own frame (enclosing indices or constants).  When the paper's
first-element-ownership rule cannot be instantiated — column-major
access, scattered subscripts — the loop is left local, which is always
safe under single assignment.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import PartitionError
from repro.analysis.lcd import LcdAnalysis, annotate_lcds
from repro.graph import ir


@dataclass
class PartitionReport:
    """What the Partitioner decided, for logs/tests/ablation studies."""

    distributed: list[str] = field(default_factory=list)
    local_lcd: list[str] = field(default_factory=list)
    local_no_filter: list[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = ["Partitioner decisions:"]
        for name in self.distributed:
            lines.append(f"  distribute (LD + RF): {name}")
        for name in self.local_lcd:
            lines.append(f"  keep local (LCD):     {name}")
        for name in self.local_no_filter:
            lines.append(f"  keep local (no RF):   {name}")
        return "\n".join(lines)


class Partitioner:
    """``placement`` selects the Range-Filter level (Section 4.2.3):

    * ``"outer"`` (the paper's algorithm and our default): mark the
      outermost LCD-free level of each nest;
    * ``"inner"``: push the LD one level further down even without an
      LCD — one instance of the outer loop broadcasts per-iteration
      spawns, the way LCD levels are handled.  Exists as an ablation:
      it multiplies spawn traffic by the outer trip count and shows why
      the paper's placement wins.
    """

    def __init__(self, graph: ir.ProgramGraph,
                 analysis: LcdAnalysis | None = None,
                 placement: str = "outer",
                 aggressive: bool = False) -> None:
        if placement not in ("outer", "inner"):
            raise PartitionError(f"unknown placement {placement!r}")
        self.graph = graph
        self.analysis = analysis or annotate_lcds(graph)
        self.placement = placement
        # The paper: "the detection of LCDs is only a useful heuristic
        # and not a necessity" - single assignment keeps results correct
        # no matter what is distributed.  ``aggressive`` distributes
        # LCD-carrying for-loops too (scalar reductions excepted: their
        # carried values cannot be merged across PEs), which turns 2-D
        # recurrences into pipelined wavefronts.
        self.aggressive = aggressive
        self.report = PartitionReport()

    # -- main entry -------------------------------------------------------

    def run(self) -> PartitionReport:
        self._distribute_allocs()
        for name, block_id in self.graph.functions.items():
            self._walk(self.graph.blocks[block_id])
        return self.report

    def _distribute_allocs(self) -> None:
        for block in self.graph.blocks.values():
            for d in block.defs.values():
                if type(d) is ir.AllocDef:
                    d.distributed = True

    def _walk(self, block: ir.CodeBlock, depth: int = 0) -> None:
        """Depth-first marking over the loops nested in ``block``."""
        for child in self.graph.children_of(block.block_id):
            skip_mark = (self.placement == "inner" and depth == 0
                         and child.kind == ir.FOR
                         and self.graph.children_of(child.block_id))
            eligible = (not child.has_lcd
                        or (self.aggressive and not child.carried_names))
            if child.kind == ir.FOR and eligible and not skip_mark:
                rf = self._derive_range_filter(child)
                if rf is not None:
                    self._mark(block, child, rf)
                    continue  # descendants stay local: do not descend
                self.report.local_no_filter.append(child.name)
            elif not skip_mark:
                self.report.local_lcd.append(child.name)
            self._walk(child, depth + 1)

    def _mark(self, parent: ir.CodeBlock, loop: ir.CodeBlock,
              rf: ir.RangeFilterSpec) -> None:
        loop.distributed = True
        loop.range_filter = rf
        invoke = self._find_invoke(parent, loop.block_id)
        invoke.distributed = True  # L -> LD
        self.report.distributed.append(loop.name)

    def _find_invoke(self, parent: ir.CodeBlock, block_id: int) -> ir.InvokeItem:
        def scan(region: ir.Region) -> ir.InvokeItem | None:
            for item in region:
                if type(item) is ir.InvokeItem and item.block == block_id:
                    return item
                if type(item) is ir.IfItem:
                    found = scan(item.then_region) or scan(item.else_region)
                    if found:
                        return found
            return None

        found = scan(parent.body)
        if found is None and parent.kind == ir.WHILE:
            found = scan(parent.cond_region)
        if found is None:
            raise AssertionError(
                f"invoke of block {block_id} not found in {parent.name}")
        return found

    # -- Range Filter derivation -------------------------------------------

    def _derive_range_filter(self, loop: ir.CodeBlock) -> ir.RangeFilterSpec | None:
        """Find a write in the loop's subtree usable to drive the RF."""
        for write_block, item in self._writes_in_subtree(loop):
            spec = self._try_write(loop, write_block, item)
            if spec is not None:
                return spec
        return None

    def _writes_in_subtree(self, loop: ir.CodeBlock):
        out: list[tuple[ir.CodeBlock, ir.WriteItem]] = []

        def visit_block(block: ir.CodeBlock) -> None:
            if block.kind == ir.WHILE:
                visit_region(block, block.cond_region)
            visit_region(block, block.body)

        def visit_region(block: ir.CodeBlock, region: ir.Region) -> None:
            for item in region:
                if type(item) is ir.WriteItem:
                    out.append((block, item))
                elif type(item) is ir.InvokeItem:
                    visit_block(self.graph.blocks[item.block])
                elif type(item) is ir.IfItem:
                    visit_region(block, item.then_region)
                    visit_region(block, item.else_region)

        visit_block(loop)
        return out

    def _try_write(self, loop: ir.CodeBlock, write_block: ir.CodeBlock,
                   item: ir.WriteItem) -> ir.RangeFilterSpec | None:
        # The filtered dimension: first subscript that is exactly the
        # loop's index (coefficient 1, offset 0).
        dim = None
        for pos, sub in enumerate(item.indices):
            form = self.analysis.affine_of(write_block, sub, loop)
            if form is not None and form[0] == 1 and form[1] == 0:
                dim = pos
                break
        if dim is None:
            return None

        array_op = self._hoist_vid(write_block, item.array, loop)
        if array_op is None or array_op[0] == "k":
            return None

        fixed: list[int] = []
        for pos in range(dim):
            op = self._hoist_vid(write_block, item.indices[pos], loop)
            if op is None:
                return None
            if op[0] == "k":
                # Materialize the constant in the loop block.
                fixed.append(loop.new_vid(ir.ConstDef(op[1])))
            else:
                fixed.append(op[1])
        return ir.RangeFilterSpec(array_op[1], fixed, dim)

    def _hoist_vid(self, block: ir.CodeBlock, vid: int,
                   loop: ir.CodeBlock):
        """Re-express ``vid`` (defined in a subtree block) as a value of
        ``loop``'s frame: ("s", vid_in_loop) or ("k", const).  None when
        it cannot be hoisted (it varies below the loop level)."""
        d = block.defs[vid]
        if type(d) is ir.ConstDef:
            return ("k", d.value)
        if block.block_id == loop.block_id:
            if type(d) is ir.ParamDef or type(d) is ir.IndexDef:
                return ("s", vid)
            return None
        if type(d) is ir.ParamDef and block.block_id in self.analysis.invokes:
            parent, invoke = self.analysis.invokes[block.block_id]
            return self._hoist_vid(parent, invoke.args[d.index], loop)
        return None


def partition(graph: ir.ProgramGraph,
              placement: str = "outer",
              aggressive: bool = False) -> PartitionReport:
    """Run LCD analysis + the distribution algorithm on ``graph``."""
    return Partitioner(graph, placement=placement,
                       aggressive=aggressive).run()


def partition_none(graph: ir.ProgramGraph) -> PartitionReport:
    """Ablation: distribute arrays but keep every loop local (what the
    paper's mechanisms would do with the LD/RF machinery disabled)."""
    annotate_lcds(graph)
    p = Partitioner.__new__(Partitioner)
    p.graph = graph
    p.report = PartitionReport()
    for block in graph.blocks.values():
        for d in block.defs.values():
            if type(d) is ir.AllocDef:
                d.distributed = True
    return p.report
