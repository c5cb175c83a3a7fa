"""Loop-carried dependency (LCD) detection (paper Sections 4.2.3-4.2.4).

A loop has an LCD when one iteration produces data another iteration
consumes.  Two sources are recognized:

* **scalar circulation** — the loop has ``next`` variables (reductions,
  running values): a structural LCD;
* **array flow dependence** — the loop's subtree writes ``X[.., i+c1, ..]``
  and reads ``X[.., i+c2, ..]`` with no subscript position where both
  accesses move with the loop index *in lockstep* (coefficient 1, equal
  offset).  The paper's conduction sweeps (``B[i,j] = f(B[i-1,j])``) are
  the canonical case.

The paper stresses that LCD detection "is only a useful heuristic and not
a necessity": single assignment makes program results independent of the
decision, which only steers the Partitioner's distribution choice.  We
therefore keep the analysis deliberately conservative: any subscript it
cannot prove affine in the loop index is treated as potentially
conflicting, and function calls are assumed not to introduce LCDs
(documented heuristic; wrong guesses cost performance, never
correctness).

``while`` loops are always LCD (their trip count is data dependent).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from repro.graph import ir

# (coeff, offset), exact: ints, and a Fraction wherever a float
# constant takes part.
Affine = tuple
VARIES = None   # not affine in the loop index


def _invoke_map(graph: ir.ProgramGraph) -> dict[int, tuple[ir.CodeBlock, ir.InvokeItem]]:
    """child block id -> (parent block, invoke item).  Loop blocks are
    invoked from exactly one static site (the builder guarantees it)."""
    out: dict[int, tuple[ir.CodeBlock, ir.InvokeItem]] = {}

    def scan(block: ir.CodeBlock, region: ir.Region) -> None:
        for item in region:
            if type(item) is ir.InvokeItem:
                out[item.block] = (block, item)
            elif type(item) is ir.IfItem:
                scan(block, item.then_region)
                scan(block, item.else_region)

    for block in graph.blocks.values():
        scan(block, block.body)
        if block.kind == ir.WHILE:
            scan(block, block.cond_region)
    return out


@dataclass
class Access:
    """One array access found in a loop's subtree."""

    array_key: tuple
    subscripts: list[Affine | None]
    is_write: bool
    block_id: int


class LcdAnalysis:
    """Computes and caches LCD verdicts for every loop block."""

    def __init__(self, graph: ir.ProgramGraph) -> None:
        self.graph = graph
        self.invokes = _invoke_map(graph)

    # -- value tracing ---------------------------------------------------

    def trace_array_key(self, block: ir.CodeBlock, vid: int) -> tuple:
        """Identify which array a vid denotes, across block boundaries.

        Allocation sites and function parameters are the roots; anything
        opaque (call results, joins) gets a unique key so distinct-looking
        arrays are never conflated (conservative in the right direction:
        unmergeable keys can only *miss* dependencies between genuinely
        identical arrays reached through opaque paths — and those loops
        then distribute, which single assignment keeps correct).
        """
        d = block.defs[vid]
        if type(d) is ir.AllocDef:
            return ("alloc", block.block_id, vid)
        if type(d) is ir.ParamDef:
            if block.kind in (ir.FOR, ir.WHILE) and block.block_id in self.invokes:
                parent, invoke = self.invokes[block.block_id]
                return self.trace_array_key(parent, invoke.args[d.index])
            return ("fnparam", block.block_id, vid)
        return ("opaque", block.block_id, vid)

    def affine_of(self, block: ir.CodeBlock, vid: int,
                  loop: ir.CodeBlock) -> Affine | None:
        """Express vid as coeff*index(loop) + offset, or VARIES."""
        d = block.defs[vid]
        kind = type(d)

        if kind is ir.ConstDef:
            value = d.value
            if type(value) is int:
                return (0, value)
            if type(value) is float:
                return (0, Fraction(value))
            return VARIES  # a bool is no number

        if kind is ir.IndexDef:
            if block.block_id == loop.block_id:
                return (1, 0)
            return VARIES  # a deeper loop's index: varies within one iteration

        if kind is ir.ParamDef:
            if block.block_id == loop.block_id:
                # Defined outside the loop: invariant, value unknown.
                return VARIES
            if block.kind in (ir.FOR, ir.WHILE) and block.block_id in self.invokes:
                parent, invoke = self.invokes[block.block_id]
                return self.affine_of(parent, invoke.args[d.index], loop)
            return VARIES

        if kind is ir.OpDef:
            if d.fn in ("add", "sub") and len(d.args) == 2:
                left = self.affine_of(block, d.args[0], loop)
                right = self.affine_of(block, d.args[1], loop)
                if left is VARIES or right is VARIES:
                    return VARIES
                sign = 1 if d.fn == "add" else -1
                return (left[0] + sign * right[0], left[1] + sign * right[1])
            if d.fn == "mul" and len(d.args) == 2:
                left = self.affine_of(block, d.args[0], loop)
                right = self.affine_of(block, d.args[1], loop)
                if left is VARIES or right is VARIES:
                    return VARIES
                if left[0] == 0:
                    return (left[1] * right[0], left[1] * right[1])
                if right[0] == 0:
                    return (left[0] * right[1], left[1] * right[1])
                return VARIES
            if d.fn == "neg" and len(d.args) == 1:
                inner = self.affine_of(block, d.args[0], loop)
                if inner is VARIES:
                    return VARIES
                return (-inner[0], -inner[1])
            return VARIES

        return VARIES

    # -- access collection -------------------------------------------------

    def collect_accesses(self, loop: ir.CodeBlock) -> list[Access]:
        """All array reads/writes in ``loop``'s static subtree."""
        out: list[Access] = []

        def visit_block(block: ir.CodeBlock) -> None:
            if block.kind == ir.WHILE:
                visit_region(block, block.cond_region)
            visit_region(block, block.body)

        def visit_region(block: ir.CodeBlock, region: ir.Region) -> None:
            for item in region:
                kind = type(item)
                if kind is ir.ComputeItem:
                    d = block.defs[item.vid]
                    if type(d) is ir.ReadDef:
                        out.append(Access(
                            self.trace_array_key(block, d.array),
                            [self.affine_of(block, s, loop) for s in d.indices],
                            is_write=False, block_id=block.block_id,
                        ))
                elif kind is ir.WriteItem:
                    out.append(Access(
                        self.trace_array_key(block, item.array),
                        [self.affine_of(block, s, loop) for s in item.indices],
                        is_write=True, block_id=block.block_id,
                    ))
                elif kind is ir.InvokeItem:
                    visit_block(self.graph.blocks[item.block])
                elif kind is ir.IfItem:
                    visit_region(block, item.then_region)
                    visit_region(block, item.else_region)

        visit_block(loop)
        return out

    # -- the verdict -------------------------------------------------------

    @staticmethod
    def _aligned(a: Access, b: Access) -> bool:
        """True when some subscript position moves with the loop index in
        lockstep (coeff 1, same offset) in both accesses — which proves
        different iterations touch disjoint slices."""
        for pa, pb in zip(a.subscripts, b.subscripts):
            if (pa is not VARIES and pb is not VARIES
                    and pa[0] == 1 and pb[0] == 1 and pa[1] == pb[1]):
                return True
        return False

    def has_lcd(self, loop: ir.CodeBlock) -> bool:
        if loop.kind == ir.WHILE:
            return True
        if loop.carried_names:
            return True

        accesses = self.collect_accesses(loop)
        writes_by_array: dict[tuple, list[Access]] = {}
        for acc in accesses:
            if acc.is_write:
                writes_by_array.setdefault(acc.array_key, []).append(acc)

        for acc in accesses:
            writes = writes_by_array.get(acc.array_key)
            if not writes:
                continue
            for w in writes:
                if w is acc:
                    continue
                if len(w.subscripts) != len(acc.subscripts):
                    return True  # rank mismatch: assume the worst
                if not self._aligned(w, acc):
                    return True
        return False

    def annotate(self) -> None:
        """Fill ``has_lcd`` on every loop block of the graph."""
        for block in self.graph.loop_blocks():
            block.has_lcd = self.has_lcd(block)


def annotate_lcds(graph: ir.ProgramGraph) -> LcdAnalysis:
    """Run the analysis over ``graph`` and return it (for reuse by the
    Partitioner's Range-Filter derivation)."""
    analysis = LcdAnalysis(graph)
    analysis.annotate()
    return analysis
