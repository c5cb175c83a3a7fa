"""Dataflow graph IR: code blocks, operator nodes, data arcs.

This is the equivalent of the ``.graph`` files the MIT Id Nouveau compiler
hands to the PODS Translator (paper Figure 3).  A program is a set of
*code blocks* — one per function, one per loop nest level (Section 3:
"each code block, when invoked, becomes a separate SP").  Inside a block,
computation is a set of *definitions* (operator nodes) connected by
*value ids* (the data arcs), arranged into structured *regions* so that
conditionals keep dataflow-switch semantics (only the taken branch
executes — essential because the untaken branch may contain an
I-structure read of a never-written element).

The IR's shape is stated once, at the end of this module: one table of
which fields of each def and item class hold vids (:data:`OPERANDS`,
read through :func:`uses` and :func:`rename`) and three walks —
:func:`regions`, :func:`invoke_sites` and :func:`subtree`.  The middle
end (optimizer, renderer, LCD analysis, Partitioner) reads the graph
through them instead of re-deriving it.

Naming follows the paper where possible: loop blocks are entered through
L operators (here :class:`InvokeItem`), which the Partitioner may turn
into distributing LD operators; Range Filters are attached to loop blocks
as :class:`RangeFilterSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.errors import GraphError

# ---------------------------------------------------------------------
# Definitions (operator nodes).  A definition produces one value, named
# by its integer value id (vid).  Vids are block-local.
# ---------------------------------------------------------------------


@dataclass
class ParamDef:
    """Block input ``index`` (filled by an incoming token)."""

    index: int
    name: str = ""


@dataclass
class ConstDef:
    value: object


@dataclass
class OpDef:
    """Scalar operator: fn is an ISA function name; args are vids."""

    fn: str
    args: list[int]


@dataclass
class AllocDef:
    """Array allocation.  ``distributed`` is set by the Partitioner
    (the distributing allocate operator of Section 4.1)."""

    dims: list[int]
    name: str = ""
    distributed: bool = False


@dataclass
class ReadDef:
    """I-structure element read A[indices] (split-phase at run time)."""

    array: int
    indices: list[int]


@dataclass
class CallDef:
    """User function call; spawns the callee's SP and awaits the result."""

    fn: str
    args: list[int]


@dataclass
class IndexDef:
    """The index variable of a ``for`` block (driven by the loop
    machinery, not by a token)."""

    name: str


@dataclass
class JoinDef:
    """Value merged from the two branches of an :class:`IfItem`."""

    item_uid: int
    then_vid: int
    else_vid: int


@dataclass
class ResultDef:
    """k-th result of an :class:`InvokeItem` (a loop's carried-variable
    final value, delivered by a direct token)."""

    invoke_uid: int
    k: int
    name: str = ""


Def = (
    ParamDef | ConstDef | OpDef | AllocDef | ReadDef | CallDef
    | IndexDef | JoinDef | ResultDef
)


# ---------------------------------------------------------------------
# Region items (ordered computation within a block)
# ---------------------------------------------------------------------


@dataclass
class ComputeItem:
    """Anchor placing definition ``vid`` at this point of the region."""

    vid: int


@dataclass
class WriteItem:
    """I-structure store array[indices] = value (all vids)."""

    array: int
    indices: list[int]
    value: int


@dataclass
class InvokeItem:
    """The L operator: enter a nested loop block.

    ``distributed`` True is the LD operator (Section 4.2.1): the child SP
    is spawned on every PE.  ``results`` are vids of :class:`ResultDef`
    receiving the loop's carried-variable final values.
    """

    uid: int
    block: int
    args: list[int]
    results: list[int] = field(default_factory=list)
    distributed: bool = False


@dataclass
class IfItem:
    """Structured conditional with dataflow-switch semantics."""

    uid: int
    cond: int
    then_region: "Region"
    else_region: "Region"
    joins: list[int] = field(default_factory=list)  # JoinDef vids


@dataclass
class NextItem:
    """``next var = value``: the value carried into the next iteration."""

    carried_index: int
    value: int


@dataclass
class ReturnItem:
    """Function return: send ``value`` to the caller's return address."""

    value: int


Item = ComputeItem | WriteItem | InvokeItem | IfItem | NextItem | ReturnItem
Region = list


# ---------------------------------------------------------------------
# Range Filter specification (attached by the Partitioner)
# ---------------------------------------------------------------------


@dataclass
class RangeFilterSpec:
    """How a distributed loop block clamps its index range (Section 4.2.2).

    Attributes:
        array_vid: Vid (a block param) of the array whose header drives
            the filter — "determined from the header of the array written
            by this loop".
        fixed_vids: Vids of the enclosing-loop indices that pin the
            leading subscript positions (they select the row/slice whose
            first-element owner is responsible).
        dim: Position of this loop's index in the write subscript.
    """

    array_vid: int
    fixed_vids: list[int]
    dim: int


# ---------------------------------------------------------------------
# Code blocks
# ---------------------------------------------------------------------

FUNCTION = "function"
FOR = "for"
WHILE = "while"


@dataclass
class CodeBlock:
    """One dataflow code block (becomes one SP template).

    Input conventions (token positions):

    * function: user params..., return address.
    * for loop: init, limit, imports..., carried initial values...,
      carried return addresses...
    * while loop: imports..., carried initial values..., carried return
      addresses...
    """

    block_id: int
    name: str
    kind: str
    defs: dict[int, Def] = field(default_factory=dict)
    body: Region = field(default_factory=list)
    num_params: int = 0

    # for/while loops:
    index_vid: int | None = None         # for only
    descending: bool = False             # for only
    init_param: int | None = None        # for only: vid of init param
    limit_param: int | None = None       # for only: vid of limit param
    carried_params: list[int] = field(default_factory=list)
    carried_names: list[str] = field(default_factory=list)
    cond_region: Region = field(default_factory=list)  # while only
    cond_vid: int | None = None                        # while only

    # partitioning annotations:
    distributed: bool = False
    range_filter: RangeFilterSpec | None = None
    has_lcd: bool | None = None   # filled by the LCD analysis

    # provenance
    parent: int | None = None
    ast_ref: object = None  # the lang.ast_nodes loop node this block lowers

    _next_vid: int = 0
    _next_uid: int = 0

    def new_vid(self, d: Def) -> int:
        vid = self._next_vid
        self._next_vid = vid + 1
        self.defs[vid] = d
        return vid

    def new_uid(self) -> int:
        uid = self._next_uid
        self._next_uid = uid + 1
        return uid

    def param_vids(self) -> list[int]:
        """Vids of ParamDefs ordered by input position."""
        params = [(d.index, vid) for vid, d in self.defs.items()
                  if type(d) is ParamDef]
        params.sort()
        return [vid for _, vid in params]

    def describe(self) -> str:
        flags = []
        if self.distributed:
            flags.append("distributed")
        if self.has_lcd:
            flags.append("lcd")
        extra = f" [{', '.join(flags)}]" if flags else ""
        return f"block {self.block_id} {self.name} ({self.kind}){extra}"


@dataclass
class ProgramGraph:
    """All code blocks of one compiled program."""

    blocks: dict[int, CodeBlock] = field(default_factory=dict)
    functions: dict[str, int] = field(default_factory=dict)  # name -> block
    entry: str = "main"
    name: str = "program"
    _next_block: int = 0

    def new_block(self, name: str, kind: str, parent: int | None = None) -> CodeBlock:
        block = CodeBlock(block_id=self._next_block, name=name, kind=kind,
                          parent=parent)
        self.blocks[self._next_block] = block
        self._next_block += 1
        return block

    def entry_block(self) -> CodeBlock:
        if self.entry not in self.functions:
            raise GraphError(f"entry function {self.entry!r} missing")
        return self.blocks[self.functions[self.entry]]

    def children_of(self, block_id: int) -> list[CodeBlock]:
        """Loop blocks directly invoked from ``block_id`` (static nesting)."""
        out = []
        for b in self.blocks.values():
            if b.parent == block_id and b.kind in (FOR, WHILE):
                out.append(b)
        return out

    def loop_blocks(self) -> list[CodeBlock]:
        return [b for b in self.blocks.values() if b.kind in (FOR, WHILE)]


# ---------------------------------------------------------------------
# The IR's shape: the vids each node names, and the walks over a block
# ---------------------------------------------------------------------

# Def or item class -> the fields that name vids, in order; a field
# holds one vid or a list of them.  An item names its operands and the
# vids it binds for later items (an invoke's results, an if's joins); a
# ComputeItem only anchors its def, which names the operands.
OPERANDS: dict[type, tuple[str, ...]] = {
    ParamDef: (), ConstDef: (), IndexDef: (), ResultDef: (),
    OpDef: ("args",), AllocDef: ("dims",), ReadDef: ("array", "indices"),
    CallDef: ("args",), JoinDef: ("then_vid", "else_vid"),
    ComputeItem: (), WriteItem: ("array", "indices", "value"),
    InvokeItem: ("args", "results"), IfItem: ("cond", "joins"),
    NextItem: ("value",), ReturnItem: ("value",),
}


def uses(node: Def | Item) -> list[int]:
    """The vids a def or item names, in :data:`OPERANDS` order."""
    out = []
    for name in OPERANDS[type(node)]:
        value = getattr(node, name)
        if type(value) is list:
            out += value
        else:
            out.append(value)
    return out


def rename(node: Def | Item, old: int, new: int) -> None:
    """Make a def or item name vid ``new`` wherever it names ``old``."""
    for name in OPERANDS[type(node)]:
        value = getattr(node, name)
        if type(value) is list:
            if old in value:
                value[:] = [new if v == old else v for v in value]
        elif value == old:
            setattr(node, name, new)


def regions(block: CodeBlock) -> list[Region]:
    """Every region of ``block``: the body, a while block's condition,
    and both branches of every IfItem, each region before its branches."""
    out = ([block.body, block.cond_region] if block.kind == WHILE
           else [block.body])
    for region in out:  # grows as branches are found
        for item in region:
            if type(item) is IfItem:
                out += (item.then_region, item.else_region)
    return out


def invoke_sites(graph: ProgramGraph
                 ) -> dict[int, tuple[CodeBlock, Region, InvokeItem]]:
    """Loop block id -> (parent block, region, InvokeItem) of the one
    static site that invokes it (the builder makes one per loop)."""
    return {item.block: (block, region, item)
            for block in graph.blocks.values()
            for region in regions(block)
            for item in region if type(item) is InvokeItem}


def subtree(graph: ProgramGraph,
            loop: CodeBlock) -> list[tuple[CodeBlock, Region]]:
    """``loop``'s static subtree in program order, as runs of items.

    A run is ``(block, items)``: a slice of one region of ``block`` that
    ends at an IfItem, whose branches' runs follow it, at an InvokeItem,
    whose loop's runs follow it, or at the region's end.  A while
    block's condition comes before its body.
    """
    runs = []

    def enter(block: CodeBlock) -> None:
        if block.kind == WHILE:
            walk(block, block.cond_region)
        walk(block, block.body)

    def walk(block: CodeBlock, region: Region) -> None:
        start = end = 0
        for item in region:
            end += 1
            kind = type(item)
            if kind is IfItem or kind is InvokeItem:
                runs.append((block, region[start:end]))
                start = end
                if kind is IfItem:
                    walk(block, item.then_region)
                    walk(block, item.else_region)
                else:
                    enter(graph.blocks[item.block])
        if start < end:
            runs.append((block, region[start:]))

    enter(loop)
    return runs
