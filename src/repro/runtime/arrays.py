"""Array partitioning and distribution (paper Section 4.1).

Arrays are stored row-major and cut into fixed-size *pages*.  Pages are
grouped into contiguous *segments* of approximately equal size, one segment
per PE, assigned sequentially: PE 0 owns the first segment, PE 1 the next,
and so on (Figure 4 of the paper shows a 6x256 array over 4 PEs).

Each PE builds an :class:`ArrayHeader` when the distributing allocate runs;
the header carries the dimensions and the per-PE ownership boundaries, and
is what the Range Filter consults at run time to decide which loop
iterations are local (Section 4.2.2).

Index convention: IdLite arrays are declared ``matrix(m, n)`` and indexed
``A[1..m, 1..n]`` following the paper's example program; lower bounds are 1.
Flat offsets are 0-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from textwrap import indent

from repro.common.errors import BoundsViolation, ExecutionError, PartitionError


# The most elements one array may hold: 64 Mi, 512 MiB of cell
# pointers in a host list and 576 MiB of flag and value bytes in a
# shared-memory segment.  A larger ``array(...)`` is refused before any
# store tries to allocate it.
MAX_ELEMENTS = 1 << 26


def check_extents(dims: tuple) -> None:
    """Refuse extents no store can hold: each one a positive ``int``
    (never a ``bool``, as the index rule says), ``MAX_ELEMENTS`` or fewer
    in all.

    Every store asks this before it allocates anything (a shared-memory
    store before it opens its segment, the simulator's AM before it
    installs a header), so a bad ``array(...)`` is the program's
    ``ExecutionError`` on every backend.
    """
    for d in dims:
        if type(d) is not int or d < 1:
            raise ExecutionError(f"bad array dimensions {dims!r}")
    if flat_size(dims) > MAX_ELEMENTS:
        raise ExecutionError(f"array dimensions {dims!r} exceed "
                             f"{MAX_ELEMENTS} elements")


def flat_size(dims: tuple[int, ...]) -> int:
    """Total number of elements of an array with the given dimensions."""
    total = 1
    for d in dims:
        total *= d
    return total


def row_strides(dims: tuple[int, ...]) -> tuple[int, ...]:
    """Row-major strides: stride of dimension k = product of dims k+1..n."""
    strides = [1] * len(dims)
    for k in range(len(dims) - 2, -1, -1):
        strides[k] = strides[k + 1] * dims[k + 1]
    return tuple(strides)


def _offset2(i: str, j: str, cols: str) -> str:
    """The rank-2 row-major offset of ``(i, j)``, as source."""
    return f"({i} - 1) * {cols} + {j} - 1"


# The one index rule of every I-structure store, as source: an index is
# exactly an ``int`` (``type(i) is int`` — no ``bool``, no other
# subclass), in ``1..dim``, and the tuple has exactly ``len(dims)``
# entries; anything else is ``BoundsViolation(label, indices, dims)``.
# What passes binds ``off``, the row-major flat offset, and runs the
# accessor's body.  Rank 2 — every array the timed workloads allocate —
# is unrolled with the bounds captured; any other rank keeps the loop.
_RANK2_RULE = f"""\
if len(indices) == 2:
    i, j = indices
    if (type(i) is int and type(j) is int
            and 1 <= i <= d0 and 1 <= j <= d1):
        off = {_offset2("i", "j", "d1")}
{{body}}
raise BoundsViolation(label, indices, dims)
"""

_RANK_N_RULE = """\
if len(indices) != rank:
    raise BoundsViolation(label, indices, dims)
off = 0
for idx, dim, stride in zip(indices, dims, strides):
    if type(idx) is not int or idx < 1 or idx > dim:
        raise BoundsViolation(label, indices, dims)
    off += (idx - 1) * stride
{body}
"""

# The rule's present-element path as one condition, written inline by
# the interpreter into every clock-less read of rank 1 or 2: per
# subscript a type test (only where the writer does not know it is an
# ``int``) and the range test against the handle's probe extents, then
# the offset and a look in what the handle has seen present.  It holds
# only where the rule passes, so whatever fails it — an index out of
# range or not an ``int``, a rank the extents do not match, an element
# absent or not yet seen — goes to the handle's ``read``, which applies
# the rule whole.
def probe_source(subs: list[str], kinds: list, target: str, fields: dict,
                 fixed=(), span: tuple | None = None, hoist=None):
    """The probe condition of a read at ``subs`` (atoms whose types,
    where known, are ``kinds``) binding ``target``, the handle's
    ``seen``, ``ext``, ``rows`` and ``cols`` spelled as ``fields`` maps
    them; None where it could never hold: rank 3 or more, or a subscript
    known to be something other than an ``int``.

    Inside a loop, what the loop never changes is tested once: the
    tests of the subscripts at positions ``fixed`` and their term of the
    offset are sources ``hoist(source)`` names a local for, and a
    subscript that is the loop's own index, ``span = (index, lo, hi,
    typed)``, passes its range test at once where the local for
    ``typed`` (the bounds' type tests) ``1 <= lo and hi <= extent``
    holds.  The condition keeps its truth value at every iteration."""
    rank = len(subs)
    # (Loops, not comprehensions: the writer calls this per read, and
    # a comprehension is a frame of the run that writes the code.)
    if rank not in (1, 2) or kinds.count(int) + kinds.count(None) < rank:
        return None  # a subscript known to be no ``int``
    if rank == 1:
        extents, terms = [fields["ext"]], [subs[0]]
    else:
        extents = [fields["rows"], fields["cols"]]
        terms = [f"({subs[0]} - 1) * {extents[1]}", subs[1]]
    # Per subscript: its tests, and its term of the offset (less 1).
    tests, held, offset, fixed_offset = [], [], [], []
    for pos in range(rank):
        s, ext = subs[pos], extents[pos]
        test = f"1 <= {s} <= {ext}"
        if kinds[pos] is None:
            test = f"type({s}) is int and {test}"
        if pos in fixed:
            held.append(test)
            fixed_offset.append(terms[pos])
            continue
        if span is not None and s == span[0]:
            _, lo, hi, typed = span
            inside = hoist(f"{typed}1 <= {lo} and {hi} <= {ext}")
            test = f"({inside} or {test})"
        tests.append(test)
        offset.append(terms[pos])
    if held:
        ok = hoist(" and ".join(held))
        offset.append(hoist(f"{' + '.join(fixed_offset)} - 1 if {ok} else 0"))
        tests.insert(0, ok)
    else:
        offset[-1] += " - 1"
    tests.append(f"({target} := {fields['seen']}[{' + '.join(offset)}])"
                 " is not None")
    return " and ".join(tests)


# (name, params, rule, body, captured names) -> the compiled closure maker.
_makers: dict[tuple, object] = {}


def index_fn(name: str, label, dims: tuple[int, ...], body: str,
             params: str = "indices", **names):
    """``name(params)``: the index rule for extents ``dims`` on
    ``indices``, then ``body``.

    ``body`` is source lines run with ``off`` bound and ``names``
    captured; every path through it must ``return`` or ``raise``.  The function is
    generated per handle and specialised to its rank (the way
    ``dataclasses`` writes ``__init__``), so a store's present-element
    path is one Python frame with the rule inlined, and no store spells
    the rule a second time.  Only the closure is built per handle: the
    source is compiled once per key of ``_makers``.
    """
    free = dict(names, label=label, dims=dims)
    if len(dims) == 2:
        rule, pad = _RANK2_RULE, " " * 8
        free.update(d0=dims[0], d1=dims[1])
    else:
        rule, pad = _RANK_N_RULE, ""
        free.update(rank=len(dims), strides=row_strides(dims))
    key = (name, params, rule, body, tuple(free))
    make = _makers.get(key)
    if make is None:
        source = (f"def make({', '.join(free)}):\n"
                  f"    def {name}({params}):\n"
                  + indent(rule.format(body=indent(body.rstrip("\n"), pad)),
                           " " * 8)
                  + f"    return {name}\n")
        scope: dict = {}
        exec(compile(source, f"<index rule: {name}>", "exec"),
             {"BoundsViolation": BoundsViolation}, scope)
        make = _makers[key] = scope["make"]
    return make(**free)


def offset_fn(label, dims: tuple[int, ...]):
    """``indices -> row-major flat offset`` for extents ``dims``, built
    once: the index rule (:func:`index_fn`) and nothing else."""
    return index_fn("offset", label, dims, "return off")


class Handle:
    """What every store's I-structure handle gives the inline read: the
    list ``seen``, indexed by flat offset, of the elements this process
    has seen present (None otherwise), the extents the probe tests
    (``ext`` at rank 1, ``rows`` and ``cols`` at rank 2; 0 where they do
    not apply, or while there is no list), and ``reads``: the generated
    code counts each read the probe answers, and a shared store's
    ``read`` counts the rest, so every element read counts once.

    Every handle is named by ``ordinal``, its array's allocation
    ordinal: the label of its ``BoundsViolation``, its header and its
    telemetry on every store.  Its extents pass :func:`check_extents`
    before the store allocates anything.

    A store that mirrors (shared memory) builds the list on its
    handle's first ``read`` (:meth:`mirror`): one pointer per element,
    so a handle never read costs no memory per element.  Single
    assignment keeps every copy valid with no coherence work.
    """

    __slots__ = ("ordinal", "dims", "seen", "ext", "rows", "cols", "reads")

    def __init__(self, ordinal: int, dims: tuple[int, ...]) -> None:
        check_extents(dims)
        # No list yet: every probe fails until :meth:`probe`.
        self.ordinal = ordinal
        self.dims = dims
        self.seen = None
        self.ext = self.rows = self.cols = 0
        self.reads = 0

    def probe(self, seen: list) -> list:
        """Probe ``seen`` from now on, under this handle's extents."""
        dims = self.dims
        self.ext = dims[0] if len(dims) == 1 else 0
        self.rows, self.cols = dims if len(dims) == 2 else (0, 0)
        self.seen = seen
        return seen

    def mirror(self) -> list:
        """Build a mirroring store's list, on its first ``read``."""
        return self.probe([None] * flat_size(self.dims))


class SharedHandle(Handle):
    """A handle to an array every process of a run shares (``ShmArray``,
    ``DistArray``): its ``header`` over the identity space, and the
    access counters — declared here, once, for every shared store —
    which one process keeps per handle and reports summed
    (:meth:`totals`)."""

    __slots__ = ("header", "writes", "deferred_reads", "spin_wait_s",
                 "max_spin_wait_s", "replayed_present", "stall_reports",
                 "pages_touched")

    def __init__(self, ordinal: int, dims: tuple[int, ...], page_size: int,
                 identities: int) -> None:
        super().__init__(ordinal, dims)
        self.header = ArrayHeader(ordinal, dims, page_size, identities)
        self.writes = self.deferred_reads = 0
        self.replayed_present = self.stall_reports = 0
        self.spin_wait_s = self.max_spin_wait_s = 0.0
        self.pages_touched: set[int] = set()

    def waited(self, seconds: float) -> None:
        """Count a read that waited ``seconds`` for its element."""
        self.deferred_reads += 1
        self.spin_wait_s += seconds
        if seconds > self.max_spin_wait_s:
            self.max_spin_wait_s = seconds

    @staticmethod
    def totals(handles: list) -> dict:
        """One process's counters over ``handles``, as the fields of its
        :class:`~repro.runtime.spmd.WorkerTelemetry`: pages written by
        ordinal, the longest wait, the rest summed."""
        return {
            "shared_reads": sum(h.reads for h in handles),
            "shared_writes": sum(h.writes for h in handles),
            "deferred_reads": sum(h.deferred_reads for h in handles),
            "spin_wait_s": sum((h.spin_wait_s for h in handles), 0.0),
            "max_spin_wait_s": max((h.max_spin_wait_s for h in handles),
                                   default=0.0),
            "replayed_present": sum(h.replayed_present for h in handles),
            "stall_reports": sum(h.stall_reports for h in handles),
            "pages_touched": {h.ordinal: sorted(h.pages_touched)
                              for h in handles if h.pages_touched},
        }


def num_pages(total_elements: int, page_size: int) -> int:
    """Number of pages covering ``total_elements`` (last page may be short)."""
    return (total_elements + page_size - 1) // page_size


def segment_of_page(page: int, pages: int, pes: int) -> int:
    """PE owning ``page`` when ``pages`` pages are dealt to ``pes`` segments.

    Segments are contiguous page ranges "of approximately equal size,
    assigned sequentially" (Section 4.1).  The first ``pages % pes``
    segments receive one extra page.
    """
    if page < 0 or page >= pages:
        raise PartitionError(f"page {page} outside 0..{pages - 1}")
    base, extra = divmod(pages, pes)
    # Pages 0 .. extra*(base+1)-1 belong to the first `extra` (larger) PEs.
    boundary = extra * (base + 1)
    if page < boundary:
        return page // (base + 1)
    if base == 0:
        # More PEs than pages: pages beyond the boundary do not exist.
        raise PartitionError(f"page {page} unassignable: {pages} pages, {pes} PEs")
    return extra + (page - boundary) // base


def segment_page_range(pe: int, pages: int, pes: int) -> tuple[int, int]:
    """Half-open page range [lo, hi) owned by ``pe``."""
    if pe < 0 or pe >= pes:
        raise PartitionError(f"PE {pe} outside 0..{pes - 1}")
    base, extra = divmod(pages, pes)
    if pe < extra:
        lo = pe * (base + 1)
        hi = lo + base + 1
    else:
        lo = extra * (base + 1) + (pe - extra) * base
        hi = lo + base
    return lo, hi


@dataclass(frozen=True)
class ArrayHeader:
    """Per-PE bookkeeping for one distributed I-structure array.

    Built by the Array Manager at allocation time on every PE (the
    distributing allocate broadcasts the request so all PEs agree on the
    array ID and layout, Section 4.1).

    Attributes:
        array_id: Machine-wide identifier.
        dims: Extents per dimension; index k of dimension d runs 1..dims[d].
        page_size: Elements per page.
        num_pes: Number of segments the pages are dealt into.
    """

    array_id: int
    dims: tuple[int, ...]
    page_size: int
    num_pes: int

    def __post_init__(self) -> None:
        if not self.dims:
            raise PartitionError("arrays need at least one dimension")
        if any(d < 1 for d in self.dims):
            raise PartitionError(f"non-positive dimension in {self.dims}")
        # Per-PE segment_bounds cache (header geometry is immutable;
        # the frozen dataclass requires the object.__setattr__ detour).
        object.__setattr__(self, "_seg_bounds", {})

    # -- geometry -----------------------------------------------------
    #
    # All geometry is a pure function of the frozen fields, so it is
    # computed once and cached (cached_property stores into __dict__,
    # which bypasses the frozen __setattr__).  The simulator hits
    # offset()/segment_bounds() on every array access — recomputing
    # strides and page counts per element dominated its profile.

    @cached_property
    def total_elements(self) -> int:
        return flat_size(self.dims)

    @cached_property
    def pages(self) -> int:
        return num_pages(self.total_elements, self.page_size)

    @cached_property
    def strides(self) -> tuple[int, ...]:
        return row_strides(self.dims)

    @cached_property
    def offset(self):
        """Row-major flat offset of a 1-based index tuple (bounds-checked)."""
        return offset_fn(self.array_id, self.dims)

    def indices_of(self, offset: int) -> tuple[int, ...]:
        """Inverse of :meth:`offset` (1-based indices from a flat offset)."""
        if offset < 0 or offset >= self.total_elements:
            raise BoundsViolation(self.array_id, (offset,), self.dims)
        out = []
        for stride in self.strides:
            out.append(offset // stride + 1)
            offset %= stride
        return tuple(out)

    # -- ownership ----------------------------------------------------

    def page_of(self, offset: int) -> int:
        return offset // self.page_size

    def owner_of_offset(self, offset: int) -> int:
        """PE owning the element at ``offset``."""
        return segment_of_page(self.page_of(offset), self.pages, self.num_pes)

    def owner_of(self, indices: tuple[int, ...]) -> int:
        return self.owner_of_offset(self.offset(indices))

    def segment_bounds(self, pe: int) -> tuple[int, int]:
        """Half-open flat-offset range [lo, hi) held locally by ``pe``.

        ``hi`` is clipped to the array size because the final page may be
        partial.
        """
        bounds = self._seg_bounds.get(pe)
        if bounds is None:
            page_lo, page_hi = segment_page_range(pe, self.pages,
                                                  self.num_pes)
            lo = page_lo * self.page_size
            hi = min(page_hi * self.page_size, self.total_elements)
            if lo > hi:
                lo = hi
            bounds = self._seg_bounds[pe] = (lo, hi)
        return bounds

    # -- Range Filter support (Sections 4.2.2-4.2.3) --------------------

    def responsible_rows(self, pe: int) -> tuple[int, int]:
        """1-based inclusive row range [lo, hi] this PE is responsible for.

        Uses the first-element-ownership rule of Section 4.2.3: "the PE
        holding the first element of any given row is responsible for the
        entire row".  Returns (1, 0) — an empty range — when the PE owns
        no row starts.
        """
        return self.responsible_range(pe, (), 0)

    def responsible_range(self, pe: int, fixed: tuple[int, ...],
                          dim: int) -> tuple[int, int]:
        """First-element responsibility generalized to inner dimensions.

        ``fixed`` pins subscript positions 0..dim-1 (1-based index
        values); the returned 1-based inclusive range [lo, hi] covers the
        values k of subscript position ``dim`` whose sub-slice
        ``A[fixed..., k, *]`` starts inside this PE's segment.  This is
        what the paper's inner-loop RF computes: "the legal ranges for j
        depend on i" (Section 4.2.2).
        """
        if not 0 <= dim < len(self.dims):
            raise PartitionError(f"RF dimension {dim} out of range for "
                                 f"dims {self.dims}")
        if len(fixed) != dim:
            raise PartitionError(
                f"RF needs {dim} fixed leading indices, got {len(fixed)}")
        seg_lo, seg_hi = self.segment_bounds(pe)
        if seg_lo >= seg_hi:
            return (1, 0)
        strides = self.strides
        base = 0
        for pos, idx in enumerate(fixed):
            if idx < 1 or idx > self.dims[pos]:
                raise BoundsViolation(self.array_id, tuple(fixed), self.dims)
            base += (idx - 1) * strides[pos]
        st = strides[dim]
        # Smallest k >= 1 with base + (k-1)*st >= seg_lo.
        delta = seg_lo - base
        lo = max(1, -((-delta) // st) + 1)  # ceil(delta/st) + 1
        # Largest k with base + (k-1)*st < seg_hi.
        hi = (seg_hi - 1 - base) // st + 1
        hi = min(hi, self.dims[dim])
        if lo > hi:
            return (1, 0)
        return (lo, hi)

    def filtered_range(
        self, pe: int, init: int, limit: int, descending: bool = False,
        fixed: tuple[int, ...] = (), dim: int = 0,
    ) -> tuple[int, int]:
        """Range Filter: clamp a loop range to this PE's responsibility.

        For an ascending loop ``for i = init to limit`` the paper replaces
        ``init`` with ``max(init, start_range)`` and the test bound with
        ``min(limit, end_range)`` (Figure 5); for a descending loop the
        min and max are interchanged.  Returns (first, last) in iteration
        order; an empty range is any pair that the loop test immediately
        rejects.
        """
        lo, hi = self.responsible_range(pe, fixed, dim)
        if lo > hi:
            # Empty responsibility: return an immediately-false range.
            return (1, 0) if not descending else (0, 1)
        if descending:
            # Loop runs init downto limit.
            first = min(init, hi)
            last = max(limit, lo)
            return (first, last)
        first = max(init, lo)
        last = min(limit, hi)
        return (first, last)


def page_map_diagram(header: ArrayHeader) -> str:
    """ASCII page->PE map in the style of the paper's Figure 4.

    Each printed digit is one page, labeled with its owning PE numbered
    from 1 as in the paper.  Rows of the diagram are rows of the array.
    """
    if len(header.dims) != 2:
        raise PartitionError("page_map_diagram renders 2-D arrays only")
    rows, cols = header.dims
    pages_per_row = max(1, cols // header.page_size)
    lines = []
    for r in range(rows):
        cells = []
        for p in range(pages_per_row):
            offset = r * cols + p * header.page_size
            cells.append(str(header.owner_of_offset(offset) + 1))
        lines.append(" ".join(cells))
    return "\n".join(lines)


def index_space_diagram(header: ArrayHeader) -> str:
    """ASCII responsible-row map in the style of the paper's Figure 6.

    Every page slot of row i is labeled with the PE *responsible for
    computing* row i under the first-element-ownership rule, which may
    differ from the page's owner (that difference is what forces the
    remote writes discussed in Section 4.2.3).
    """
    if len(header.dims) != 2:
        raise PartitionError("index_space_diagram renders 2-D arrays only")
    rows, cols = header.dims
    pages_per_row = max(1, cols // header.page_size)
    responsible = {}
    for pe in range(header.num_pes):
        lo, hi = header.responsible_rows(pe)
        for i in range(lo, hi + 1):
            responsible[i] = pe
    lines = []
    for r in range(1, rows + 1):
        label = str(responsible.get(r, 0) + 1)
        lines.append(" ".join([label] * pages_per_row))
    return "\n".join(lines)
