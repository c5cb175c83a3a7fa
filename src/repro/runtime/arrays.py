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

from repro.common.errors import BoundsViolation, PartitionError


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


def offset_fn(label, dims: tuple[int, ...]):
    """``indices -> row-major flat offset`` for extents ``dims``, built once.

    The one index rule of every I-structure store: an index is exactly
    an ``int`` (``type(i) is int`` — no ``bool``, no other subclass), in
    ``1..dim``, and the tuple has exactly ``len(dims)`` entries; anything
    else is ``BoundsViolation(label, indices, dims)``.  Rank 2 — every
    array the timed workloads allocate — is unrolled with the bounds
    captured; any other rank keeps the generic loop.
    """
    if len(dims) == 2:
        d0, d1 = dims

        def offset(indices):
            if len(indices) == 2:
                i, j = indices
                if (type(i) is int and type(j) is int
                        and 1 <= i <= d0 and 1 <= j <= d1):
                    return (i - 1) * d1 + j - 1
            raise BoundsViolation(label, indices, dims)
    else:
        strides = row_strides(dims)

        def offset(indices):
            if len(indices) != len(dims):
                raise BoundsViolation(label, indices, dims)
            off = 0
            for idx, dim, stride in zip(indices, dims, strides):
                if type(idx) is not int or idx < 1 or idx > dim:
                    raise BoundsViolation(label, indices, dims)
                off += (idx - 1) * stride
            return off
    return offset


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

    def is_local(self, offset: int, pe: int) -> bool:
        lo, hi = self.segment_bounds(pe)
        return lo <= offset < hi

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
