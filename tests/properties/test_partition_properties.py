"""Property tests on the partitioning math (paper Section 4.1-4.2)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.arrays import ArrayHeader, segment_of_page, segment_page_range


def is_local(header, offset, pe):
    """Whether ``pe``'s segment of ``header``'s array holds ``offset``."""
    lo, hi = header.segment_bounds(pe)
    return lo <= offset < hi


dims_2d = st.tuples(st.integers(1, 40), st.integers(1, 40))
dims_any = st.one_of(
    st.tuples(st.integers(1, 60)),
    dims_2d,
    st.tuples(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8)),
)
page_sizes = st.integers(1, 64)
pe_counts = st.integers(1, 33)


@given(pages=st.integers(1, 500), pes=pe_counts)
def test_segments_partition_pages(pages, pes):
    """Every page belongs to exactly one PE and ranges are contiguous."""
    covered = 0
    prev_hi = 0
    sizes = []
    for pe in range(pes):
        lo, hi = segment_page_range(pe, pages, pes)
        assert lo == prev_hi, "segments must be contiguous and ordered"
        prev_hi = hi
        sizes.append(hi - lo)
        for page in range(lo, hi):
            assert segment_of_page(page, pages, pes) == pe
        covered += hi - lo
    assert covered == pages
    # "approximately equal size": at most one page difference.
    nonzero = [s for s in sizes if s] or [0]
    assert max(sizes) - min(nonzero) <= 1


@given(dims=dims_any, page=page_sizes, pes=pe_counts)
def test_every_element_has_exactly_one_owner(dims, page, pes):
    h = ArrayHeader(1, dims, page, pes)
    for off in range(h.total_elements):
        owner = h.owner_of_offset(off)
        assert is_local(h, off, owner)
        for pe in range(pes):
            if pe != owner:
                assert not is_local(h, off, pe)


@given(dims=dims_any, page=page_sizes, pes=pe_counts)
def test_segment_bounds_partition_offsets(dims, page, pes):
    h = ArrayHeader(1, dims, page, pes)
    total = 0
    for pe in range(pes):
        lo, hi = h.segment_bounds(pe)
        assert 0 <= lo <= hi <= h.total_elements
        total += hi - lo
    assert total == h.total_elements


@given(dims=dims_2d, page=page_sizes, pes=pe_counts)
def test_responsible_rows_disjoint_cover(dims, page, pes):
    """First-element ownership assigns every row to exactly one PE."""
    h = ArrayHeader(1, dims, page, pes)
    assignment = {}
    for pe in range(pes):
        lo, hi = h.responsible_rows(pe)
        for row in range(lo, hi + 1):
            assert row not in assignment, "row assigned twice"
            assignment[row] = pe
    assert sorted(assignment) == list(range(1, dims[0] + 1))
    # The responsible PE indeed owns the row's first element.
    for row, pe in assignment.items():
        assert h.owner_of((row, 1) if len(dims) == 2 else (row,)) == pe


@given(dims=dims_2d, page=page_sizes, pes=pe_counts,
       init=st.integers(1, 40), limit=st.integers(1, 40),
       descending=st.booleans())
def test_filtered_ranges_partition_the_loop_range(dims, page, pes, init,
                                                  limit, descending):
    """The union of all PEs' Range-Filter outputs is exactly the original
    iteration set, with no overlap (Section 4.2.2)."""
    h = ArrayHeader(1, dims, page, pes)
    if descending:
        init, limit = max(init, limit), min(init, limit)
        wanted = set(range(limit, init + 1)) & set(range(1, dims[0] + 1))
    else:
        init, limit = min(init, limit), max(init, limit)
        wanted = set(range(init, limit + 1)) & set(range(1, dims[0] + 1))

    seen = set()
    for pe in range(pes):
        first, last = h.filtered_range(pe, init, limit, descending=descending)
        if descending:
            iters = range(first, last - 1, -1)
        else:
            iters = range(first, last + 1)
        for i in iters:
            assert i not in seen, f"iteration {i} runs on two PEs"
            seen.add(i)
    assert seen == wanted


@given(dims=dims_2d, page=page_sizes, pes=pe_counts,
       data=st.data())
def test_inner_dimension_ranges_partition_each_row(dims, page, pes, data):
    """The generalized RF (fixed leading indices) also tiles exactly:
    for every row k, the j-ranges over all PEs partition 1..cols."""
    h = ArrayHeader(1, dims, page, pes)
    k = data.draw(st.integers(1, dims[0]))
    seen = set()
    for pe in range(pes):
        first, last = h.filtered_range(pe, 1, dims[1], fixed=(k,), dim=1)
        for j in range(first, last + 1):
            assert j not in seen
            seen.add(j)
    assert seen == set(range(1, dims[1] + 1))


@given(dims=dims_any, page=page_sizes, pes=pe_counts)
@settings(max_examples=50)
def test_offset_indices_bijection(dims, page, pes):
    h = ArrayHeader(1, dims, page, pes)
    for off in range(0, h.total_elements,
                     max(1, h.total_elements // 37)):
        assert h.offset(h.indices_of(off)) == off
