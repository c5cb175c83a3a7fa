"""Tests for row-major paging, segments, ownership and Range-Filter math."""

import enum
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.baseline.sequential import SeqArray
from repro.common.errors import BoundsViolation, PartitionError
from repro.parallel.shm_arrays import ShmArray
from repro.runtime.arrays import (
    ArrayHeader,
    flat_size,
    index_space_diagram,
    num_pages,
    offset_fn,
    page_map_diagram,
    row_strides,
    segment_of_page,
    segment_page_range,
)


class TestGeometry:
    def test_flat_size(self):
        assert flat_size((6, 256)) == 1536
        assert flat_size((5,)) == 5
        assert flat_size((2, 3, 4)) == 24

    def test_row_strides(self):
        assert row_strides((6, 256)) == (256, 1)
        assert row_strides((2, 3, 4)) == (12, 4, 1)
        assert row_strides((7,)) == (1,)

    def test_num_pages_exact_and_partial(self):
        assert num_pages(1536, 32) == 48
        assert num_pages(33, 32) == 2
        assert num_pages(32, 32) == 1
        assert num_pages(1, 32) == 1

    def test_offset_row_major(self):
        h = ArrayHeader(1, (6, 256), 32, 4)
        assert h.offset((1, 1)) == 0
        assert h.offset((1, 256)) == 255
        assert h.offset((2, 1)) == 256
        assert h.offset((6, 256)) == 1535

    def test_offset_3d(self):
        h = ArrayHeader(1, (2, 3, 4), 8, 2)
        assert h.offset((1, 1, 1)) == 0
        assert h.offset((2, 3, 4)) == 23
        assert h.offset((1, 2, 3)) == 6

    def test_indices_roundtrip(self):
        h = ArrayHeader(1, (4, 5, 6), 16, 3)
        for off in range(h.total_elements):
            assert h.offset(h.indices_of(off)) == off

    def test_bounds_checked(self):
        h = ArrayHeader(7, (3, 3), 32, 2)
        with pytest.raises(BoundsViolation):
            h.offset((0, 1))
        with pytest.raises(BoundsViolation):
            h.offset((4, 1))
        with pytest.raises(BoundsViolation):
            h.offset((1, 4))
        with pytest.raises(BoundsViolation):
            h.offset((1,))

    def test_rejects_bad_dims(self):
        with pytest.raises(PartitionError):
            ArrayHeader(1, (), 32, 1)
        with pytest.raises(PartitionError):
            ArrayHeader(1, (0, 4), 32, 1)


def _expected(indices, dims):
    return sum((i - 1) * stride
               for i, stride in zip(indices, row_strides(dims)))


class _Two(enum.IntEnum):
    TWO = 2


class TestOneIndexRule:
    """``offset_fn`` is the index rule of every I-structure store: the
    header (``sim``, ``dist``), ``SeqArray`` (``seq``, ``static``) and
    ``ShmArray`` (``parallel``) agree on every offset and every refusal."""

    @pytest.fixture(params=[(5,), (3, 4), (2, 3, 4)],
                    ids=["rank1", "rank2", "rank3"])
    def stores(self, request):
        dims = request.param
        shm = ShmArray(f"test_pods_rule{len(dims)}", dims, create=True)
        try:
            yield dims, {"offset_fn": offset_fn("x", dims),
                         "ArrayHeader": ArrayHeader(7, dims, 4, 2).offset,
                         "SeqArray": SeqArray(dims).offset,
                         "ShmArray": shm.offset}
        finally:
            shm.close()
            shm.unlink()

    def test_every_store_computes_the_same_offset(self, stores):
        dims, offsets = stores
        header = ArrayHeader(7, dims, 4, 2)
        for indices in itertools.product(*(range(1, d + 1) for d in dims)):
            want = _expected(indices, dims)
            assert header.indices_of(want) == indices
            for store, offset in offsets.items():
                assert offset(indices) == want, store

    def test_every_store_refuses_the_same_tuples(self, stores):
        dims, offsets = stores
        ok = (1,) * len(dims)
        bad = [ok[:-1], ok + (1,)]                     # short, long
        for pos, dim in enumerate(dims):
            # ``_Two.TWO`` is in range by value: the rule is exactly
            # ``int``, so a subclass is refused like ``True`` is.
            for idx in (0, dim + 1, -1, 2.0, True, _Two.TWO):
                bad.append(ok[:pos] + (idx,) + ok[pos + 1:])
        for indices in bad:
            for store, offset in offsets.items():
                with pytest.raises(BoundsViolation) as exc:
                    offset(indices)
                assert exc.value.indices == indices, store
                assert exc.value.dims == dims, store

    @given(dims=st.lists(st.integers(1, 40), min_size=1, max_size=4)
           .map(tuple), data=st.data())
    def test_offset_is_row_major_and_inverts_indices_of(self, dims, data):
        indices = tuple(data.draw(st.integers(1, d)) for d in dims)
        off = offset_fn("x", dims)(indices)
        assert off == _expected(indices, dims)
        assert ArrayHeader(1, dims, 32, 2).indices_of(off) == indices

    def test_headers_stay_equal_after_offset_is_used(self):
        used, fresh = ArrayHeader(3, (4, 5), 8, 2), ArrayHeader(3, (4, 5), 8, 2)
        assert used.offset((2, 3)) == 7 and used.owner_of((2, 3)) == 0
        assert used == fresh and hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert len({used: 1, fresh: 2}) == 1


class TestSegments:
    def test_even_split(self):
        # 48 pages over 4 PEs -> 12 each (the Figure 4 example).
        for pe in range(4):
            lo, hi = segment_page_range(pe, 48, 4)
            assert hi - lo == 12
            assert lo == pe * 12

    def test_uneven_split_first_pes_get_extra(self):
        # 10 pages over 4 PEs -> 3,3,2,2.
        sizes = [segment_page_range(pe, 10, 4) for pe in range(4)]
        assert [hi - lo for lo, hi in sizes] == [3, 3, 2, 2]
        # Contiguous and in order.
        assert sizes[0][0] == 0
        for (lo1, hi1), (lo2, _) in zip(sizes, sizes[1:]):
            assert hi1 == lo2
        assert sizes[-1][1] == 10

    def test_segment_of_page_matches_ranges(self):
        for pages, pes in [(48, 4), (10, 4), (7, 3), (5, 5), (13, 8)]:
            for page in range(pages):
                pe = segment_of_page(page, pages, pes)
                lo, hi = segment_page_range(pe, pages, pes)
                assert lo <= page < hi

    def test_more_pes_than_pages(self):
        # 2 pages, 5 PEs: PEs 0 and 1 get a page each, rest get nothing.
        assert segment_page_range(0, 2, 5) == (0, 1)
        assert segment_page_range(1, 2, 5) == (1, 2)
        assert segment_page_range(2, 2, 5) == (2, 2)
        assert segment_page_range(4, 2, 5) == (2, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(PartitionError):
            segment_of_page(48, 48, 4)
        with pytest.raises(PartitionError):
            segment_page_range(4, 48, 4)


class TestFigure4:
    """The paper's 6x256-over-4-PEs example, reproduced exactly."""

    @pytest.fixture
    def header(self):
        return ArrayHeader(1, (6, 256), 32, 4)

    def test_48_pages_12_per_pe(self, header):
        assert header.pages == 48
        for pe in range(4):
            lo, hi = header.segment_bounds(pe)
            assert hi - lo == 384  # 12 pages * 32 elements

    def test_page_map_matches_figure_4(self, header):
        # Figure 4 shows, with 8 pages per row (256/32):
        # row 0: all PE1; row 1: 4xPE1 then 4xPE2; row 2: all PE2;
        # row 3: all PE3; row 4: 4xPE3 then 4xPE4; row 5: all PE4.
        expected = "\n".join([
            "1 1 1 1 1 1 1 1",
            "1 1 1 1 2 2 2 2",
            "2 2 2 2 2 2 2 2",
            "3 3 3 3 3 3 3 3",
            "3 3 3 3 4 4 4 4",
            "4 4 4 4 4 4 4 4",
        ])
        assert page_map_diagram(header) == expected

    def test_owner_of_individual_elements(self, header):
        assert header.owner_of((1, 1)) == 0
        assert header.owner_of((2, 128)) == 0
        assert header.owner_of((2, 129)) == 1
        assert header.owner_of((6, 256)) == 3


class TestFigure6:
    """First-element-ownership responsibility (index-space partitioning)."""

    @pytest.fixture
    def header(self):
        return ArrayHeader(1, (6, 256), 32, 4)

    def test_responsible_rows_match_figure_6(self, header):
        # PE1 computes rows 0-1 (1-based: 1-2), PE2 row 2 (3), PE3 rows
        # 3-4 (4-5), PE4 row 5 (6).
        assert header.responsible_rows(0) == (1, 2)
        assert header.responsible_rows(1) == (3, 3)
        assert header.responsible_rows(2) == (4, 5)
        assert header.responsible_rows(3) == (6, 6)

    def test_index_space_diagram_matches_figure_6(self, header):
        expected = "\n".join([
            "1 1 1 1 1 1 1 1",
            "1 1 1 1 1 1 1 1",
            "2 2 2 2 2 2 2 2",
            "3 3 3 3 3 3 3 3",
            "3 3 3 3 3 3 3 3",
            "4 4 4 4 4 4 4 4",
        ])
        assert index_space_diagram(header) == expected

    def test_rows_disjoint_and_cover(self, header):
        seen = {}
        for pe in range(4):
            lo, hi = header.responsible_rows(pe)
            for i in range(lo, hi + 1):
                assert i not in seen, f"row {i} assigned twice"
                seen[i] = pe
        assert sorted(seen) == list(range(1, 7))


class TestRangeFilter:
    def test_ascending_clamp(self):
        h = ArrayHeader(1, (6, 256), 32, 4)
        # PE0 is responsible for rows 1..2.
        assert h.filtered_range(0, 1, 6) == (1, 2)
        assert h.filtered_range(1, 1, 6) == (3, 3)
        # Loop bounds narrower than the responsibility window.
        assert h.filtered_range(0, 2, 6) == (2, 2)
        # Disjoint loop bounds give an empty (immediately false) range.
        first, last = h.filtered_range(0, 4, 6)
        assert first > last

    def test_descending_clamp(self):
        h = ArrayHeader(1, (6, 256), 32, 4)
        # Loop runs 6 downto 1; PE2 responsible for rows 4..5.
        assert h.filtered_range(2, 6, 1, descending=True) == (5, 4)
        first, last = h.filtered_range(0, 6, 4, descending=True)
        # PE0's rows 1..2 don't intersect 4..6: empty for a downto loop.
        assert first < last

    def test_single_pe_gets_everything(self):
        h = ArrayHeader(1, (16, 16), 32, 1)
        assert h.responsible_rows(0) == (1, 16)
        assert h.filtered_range(0, 1, 16) == (1, 16)

    def test_pe_with_no_rows(self):
        # 1 page, 4 PEs: only PE0 has data.
        h = ArrayHeader(1, (4, 4), 32, 4)
        assert h.responsible_rows(0) == (1, 4)
        for pe in (1, 2, 3):
            lo, hi = h.responsible_rows(pe)
            assert lo > hi

    def test_small_rows_many_per_page(self):
        # 8x4 array, page 32 -> 1 page holds all 32 elements on PE0 of 2.
        h = ArrayHeader(1, (8, 4), 32, 2)
        assert h.responsible_rows(0) == (1, 8)
        lo, hi = h.responsible_rows(1)
        assert lo > hi

    def test_row_boundary_not_page_aligned(self):
        # 4x6 = 24 elements, page 4 -> 6 pages, 2 PEs -> 3 pages each
        # (offsets 0..11 and 12..23).  Rows start at 0,6,12,18.
        h = ArrayHeader(1, (4, 6), 4, 2)
        assert h.responsible_rows(0) == (1, 2)
        assert h.responsible_rows(1) == (3, 4)


class TestLocality:
    def test_is_local(self):
        h = ArrayHeader(1, (6, 256), 32, 4)
        assert h.is_local(0, 0)
        assert h.is_local(383, 0)
        assert not h.is_local(384, 0)
        assert h.is_local(384, 1)
        assert h.is_local(1535, 3)

    def test_last_partial_page_clipped(self):
        # 10 elements, page 4 -> 3 pages (4,4,2), 3 PEs -> 1 page each.
        h = ArrayHeader(1, (10,), 4, 3)
        assert h.segment_bounds(0) == (0, 4)
        assert h.segment_bounds(1) == (4, 8)
        assert h.segment_bounds(2) == (8, 10)
