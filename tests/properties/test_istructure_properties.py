"""Property tests on I-structure storage invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SingleAssignmentViolation
from repro.runtime.istructure import ABSENT, IStructureSegment, PageCache


@given(ops=st.lists(
    st.tuples(st.sampled_from(["write", "read", "defer"]),
              st.integers(0, 15), st.integers(-100, 100)),
    max_size=80,
))
def test_segment_invariants_under_random_ops(ops):
    """Random interleavings of write/read/defer keep the invariants:
    written-once values never change, deferred readers are woken exactly
    once by the single write, waiters wake FIFO."""
    seg = IStructureSegment(1, 0, 16)
    model: dict[int, int] = {}
    deferred: dict[int, list[str]] = {}
    waiter_id = 0

    for op, off, value in ops:
        if op == "write":
            if off in model:
                with pytest.raises(SingleAssignmentViolation):
                    seg.write(off, value)
            else:
                woken = seg.write(off, value)
                model[off] = value
                assert woken == deferred.pop(off, [])
        elif op == "read":
            present, got = seg.read(off)
            assert present == (off in model)
            if present:
                assert got == model[off]
        else:  # defer
            if off in model:
                with pytest.raises(RuntimeError):
                    seg.defer(off, "late")
            else:
                waiter_id += 1
                tag = f"w{waiter_id}"
                seg.defer(off, tag)
                deferred.setdefault(off, []).append(tag)

    # Leftover deferred readers are exactly the ones never written.
    assert seg.pending_offsets() == sorted(deferred)
    assert sum(1 for _ in seg.items()) == len(model)
    assert dict(seg.items()) == model


@given(
    writes=st.lists(st.tuples(st.integers(0, 31), st.integers(0, 1000)),
                    max_size=40),
)
def test_page_snapshot_reflects_exact_presence(writes):
    seg = IStructureSegment(1, 0, 32)
    model = {}
    for off, value in writes:
        if off not in model:
            seg.write(off, value)
            model[off] = value
    cells = seg.snapshot_page(0, 32)
    for off in range(32):
        if off in model:
            assert cells[off] == model[off]
        else:
            assert cells[off] is ABSENT


@given(
    entries=st.lists(
        st.tuples(st.integers(1, 3), st.integers(0, 5), st.integers(0, 100)),
        max_size=40),
)
def test_cache_never_fabricates_values(entries):
    """A cache hit always returns a value previously installed for that
    exact (array, page, offset)."""
    cache = PageCache()
    installed = {}
    for array_id, page, value in entries:
        page_lo = page * 8
        cells = [value + i for i in range(8)]
        cache.install(array_id, page, page_lo, cells)
        for i in range(8):
            installed[(array_id, page, page_lo + i)] = value + i
    for (array_id, page, offset), expect in installed.items():
        hit, got = cache.lookup(array_id, page, offset)
        assert hit and got == expect
