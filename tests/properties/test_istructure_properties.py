"""Property tests on I-structure storage invariants."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import compile_source
from repro.common.config import MachineConfig, SimConfig
from repro.common.errors import SingleAssignmentViolation
from repro.runtime.istructure import IStructureSegment
from repro.runtime.tokens import (
    PageResponseMsg,
    ReturnAddress,
    ValueResponseMsg,
)
from repro.sim import am
from repro.sim.machine import Machine


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
            assert seg.get(off) == model.get(off)
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
            assert cells[off] is None


PAGE = 8
_PROGRAM = compile_source("function main(n) { return n; }").pods
_WAITER = ReturnAddress(0, 0, 0)


def _land(messages):
    """PE 0 of two, after its Array Manager took ``messages`` (copies of
    array 1's page 1, which PE 1 owns) off the wire in order."""
    machine = Machine(_PROGRAM, SimConfig(machine=MachineConfig(
        num_pes=2, page_size=PAGE)))
    pe = machine.pes[0]
    am.install_header(machine, pe, 1, (2 * PAGE,))
    for msg in messages:
        if isinstance(msg, PageResponseMsg):
            am.page_response(machine, msg)
        else:
            am.value_response(machine, msg)
    return machine, pe


@given(data=st.data())
def test_copies_land_in_any_order_to_the_same_cells(data):
    """Page snapshots and value replies of one page, each carrying only
    the element's one value (single assignment), leave the reader's copy
    with every value they carried and nothing else, whatever the order
    they land in; and a read of each element sent is a hit.  A copy that
    a snapshot replaced would lose a reply landed before an older
    snapshot."""
    values = data.draw(st.lists(st.integers(0, 1000),
                                min_size=PAGE, max_size=PAGE))
    masks = data.draw(st.lists(
        st.lists(st.booleans(), min_size=PAGE, max_size=PAGE).filter(any),
        max_size=4))
    replies = data.draw(st.lists(st.integers(0, PAGE - 1), max_size=4,
                                 unique=True))
    messages = [
        PageResponseMsg(1, 0, 1, 1, PAGE,
                        tuple(v if p else None for v, p in zip(values, mask)),
                        PAGE + mask.index(True), _WAITER)
        for mask in masks
    ] + [ValueResponseMsg(1, 0, 1, PAGE + off, values[off], _WAITER)
         for off in replies]
    sent = set(replies).union(
        *({i for i, p in enumerate(mask) if p} for mask in masks))
    expect = [values[i] if i in sent else None for i in range(PAGE)]

    for order in (messages, data.draw(st.permutations(messages))):
        machine, pe = _land(order)
        copy = pe.copies.get((1, 1))
        assert (copy.cells if copy else [None] * PAGE) == expect
        for off in sorted(sent):
            am.read(machine, pe, 1, PAGE + off, _WAITER)
        assert pe.stats.cache_hits == len(sent)
