"""The node's I-structure memory as a unit: in process, in milliseconds.

:class:`repro.dist.memory.NodeMemory` is pure — no loop, no socket, no
clock — so everything the ``dist`` backend's element storage promises
(presence, FIFO deferred readers, single assignment, replay verify, run
replies, fencing a dead reader) is pinned here without a cluster, and
the one thing its lock exists for — no lost wake-up between a reader
parking and a writer storing — under real threads.
"""

import concurrent.futures as cf
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SingleAssignmentViolation
from repro.dist.memory import NodeMemory
from repro.dist.transport import _MAX_FRAME, encode_frame

PAGE = 4


def test_write_then_read():
    mem = NodeMemory(PAGE)
    assert mem.write(1, 5, 2.5) == []
    assert mem.read(1, 5, "never parked") == 2.5
    assert mem.write(1, 5, 2.5, replay=True) == []  # nobody was waiting


def test_read_parks_then_write_releases_fifo():
    mem = NodeMemory(PAGE)
    waiters = [("local", "f1"), ("remote", 2), ("local", "f2"),
               ("remote", 1)]
    for waiter in waiters:
        assert mem.read(3, 9, waiter) is None
    assert mem.read(3, 8, ("local", "other element")) is None
    # Local and remote waiters come back in arrival order, once.
    assert mem.write(3, 9, 7.0) == waiters
    assert mem.read(3, 9, ("local", "late")) == 7.0
    assert mem.write(3, 8, 1.0) == [("local", "other element")]


def test_second_write_raises():
    mem = NodeMemory(PAGE)
    mem.write(1, 0, 1.0)
    with pytest.raises(SingleAssignmentViolation):
        mem.write(1, 0, 1.0)
    with pytest.raises(SingleAssignmentViolation):
        mem.write(1, 0, 2.0)
    assert mem.take_replayed() == 0


def test_replay_verifies_and_counts():
    mem = NodeMemory(PAGE)
    mem.write(1, 0, 1.0)
    mem.write(1, 1, 4.0, replay=True)  # absent: an ordinary write
    assert mem.write(1, 0, 1.0, replay=True) == []
    assert mem.write(1, 0, 1.0, replay=True) == []
    with pytest.raises(SingleAssignmentViolation):
        mem.write(1, 0, 9.0, replay=True)
    assert mem.snapshot() == {1: {0: 1.0, 1: 4.0}}
    assert mem.take_replayed() == 2
    assert mem.take_replayed() == 0  # drained


def test_run_reply_holds_present_elements_only():
    mem = NodeMemory(PAGE)
    for off, value in [(4, 0.5), (6, 1.5), (8, 2.5), (3, 3.5)]:
        mem.write(2, off, value)
    # One page: the run starts at the page, None marks an absent element
    # and the run ends at the page's last present one.
    assert mem.page(2, 6, PAGE) == (4, [0.5, None, 1.5])
    assert mem.page(2, 5, PAGE) == (4, [0.5, None, 1.5])  # absent element
    # Two pages, clipped to what this node stores (offsets 0..11).
    assert mem.page(2, 6, 2 * PAGE) == (4, [0.5, None, 1.5, None, 2.5])
    assert mem.page(2, 1, 64 * PAGE) == (0, [None, None, None, 3.5, 0.5,
                                             None, 1.5, None, 2.5])
    assert mem.page(2, 12, PAGE) == (12, [])
    assert mem.page(7, 0, PAGE) == (0, [])  # an array no frame has named yet


def test_run_shorter_than_a_page_holds_the_element():
    # A run is capped in elements, not pages: past the cap a page is cut
    # into run-sized slices and the reply is the requested element's.
    big, n = 1 << 20, 2048
    mem = NodeMemory(big)
    off = big - 3
    for o in (off - 1, off, big - 1):
        mem.write(1, o, float(o))
    lo, values = mem.page(1, off, n)
    assert lo == big - n and len(values) == n
    assert values[off - lo] == float(off)
    assert values[-1] == float(big - 1)
    assert values.count(None) == n - 3
    frame = encode_frame({"t": "rdy", "a": 1, "lo": lo, "v": values})
    assert len(frame) < _MAX_FRAME


def test_dropping_a_dead_nodes_waiters_keeps_local_ones():
    mem = NodeMemory(PAGE)
    mem.read(1, 0, ("remote", 2))
    mem.read(1, 0, ("local", "f"))
    mem.read(1, 0, ("remote", 1))
    mem.read(1, 1, ("remote", 2))
    mem.drop_waiters(lambda w: w == ("remote", 2))
    assert mem.write(1, 0, 1.0) == [("local", "f"), ("remote", 1)]
    assert mem.write(1, 1, 1.0) == []


def test_seed_is_monotone():
    mem = NodeMemory(PAGE)
    mem.seed(1, 2, 5.0)
    mem.seed(1, 2, 6.0)  # present stays
    mem.write(1, 3, 7.0)
    mem.seed(1, 3, 8.0)
    assert mem.snapshot() == {1: {2: 5.0, 3: 7.0}}
    assert mem.write(1, 2, 5.0, replay=True) == []  # what a resume does
    assert mem.take_replayed() == 1


def test_snapshot_while_another_thread_writes():
    mem = NodeMemory(PAGE)
    total, errors = 4000, []

    def writer():
        try:
            for off in range(total):
                mem.write(off % 3, off, float(off))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    thread = threading.Thread(target=writer)
    thread.start()
    while thread.is_alive():
        for vals in mem.snapshot().values():
            assert all(v == float(off) for off, v in vals.items())
    thread.join(timeout=30)
    assert not thread.is_alive() and not errors
    assert sum(len(v) for v in mem.snapshot().values()) == total


@given(ops=st.lists(
    st.tuples(st.sampled_from(["write", "local", "remote", "replay"]),
              st.integers(1, 2), st.integers(0, 11), st.integers(0, 2)),
    max_size=120),
    n=st.sampled_from([PAGE // 2, PAGE, 2 * PAGE, 4 * PAGE]))
def test_every_waiter_released_once_with_the_written_value(ops, n):
    """Random write / local read / remote read / replay write against a
    dict model: a waiter is released exactly once, by the write, with
    the written value — never before it, never twice.  A run of ``n``
    from any element holds the model's values, None for the rest."""
    mem = NodeMemory(PAGE)
    model: dict[tuple[int, int], int] = {}
    parked: dict[tuple[int, int], list] = {}
    released, replayed, serial = [], 0, 0

    for op, a, off, value in ops:
        key = (a, off)
        if op in ("write", "replay"):
            replay = op == "replay"
            if key not in model:
                woken = mem.write(a, off, value, replay)
                model[key] = value
                assert woken == parked.pop(key, [])
                released += woken
            elif replay and model[key] == value:
                assert mem.write(a, off, value, replay) == []
                replayed += 1
            else:
                with pytest.raises(SingleAssignmentViolation):
                    mem.write(a, off, value, replay)
        else:
            serial += 1
            waiter = (op, serial)
            got = mem.read(a, off, waiter)
            if key in model:
                assert got == model[key]
            else:
                assert got is None
                parked.setdefault(key, []).append(waiter)

    assert len(released) == len(set(released))
    assert not set(released) & {w for q in parked.values() for w in q}
    assert mem.take_replayed() == replayed
    assert {(a, off): v for a, vals in mem.snapshot().items()
            for off, v in vals.items()} == model
    for a, off in model:
        lo, values = mem.page(a, off, n)
        assert lo == off // PAGE * PAGE + off % PAGE // n * n
        assert lo <= off < lo + len(values) <= lo + n
        assert values[-1] is not None
        assert values == [model.get((a, o))
                          for o in range(lo, lo + len(values))]
        assert not any((a, o) in model
                       for o in range(lo + len(values), lo + n))


def test_no_lost_wakeup_under_threads():
    """Two writer threads over disjoint offsets, one reader parking a
    future on every element as fast as it can: whichever side gets to an
    element first, every future ends up resolved with its value."""
    mem = NodeMemory(PAGE)
    total = 2000
    futures: list[cf.Future] = [cf.Future() for _ in range(total)]
    errors = []

    def writer(offsets):
        try:
            for off in offsets:
                for _kind, fut in mem.write(1, off, off * 0.5):
                    fut.set_result(off * 0.5)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def reader():
        try:
            for off, fut in enumerate(futures):
                value = mem.read(1, off, ("local", fut))
                if value is not None:
                    fut.set_result(value)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(range(0, total, 2),)),
               threading.Thread(target=writer, args=(range(1, total, 2),)),
               threading.Thread(target=reader)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # force the interleavings
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and not errors
    assert [f.result(timeout=0) for f in futures] == [
        off * 0.5 for off in range(total)]
