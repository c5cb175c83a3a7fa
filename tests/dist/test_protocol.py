"""A node's protocol as a unit: in process, in milliseconds.

:class:`repro.dist.protocol.NodeProtocol` is pure — no loop, no socket,
no clock — so everything a ``dist`` node's element storage promises
(presence, FIFO deferred readers, single assignment, replay verify, run
replies, dropping a dead reader, a checkpoint seed) is pinned here
through its events, and the one thing its lock exists for — no lost
wake-up between a reader parking and a writer storing — under real
threads.  ``tests/dist/test_cluster.py`` drives whole clusters of them.
"""

import concurrent.futures as cf
import sys
import threading

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import SingleAssignmentViolation
from repro.dist.protocol import RELEASE, REPORT, SEND, START, NodeProtocol
from repro.dist.transport import _MAX_FRAME, encode_frame
from repro.runtime.arrays import ArrayHeader

PAGE = 4


def _owner_of_all(nodes=3, dims=(48,), page=PAGE):
    """Node 0 of ``nodes``, owning every identity (it adopted them all,
    and every other node lives on as a reader), with arrays 1 and 2 of
    ``dims`` allocated."""
    proto = NodeProtocol(0, nodes, page, threading.Lock())
    for a in (1, 2):
        proto.array(ArrayHeader(a, dims, page, nodes))
    assert proto.control({"t": "ownermap", "owners": [0] * nodes,
                          "live": list(range(nodes))}) == []
    return proto


def _read(off, n=PAGE, a=1):
    return {"t": "read", "a": a, "off": off, "n": n}


def _rdy(lo, values, a=1):
    return {"t": "rdy", "a": a, "lo": lo, "v": values}


def _collect(proto, a=1):
    [(kind, msg)] = proto.control({"t": "collect", "a": a})
    assert kind == REPORT
    return msg["vals"]


def _replayed(proto):
    [(_, msg)] = proto.emit(0, 1, (0,), "done", {})
    return msg["telemetry"]["replayed_present"]


def test_write_then_read():
    proto = _owner_of_all()
    assert proto.write(1, 5, 2.5, False) == []
    assert proto.read(1, 5, PAGE, "reader") == (False, [
        (RELEASE, "reader", 2.5)])
    assert proto.write(1, 5, 2.5, True) == []  # nobody was waiting
    assert _replayed(proto) == 1


def test_read_parks_then_write_releases_fifo():
    proto = _owner_of_all()
    assert proto.read(1, 9, PAGE, "f1") == (False, [])
    assert proto.peer(2, _read(9)) == []
    assert proto.read(1, 9, PAGE, "f2") == (False, [])
    assert proto.peer(1, _read(9)) == []
    assert proto.read(1, 8, PAGE, "other element") == (False, [])
    # Local and remote waiters come back in arrival order, once; a peer
    # gets a run of the one element.
    assert proto.write(1, 9, 7.0, False) == [
        (RELEASE, "f1", 7.0), (SEND, 2, _rdy(9, [7.0])),
        (RELEASE, "f2", 7.0), (SEND, 1, _rdy(9, [7.0]))]
    assert proto.read(1, 9, PAGE, "late") == (False, [
        (RELEASE, "late", 7.0)])
    assert proto.write(1, 8, 1.0, False) == [(RELEASE, "other element", 1.0)]


def test_second_write_raises():
    proto = _owner_of_all()
    proto.write(1, 0, 1.0, False)
    with pytest.raises(SingleAssignmentViolation):
        proto.write(1, 0, 1.0, False)
    with pytest.raises(SingleAssignmentViolation):
        proto.write(1, 0, 2.0, False)
    assert _replayed(proto) == 0


def test_a_second_write_by_frame_is_a_reported_error():
    proto = _owner_of_all()
    proto.write(1, 0, 1.0, False)
    [(kind, err)] = proto.peer(1, {"t": "write", "a": 1, "off": 0, "v": 2.0,
                                   "replay": False})
    assert kind == REPORT and err["t"] == "err"
    assert err["code"] == SingleAssignmentViolation.code
    assert "write received from node 1" in err["detail"]
    assert _collect(proto) == {0: 1.0}


def test_replay_verifies_and_counts():
    proto = _owner_of_all()
    proto.write(1, 0, 1.0, False)
    proto.write(1, 1, 4.0, True)  # absent: an ordinary write
    assert proto.write(1, 0, 1.0, True) == []
    assert proto.write(1, 0, 1.0, True) == []
    with pytest.raises(SingleAssignmentViolation):
        proto.write(1, 0, 9.0, True)
    assert _collect(proto) == {0: 1.0, 1: 4.0}
    assert _replayed(proto) == 2
    assert _replayed(proto) == 0  # drained


def test_an_original_write_after_its_replay_is_no_violation():
    # A fenced node's own write can reach this owner after the takeover
    # replayed it and before the owner map that fences the writer.
    proto = _owner_of_all()
    proto.peer(1, {"t": "write", "a": 1, "off": 0, "v": 1.0,
                   "replay": True})
    assert proto.peer(2, {"t": "write", "a": 1, "off": 0, "v": 1.0,
                          "replay": False}) == []
    [(_, err)] = proto.peer(2, {"t": "write", "a": 1, "off": 0, "v": 2.0,
                                "replay": False})
    assert err["t"] == "err"  # a different value still violates
    with pytest.raises(SingleAssignmentViolation):
        proto.write(1, 0, 1.0, False)  # an executor here: two writers
    proto.write(1, 1, 1.0, False)  # stored by its original write
    with pytest.raises(SingleAssignmentViolation):
        proto.write(1, 1, 1.0, False)
    assert _replayed(proto) == 0


def test_run_reply_holds_present_elements_only():
    proto = _owner_of_all()
    for off, value in [(4, 0.5), (6, 1.5), (8, 2.5), (3, 3.5)]:
        proto.write(2, off, value, False)
    # One page: the run starts at the page, None marks an absent element
    # and the run ends at the page's last present one.
    assert proto.peer(1, _read(6, a=2)) == [
        (SEND, 1, _rdy(4, [0.5, None, 1.5], a=2))]
    # Two pages, and 64: each ends at the last present element.
    assert proto.peer(1, _read(6, 2 * PAGE, a=2)) == [
        (SEND, 1, _rdy(4, [0.5, None, 1.5, None, 2.5], a=2))]
    assert proto.peer(1, _read(3, 64 * PAGE, a=2)) == [
        (SEND, 1, _rdy(0, [None, None, None, 3.5, 0.5, None, 1.5, None,
                           2.5], a=2))]
    # An absent element parks, in an array a frame names first too.
    assert proto.peer(1, _read(5, a=2)) == []
    assert proto.peer(1, _read(0, a=7)) == []


def test_run_shorter_than_a_page_holds_the_element():
    # A run is capped in elements, not pages: past the cap a page is cut
    # into run-sized slices and the reply is the requested element's.
    big, n = 1 << 20, 2048
    proto = _owner_of_all(nodes=2, dims=(big,), page=big)
    off = big - 3
    for o in (off - 1, off, big - 1):
        proto.write(1, o, float(o), False)
    [(_, _, frame)] = proto.peer(1, _read(off, n))
    lo, values = frame["lo"], frame["v"]
    assert lo == big - n and len(values) == n
    assert values[off - lo] == float(off)
    assert values[-1] == float(big - 1)
    assert values.count(None) == n - 3
    assert len(encode_frame(frame)) < _MAX_FRAME


def _node0_of_3():
    """Node 0 of three with array 1 of (24,) in 4-element pages: it owns
    offsets 0..7, node 1 8..15, node 2 16..23."""
    proto = NodeProtocol(0, 3, PAGE, threading.Lock())
    proto.array(ArrayHeader(1, (24,), PAGE, 3))
    return proto


def test_a_run_never_overwrites_a_present_cell():
    proto = _node0_of_3()
    proto.write(1, 5, 1.0, False)  # owned, stored
    proto.write(1, 9, 2.0, False)  # node 1's: a copy kept here
    # Single assignment makes a run's value equal to the cell's; a run
    # that differed would still leave the cell as it is.
    assert proto.peer(1, _rdy(4, [7.0, 8.0, None, None, None, 9.0])) == []
    assert proto.segments[1].cells[4:10] == [7.0, 1.0, None, None, None,
                                             2.0]


def test_a_run_marks_held_first_only_on_owned_cells_it_fills():
    proto = _node0_of_3()
    proto.write(1, 5, 1.0, False)  # owned, stored by its own write
    proto.peer(1, _rdy(4, [0.5, 1.0, 1.5, None, 2.5, 3.5]))
    assert proto.held_first == {(1, 4), (1, 6)}
    # Their original writes verify, by frame as by a late local write.
    assert proto.peer(2, {"t": "write", "a": 1, "off": 4, "v": 0.5,
                          "replay": False}) == []
    assert _replayed(proto) == 0


def test_a_run_releases_the_readers_in_its_range_in_fifo_order():
    proto = _node0_of_3()
    assert proto.read(1, 9, 8, "w9") == (True, [
        (SEND, 1, _read(9, 8))])  # node 1's: pending here
    assert proto.read(1, 6, PAGE, "f1") == (False, [])  # owned: parked
    assert proto.peer(2, _read(6)) == []
    assert proto.read(1, 6, PAGE, "f2") == (False, [])
    assert proto.read(1, 4, PAGE, "g") == (False, [])
    assert proto.read(1, 12, PAGE, "beyond") == (True, [
        (SEND, 1, _read(12))])
    assert proto.peer(1, _rdy(4, [0.5, None, 1.5, None, None, 2.5])) == [
        (RELEASE, "g", 0.5), (RELEASE, "f1", 1.5),
        (SEND, 2, _rdy(6, [1.5])), (RELEASE, "f2", 1.5),
        (RELEASE, "w9", 2.5)]
    assert proto.segments[1].pending_offsets() == []
    assert list(proto.pending) == [(1, 12)]


def test_landing_a_run_costs_the_same_calls_at_any_length():
    """The host work of landing a ``rdy`` run is per run, not per
    element: the same Python calls (``sys.setprofile`` ``call`` events)
    for 32 elements as for 968, on another node's segment and on one
    the node owns."""
    def calls(n, lo):
        proto = NodeProtocol(0, 2, 32, threading.Lock())
        proto.array(ArrayHeader(1, (2048,), 32, 2))
        proto.read(1, lo + n // 2, 32, "waiter")
        rdy = _rdy(lo, [0.5 * k + 1 for k in range(n)])
        counted = []
        sys.setprofile(lambda frame, event, arg:
                       event == "call" and counted.append(1))
        try:
            actions = proto.peer(1, rdy)
        finally:
            sys.setprofile(None)
        assert [kind for kind, *_ in actions] == [RELEASE]
        return len(counted)

    for lo in (1024, 1024 - 16):  # node 1's cells; from node 0's
        assert calls(32, lo) == calls(968, lo) <= 17


def test_a_dead_nodes_parked_reads_drop_and_local_ones_stay():
    proto = _owner_of_all()
    proto.peer(2, _read(0))
    proto.read(1, 0, PAGE, "f")
    proto.peer(1, _read(0))
    proto.peer(2, _read(1))
    assert proto.control({"t": "ownermap", "owners": [0, 0, 0],
                          "live": [0, 1]}) == []  # node 2 fenced
    assert proto.write(1, 0, 1.0, False) == [
        (RELEASE, "f", 1.0), (SEND, 1, _rdy(0, [1.0]))]
    assert proto.write(1, 1, 1.0, False) == []
    assert proto.peer(2, _read(1)) == []  # a fenced node's frame is void


class _Restore:
    """A checkpoint's elements by ordinal, as ``ckpt.CkptRestore`` has."""

    def __init__(self, arrays):
        self.arrays = arrays

    def ordinals(self):
        return sorted(self.arrays)

    def array(self, ordinal):
        return self.arrays[ordinal]


def test_a_checkpoint_seeds_the_owned_elements_and_every_list():
    # Array 1 of (16,) at two nodes: node 0 owns offsets 0..7.
    proto = NodeProtocol(0, 2, PAGE, threading.Lock(),
                         _Restore({1: ((16,), {2: 5.0, 3: 7.0, 12: 8.0})}))
    [start] = proto.control({"t": "start", "owners": [0, 1], "live": [0, 1]})
    assert start == (START, (0,), 1, 0, True)  # a replay of its subrange
    assert _collect(proto) == {2: 5.0, 3: 7.0, 12: 8.0}  # every one held
    cells = proto.array(ArrayHeader(1, (16,), PAGE, 2))
    assert cells[:4] == [None, None, 5.0, 7.0]
    assert cells[12] == 8.0  # not owned, but held
    assert proto.write(1, 2, 5.0, True) == []  # what a resume does
    assert _replayed(proto) == 1
    assert proto.control({"t": "start", "owners": [0, 1],
                          "live": [0, 1]}) == []  # started once


def test_a_seed_leaves_a_present_element():
    # Seeding is monotone: a second seed of an element, or a seed after
    # its write, keeps the value already stored.
    restore = _Restore({1: ((16,), {2: 5.0})})
    proto = NodeProtocol(0, 2, PAGE, threading.Lock(), restore)
    proto._seed_restore()
    proto.write(1, 3, 7.0, False)
    restore.arrays[1] = ((16,), {2: 6.0, 3: 8.0})
    proto._seed_restore()
    assert _collect(proto) == {2: 5.0, 3: 7.0}
    assert proto.write(1, 2, 5.0, True) == []  # what a resume does
    assert _replayed(proto) == 1


def test_collect_while_another_thread_writes():
    proto = _owner_of_all(dims=(4000,))
    total, errors = 4000, []

    def writer():
        try:
            for off in range(total):
                proto.write(1 + off % 2, off, float(off), False)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    thread = threading.Thread(target=writer)
    thread.start()
    while thread.is_alive():
        for a in (1, 2):
            assert all(v == float(off)
                       for off, v in _collect(proto, a).items())
    thread.join(timeout=30)
    assert not thread.is_alive() and not errors
    assert len(_collect(proto, 1)) + len(_collect(proto, 2)) == total


@given(ops=st.lists(
    st.tuples(st.sampled_from(["write", "local", "remote", "replay"]),
              st.integers(1, 2), st.integers(0, 11), st.integers(0, 2)),
    max_size=120),
    n=st.sampled_from([PAGE // 2, PAGE, 2 * PAGE, 4 * PAGE]))
def test_every_waiter_released_once_with_the_written_value(ops, n):
    """Random write / local read / remote read / replay write against a
    dict model: a waiter is released exactly once, by the write, with
    the written value — never before it, never twice; a second write is
    a violation unless it is a replay of the value.  A run of ``n`` from
    any element holds the model's values, None for the rest."""
    proto = _owner_of_all(dims=(12,))
    model: dict[tuple[int, int], int] = {}
    parked: dict[tuple[int, int], list] = {}
    released, replayed, serial = [], 0, 0

    def woken(actions, a, off):
        out = []
        for act in actions:
            if act[0] == RELEASE:
                out.append(act[1])
                assert act[2] == model[(a, off)]
            else:
                assert act == (SEND, act[1], _rdy(off, [model[(a, off)]], a))
                out.append(act[1])
        return out

    for op, a, off, value in ops:
        key = (a, off)
        if op in ("write", "replay"):
            replay = op == "replay"
            if key not in model:
                actions = proto.write(a, off, value, replay)
                model[key] = value
                assert woken(actions, a, off) == parked.pop(key, [])
                released += [w for w in actions if w[0] == RELEASE]
            elif replay and model[key] == value:
                assert proto.write(a, off, value, replay) == []
                replayed += 1
            else:
                with pytest.raises(SingleAssignmentViolation):
                    proto.write(a, off, value, replay)
        elif op == "local":
            serial += 1
            waiter = f"reader {serial}"
            _, actions = proto.read(a, off, n, waiter)
            if key in model:
                assert actions == [(RELEASE, waiter, model[key])]
            else:
                assert actions == []
                parked.setdefault(key, []).append(waiter)
        else:
            actions = proto.peer(1, _read(off, n, a))
            if key not in model:
                assert actions == []
                parked.setdefault(key, []).append(1)

    assert len(released) == len(set(released))
    assert _replayed(proto) == replayed
    assert {(a, off): v for a in (1, 2)
            for off, v in _collect(proto, a).items()} == model
    for a, off in model:
        [(_, _, frame)] = proto.peer(2, _read(off, n, a))
        lo, values = frame["lo"], frame["v"]
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
    total = 2000
    proto = _owner_of_all(dims=(total,))
    futures: list[cf.Future] = [cf.Future() for _ in range(total)]
    errors = []

    def carry_out(actions):
        for kind, fut, value in actions:
            assert kind == RELEASE
            fut.set_result(value)

    def writer(offsets):
        try:
            for off in offsets:
                carry_out(proto.write(1, off, off * 0.5, False))
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    def reader():
        try:
            for off, fut in enumerate(futures):
                carry_out(proto.read(1, off, PAGE, fut)[1])
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
