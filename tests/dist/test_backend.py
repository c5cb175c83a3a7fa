"""End-to-end smoke for the ``dist`` backend: healthy runs, telemetry
surface, takeover healing and the structured node-loss abort.

The conformance suite covers value/metric/taxonomy parity across the
whole app catalog; these tests pin the backend-specific surfaces —
the :class:`DistResult` fields, the recovery ladder and the render
hooks — on one small program so they stay fast.
"""

import math
import queue
import sys
import threading
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import compile_source
from repro.apps.matmul import compile_matmul
from repro.backend import classify_error, get_backend, render_error
from repro.common.chaoslib import ROW_SWEEP
from repro.common.config import DistConfig
from repro.common.errors import NodeLossError
from repro.common.retry import RetryPolicy
from repro.dist.faults import DistFaultPlan
from repro.dist.node import DistArray, NodeRuntime, _NodeInterpreter
from repro.dist.protocol import RELEASE, REPORT, SEND, NodeProtocol
from repro.runtime.arrays import ArrayHeader

from tests.dist.test_cluster import Case, cases, run_case

# B's loop reads A mirrored (A[n+1-i]), so at 2+ nodes roughly half
# the reads are remote split-phase exchanges.  Every element of both
# arrays is written by exactly one distributed iteration — SPMD
# replication of serial code means a bare write outside a distributed
# loop would (correctly) trip single assignment on every node.
SOURCE = """
function main(n) {
    A = array(n);
    for i = 1 to n { A[i] = i * 1.0; }
    B = array(n);
    for i = 1 to n { B[i] = A[n + 1 - i] + A[i]; }
    s = 0.0;
    for i = 1 to n { next s = s + B[i]; }
    return s;
}
"""

# Tight supervision windows so failure scenarios resolve quickly.
FAST = dict(heartbeat_interval_s=0.04, heartbeat_timeout_s=0.6,
            poll_interval_s=0.02,
            retry=RetryPolicy(backoff_base_s=0.01, backoff_max_s=0.05))


@pytest.fixture(scope="module")
def program():
    return compile_source(SOURCE)


@pytest.fixture(scope="module")
def oracle(program):
    return get_backend("seq").run(program, (12,)).value


class TestHealthyRuns:
    def test_value_and_result_surface(self, program, oracle):
        r = get_backend("dist").run(program, (12,), parallelism=2)
        assert r.value == pytest.approx(oracle, rel=1e-12)
        assert r.backend == "dist"
        assert r.parallelism == 2
        assert r.wall_time_s is not None and r.wall_time_s > 0
        assert r.registry is not None

    def test_dist_result_fields(self, program):
        r = get_backend("dist").run(program, (12,), parallelism=2)
        raw = r.raw
        assert raw.width == 2 and raw.who == "node"
        assert len(raw.worker_stats) == 2
        assert sum(t.shared_writes for t in raw.worker_stats) > 0
        assert raw.recovery is not None and not raw.recovery.events
        assert raw.netstats is not None and raw.netstats.sent > 0
        assert "node" in raw.telemetry_table()

    def test_registry_has_distributed_families(self, program):
        r = get_backend("dist").run(program, (12,), parallelism=2)
        reg = r.registry
        assert reg.total("array.element_writes") > 0
        assert reg.total("rf.items") > 0
        assert any(dict(row.labels).get("cause") == "remote-read"
                   for row in reg.select("wait.us"))

    def test_array_result_gathers_segments(self, oracle):
        src = """
        function main(n) {
            A = array(n);
            for i = 1 to n { A[i] = i * 2.0; }
            return A;
        }
        """
        r = get_backend("dist").run(compile_source(src), (8,),
                                    parallelism=2)
        assert list(r.value.flat) == [2.0 * i for i in range(1, 9)]


class TestRecovery:
    def test_node_kill_heals_by_takeover(self, program, oracle):
        cfg = DistConfig(nodes=3, **FAST)
        r = get_backend("dist").run(program, (12,), config=cfg,
                                    faults="node-kill:node=1,on=iter,"
                                           "after=2")
        assert r.value == pytest.approx(oracle, rel=1e-12)
        assert r.raw.recovery.takeovers == 1
        kinds = [e.kind for e in r.raw.recovery.events]
        assert "failure" in kinds and "takeover" in kinds

    def test_budget_exhaustion_raises_node_loss(self, program):
        cfg = DistConfig(nodes=2, **{**FAST, "retry": RetryPolicy(
            backoff_base_s=0.01, backoff_max_s=0.05, max_retries_total=0)})
        with pytest.raises(NodeLossError) as excinfo:
            get_backend("dist").run(program, (12,), config=cfg,
                                    faults="node-kill:node=1,on=iter,"
                                           "after=2")
        exc = excinfo.value
        assert classify_error(exc) == "node-loss"
        rendered = render_error(exc)
        assert "\n" not in rendered
        assert rendered.startswith("error[NodeLossError/node-loss]: ")
        assert any(f.worker == 1 for f in exc.failures)

    def test_takeover_onto_a_busy_survivor(self):
        # Heartbeats held past the detector's deadline fence node 1 while
        # node 0's executor is still filling its element lists, which
        # node 0's loop replays to the new owner at the same time.
        cfg = DistConfig(nodes=2, heartbeat_interval_s=0.04,
                         heartbeat_timeout_s=0.2, poll_interval_s=0.02,
                         retransmit_timeout_s=0.05, read_timeout_s=15.0,
                         retry=FAST["retry"])
        sweep = compile_source(ROW_SWEEP)
        r = get_backend("dist").run(
            sweep, (512,), config=cfg,
            faults="delay:src=1,kind=hb,seconds=2.0,count=0")
        assert r.value == get_backend("seq").run(sweep, (512,)).value
        assert r.recovery.takeovers == 1

    def test_a_dying_control_loop_is_a_node_loss(self, program,
                                                  monkeypatch):
        # The forked nodes inherit the patch: the survivor's loop raises
        # as it takes over, and the node must exit so the run ends as a
        # classified loss at once, not as a read-timeout deadlock.
        def broken(self, owners, live):
            raise RuntimeError("replay failed")

        monkeypatch.setattr(NodeProtocol, "_ownermap", broken)
        cfg = DistConfig(nodes=2, read_timeout_s=30.0, **FAST)
        t0 = time.monotonic()
        with pytest.raises(NodeLossError) as excinfo:
            get_backend("dist").run(program, (12,), config=cfg,
                                    faults="node-kill:node=1,on=iter,"
                                           "after=2")
        assert time.monotonic() - t0 < 10.0
        assert classify_error(excinfo.value) == "node-loss"
        assert any(f.worker == 0 and "process-exit" in f.detail
                   for f in excinfo.value.failures)

    def test_recovery_disabled_fails_fast(self, program):
        cfg = DistConfig(nodes=2,
                         **{**FAST, "retry": RetryPolicy(enabled=False)})
        with pytest.raises(NodeLossError, match="recovery is disabled"):
            get_backend("dist").run(program, (12,), config=cfg,
                                    faults="node-kill:node=1,on=iter,"
                                           "after=2")


class _RecordingLoop:
    """Stands in for the node's asyncio loop: counts the executors'
    wakes and runs each woken drain of the hand-over queue inline, or,
    while ``held`` is a list (a busy loop), keeps it there until
    :meth:`run`; remembers the actions the drains carried."""

    def __init__(self, rt):
        self.rt, self.wakes, self.handovers, self.held = rt, 0, [], None

    def call_soon_threadsafe(self, drain):
        self.wakes += 1
        if self.held is None:
            self.run(drain)
        else:
            self.held.append(drain)

    def run(self, drain):
        self.handovers += self.rt._handed
        drain()


class _RecordingEndpoint:
    """Remembers every frame sent; with ``deliver``, also hands each one
    inline to the peer it is addressed to."""

    def __init__(self):
        self.sent = []
        self.deliver = None

    def send(self, dst, payload):
        self.sent.append((dst, payload))
        if self.deliver is not None:
            self.deliver(dst, payload)

    def flush(self):
        pass  # every frame went out as it was sent

    def reads(self):
        return [(dst, m) for dst, m in self.sent if m["t"] == "read"]


def _runtime(program, nodes, args=(), node=0):
    rt = NodeRuntime(program, node, 0, DistConfig(nodes=nodes), args,
                     DistFaultPlan())
    rt.loop, rt.endpoint = _RecordingLoop(rt), _RecordingEndpoint()
    return rt


def _deliver(rt, src, m):
    """What the endpoint does with a peer frame."""
    rt.act(rt.protocol.peer(src, m))


# 30 x 64 elements in 32-element pages: 60 pages, and identity 1 owns
# the last 30 (rows 16..30, offsets 960..1919).
SCAN_DIMS = (30, 64)


def _remote_segment(program):
    """Node 0 of two, wired in process to a node 1 that has written every
    element identity 1 owns (element at offset ``o`` is ``o / 2``); node
    0's handle to the array, ready to scan node 1's segment."""
    rt0, rt1 = _runtime(program, 2), _runtime(program, 2, node=1)
    rt0.endpoint.deliver = lambda dst, m: _deliver(rt1, 0, m)
    rt1.endpoint.deliver = lambda dst, m: _deliver(rt0, 1, m)
    owner = DistArray(rt1, 1, SCAN_DIMS)
    for off in range(*owner.header.segment_bounds(1)):
        owner.write(owner.header.indices_of(off), off / 2)
    assert rt1.loop.handovers == []
    return rt0, DistArray(rt0, 1, SCAN_DIMS)


def _read(a, n):
    return (1, {"t": "read", "a": 1, "off": a, "n": n})


def _protocol(node, nodes, dims):
    """A bare node protocol that has allocated array 1 of ``dims``."""
    proto = NodeProtocol(node, nodes, 32, threading.Lock())
    proto.array(ArrayHeader(1, dims, 32, nodes))
    return proto


class TestCrossings:
    """What crosses from an executor thread to the loop thread, counted
    in process: a node stores what it owns without a hand-over."""

    def test_one_node_matmul_never_visits_the_loop(self):
        rt = _runtime(compile_matmul(checksum=True), 1, (24,))
        value = _NodeInterpreter(rt, (0,), False).run(
            (24,), materialize=False).value
        assert value == 24512.63802011923
        # 1 728 writes, every one local: the loop is never woken.
        assert rt.loop.handovers == [] and rt.loop.wakes == 0

    def test_local_write_crosses_once_for_a_remote_reader(self, program):
        rt = _runtime(program, 2)
        # Node 0 adopted identity 1: every element is here.
        rt.act(rt.protocol.control({"t": "ownermap", "owners": [0, 0],
                                    "live": [0, 1]}))
        arr = DistArray(rt, 1, (64,))
        _deliver(rt, 1, {"t": "read", "a": 1, "off": 40, "n": 32})  # parks
        arr.write((1,), 0.5)  # nobody waits: no hand-over
        assert rt.loop.handovers == [] and rt.endpoint.sent == []
        arr.write((41,), 1.5)
        # A release is a run of the one element the reader waits on.
        rdy = (1, {"t": "rdy", "a": 1, "lo": 40, "v": [1.5]})
        assert rt.loop.handovers == [(SEND, *rdy)] and rt.loop.wakes == 1
        assert rt.endpoint.sent == [rdy]
        assert arr.read((41,)) == 1.5 and len(rt.loop.handovers) == 1

    def test_remote_owned_write_crosses_once(self, program):
        rt = _runtime(program, 2)
        arr = DistArray(rt, 1, (64,))
        arr.write((64,), 2.5)  # identity 1's, and node 1 is alive
        write = (1, {"t": "write", "a": 1, "off": 63, "v": 2.5,
                     "replay": False})
        assert rt.loop.handovers == [(SEND, *write)] and rt.loop.wakes == 1
        assert rt.endpoint.sent == [write]
        # Kept as a copy: the collect and a checkpoint both carry it,
        # as the write may be on its way.
        assert rt.protocol.segments[1].cells[63] == 2.5
        assert rt.protocol.control({"t": "ckpt"}) == [
            (REPORT, {"t": "ckpt-state", "node": 0, "arrays": {
                "1": {"dims": [64], "vals": {63: 2.5}}}})]
        assert rt.protocol.control({"t": "collect", "a": 1}) == [
            (REPORT, {"t": "segment", "node": 0, "a": 1, "vals": {63: 2.5}})]

    def test_a_busy_loop_is_woken_once_for_what_queues_meanwhile(
            self, program):
        rt = _runtime(program, 2)
        rt.loop.held = []  # the loop is busy: its drain waits
        arr = DistArray(rt, 1, (64,))
        for i in (62, 63, 64):  # identity 1's, each a write frame
            arr.write((i,), i / 2)
        assert rt.loop.wakes == 1 and rt.endpoint.sent == []
        rt.loop.run(rt.loop.held.pop())
        writes = [(1, {"t": "write", "a": 1, "off": i - 1, "v": i / 2,
                       "replay": False}) for i in (62, 63, 64)]
        assert rt.endpoint.sent == writes  # in hand-over order
        assert rt.loop.handovers == [(SEND, *w) for w in writes]
        arr.write((61,), 30.5)  # the queue was drained: a new wake
        assert rt.loop.wakes == 2

    @pytest.mark.parametrize("order, frames", [
        ("row", [_read(960, 32), _read(992, 64), _read(1056, 128),
                 _read(1184, 256), _read(1440, 512)]),
        # Rows 16, 17, 18-19, 20-23 and 24-30 (clipped to the array),
        # then row 16's second page with the rest of the segment.
        ("column", [_read(960, 32), _read(1024, 64), _read(1088, 128),
                    _read(1216, 256), _read(1472, 512), _read(992, 1024)]),
    ])
    def test_a_remote_scan_asks_for_runs_that_double(self, program, order,
                                                     frames):
        rt, arr = _remote_segment(program)
        rows, cols = SCAN_DIMS
        cells = [(i, j) for i in range(16, rows + 1)
                 for j in range(1, cols + 1)]
        if order == "column":
            cells.sort(key=lambda ij: (ij[1], ij[0]))
        for i, j in cells:
            assert arr.read((i, j)) == ((i - 1) * cols + j - 1) / 2
        assert rt.endpoint.reads() == frames
        assert arr.deferred_reads == len(frames)
        # The budget for a full scan; one frame per page sent 30.
        pages = arr.header.pages // 2
        assert len(frames) <= math.ceil(math.log2(pages)) + 1

    def test_a_scan_counts_each_read_once(self):
        # Rows 16..30 twice through the generated code: the first scan
        # calls ``read`` on the first element of each run (the frames of
        # the row scan above), and the probe finds the rest of the run in
        # the node's list; the second scan finds every element there.
        # Each read counts once.
        rt, arr = _remote_segment(compile_source("""
        function main(A, first, rows, cols) {
            s = 0.0;
            for i = first to rows {
                row = 0.0;
                for j = 1 to cols { next row = row + A[i, j]; }
                next s = s + row;
            }
            return s;
        }"""))
        calls = []
        read = arr.read
        arr.read = lambda indices: calls.append(indices) or read(indices)
        interp = _NodeInterpreter(rt, (0,), False)
        elements = range(960, 1920)
        for scanned in (1, 2):
            value = interp.run((arr, 16, 30, 64)).value
            assert value == sum(off / 2 for off in elements)
            assert arr.reads == scanned * len(elements)
        runs = [_read(960, 32), _read(992, 64), _read(1056, 128),
                _read(1184, 256), _read(1440, 512)]
        assert rt.endpoint.reads() == runs
        assert calls == [arr.header.indices_of(m["off"]) for _, m in runs]
        assert arr.deferred_reads == 5

    def test_a_run_never_unsets_an_element_the_node_wrote(self, program):
        # Four executor threads write identity 1's elements on node 0
        # (each kept in the node's cells at once) while the loop thread
        # applies runs of that segment from an owner that stored none of
        # them yet, and a few after: a run puts present elements in,
        # never None back.
        rt = _runtime(program, 2)
        arr = DistArray(rt, 1, SCAN_DIMS)
        lo, hi = arr.header.segment_bounds(1)

        def write(first):
            for off in range(first, hi, 4):
                arr.write(arr.header.indices_of(off), off / 2)

        writers = [threading.Thread(target=write, args=(lo + k,))
                   for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in writers:
                thread.start()
            deadline, runs = time.monotonic() + 30.0, 0
            while (runs < 10 or any(t.is_alive() for t in writers)) \
                    and time.monotonic() < deadline:
                _deliver(rt, 1, {"t": "rdy", "a": 1, "lo": lo,
                                 "v": [None] * (hi - lo)})
                runs += 1
            for thread in writers:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert rt.protocol.segments[1].cells[lo:hi] == [
            off / 2 for off in range(lo, hi)]

    def test_a_run_holds_present_elements_clipped_to_the_owner(self):
        proto = _protocol(1, 2, SCAN_DIMS)
        for off in (1856, 1858, 1861):
            assert proto.write(1, off, off / 2, False) == []
        rdy = {"t": "rdy", "a": 1, "lo": 1856,
               "v": [928.0, None, 929.0, None, None, 930.5]}
        assert proto.peer(0, {"t": "read", "a": 1, "off": 1858,
                              "n": 256}) == [(SEND, 0, rdy)]
        assert proto.peer(0, {"t": "read", "a": 1, "off": 1857,
                              "n": 256}) == []  # parked

    def test_a_reissued_read_keeps_its_window(self):
        proto = _protocol(0, 3, (384,))  # 12 pages: identity 1 owns 128..255
        assert proto.read(1, 130, 128, "waiter") == (True, [
            (SEND, 1, {"t": "read", "a": 1, "off": 130, "n": 128})])
        # Node 1 lost to node 2.
        assert proto.control({"t": "ownermap", "owners": [0, 2, 2],
                              "live": [0, 2]}) == [
            (SEND, 2, {"t": "read", "a": 1, "off": 130, "n": 128})]
        assert proto.peer(2, {"t": "rdy", "a": 1, "lo": 128,
                              "v": [None, None, 6.5]}) == [
            (RELEASE, "waiter", 6.5)]
        assert proto.pending == {}


class TestHandOvers:
    """The loop-bound actions of each executor event, exact, over whole
    drawn cluster runs (``tests/dist/test_cluster.py``): an owned write
    that no peer waits for hands nothing to the loop, a remote write one
    frame, a write that releases peers one frame per reader node (a
    remote write too, for peers parked on the copy it keeps), a read
    miss at most one.  And the wakes they cost: at most one per event,
    none when the hand-over queue already held a frame."""

    @settings(max_examples=60, deadline=None)
    @given(case=cases())
    def test_per_event_over_drawn_runs(self, case):
        for event, crossed, calls_for in run_case(case).crossings:
            if event == "read miss":
                assert crossed <= calls_for
            else:
                assert crossed == calls_for, event

    @settings(max_examples=60, deadline=None)
    @given(case=cases(), drains=st.lists(st.booleans(), min_size=1,
                                         max_size=16))
    def test_one_wake_per_queue_over_drawn_runs(self, program, case,
                                                drains):
        # Each event's loop-bound frames of a drawn cluster run, handed
        # over in turn to a node's shell whose loop drains its queue at
        # drawn points: an event wakes the loop once if it queues a frame
        # on an empty queue, else not at all, and the loop carries every
        # frame out once, in hand-over order.
        rt = _runtime(program, 2)
        rt.loop.held, frames = [], []
        for i, (_, crossed, _) in enumerate(run_case(case).crossings):
            queued, wakes = bool(rt._handed), rt.loop.wakes
            event = [(SEND, 1, {"t": "write", "event": i, "k": k})
                     for k in range(crossed)]
            rt.hand_over(event)
            frames += event
            assert rt.loop.wakes - wakes == (crossed > 0 and not queued)
            if drains[i % len(drains)]:
                while rt.loop.held:
                    rt.loop.run(rt.loop.held.pop(0))
        while rt.loop.held:
            rt.loop.run(rt.loop.held.pop(0))
        assert rt.loop.handovers == frames
        assert rt.endpoint.sent == [act[1:] for act in frames]

    def test_executors_racing_the_loop_hand_over_every_frame_once(
            self, program):
        # Four executor threads hand over while a loop thread drains, the
        # interpreter switching threads every microsecond: every frame is
        # carried out once, each thread's in its order, none is left in
        # the queue.
        rt = _runtime(program, 2)
        wakes = queue.SimpleQueue()
        rt.loop = SimpleNamespace(call_soon_threadsafe=wakes.put)
        events, done = 2000, threading.Event()

        def executor(t):
            for k in range(events):
                rt.hand_over([(SEND, 1, {"t": t, "k": k, "i": i})
                              for i in range(1 + k % 2)])

        def loop():
            while not (done.is_set() and wakes.empty()):
                try:
                    wakes.get(timeout=0.01)()
                except queue.Empty:
                    pass

        threads = [threading.Thread(target=executor, args=(t,))
                   for t in range(4)]
        drainer = threading.Thread(target=loop)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            drainer.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
                assert not thread.is_alive()
            done.set()
            drainer.join(timeout=60.0)
            assert not drainer.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert rt._handed == []
        for t in range(4):
            assert [(m["k"], m["i"]) for _, m in rt.endpoint.sent
                    if m["t"] == t] == [(k, i) for k in range(events)
                                        for i in range(1 + k % 2)]

    def test_every_kind_of_event_is_met(self):
        # Three nodes, one-element pages.  Node 0 stores element 0, sends
        # 4 to node 2 and misses on 2; node 2 misses on 2; both reads park
        # at node 1, whose write of 2 then releases two reader nodes.
        case = Case(nodes=3, page=1, length=6,
                    ops=((0, "w", 0), (1, "w", 2), (0, "w", 4),
                         (0, "r", 2), (2, "r", 2), (1, "w", 3),
                         (0, "r", 3)),
                    moves=(("control", 0), ("control", 1), ("control", 2))
                    + (("run", 0),) * 3 + (("run", 1),))
        assert run_case(case).crossings == [
            ("owned write", 0, 0), ("remote write", 1, 1),
            ("read miss", 1, 1), ("read miss", 1, 1),
            ("owned write", 2, 2), ("read miss", 1, 1),
            ("owned write", 0, 0)]
