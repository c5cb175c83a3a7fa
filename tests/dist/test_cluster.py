"""A whole ``dist`` cluster in one process, its schedule drawn.

N :class:`~repro.dist.protocol.NodeProtocol` s, the coordinator's own
:class:`~repro.dist.protocol.CoordinatorProtocol` and
:class:`~repro.sim.reliable.ReliableNet` bookkeeping for the peer
channels.  Every peer frame in flight sits in one pool; coordinator
frames and reports travel in order per node, as on their TCP links.
Hypothesis draws which move comes next: run an executor one access,
deliver, duplicate, drop or retransmit a peer frame, cut a pair of nodes
apart (their frames in flight are lost), deliver a coordinator frame or
a report — and which node dies when, by a crash (its process exit is a
coordinator event) or by falling silent while it still runs (a zombie,
declared lost by the coordinator's heartbeat check and running until
its fence frame arrives).  At most once, the coordinator dies: of each
node's link, a drawn prefix of the reports in flight reached it and a
drawn prefix of its frames reaches the node, the rest are lost; then a
standby coordinator is built from the running nodes' rejoins
(:meth:`~repro.dist.protocol.NodeProtocol.resync`), in a drawn order,
with drawn node deaths before and during its vote.  When the drawn moves
run out the cluster is driven fairly to quiescence.

An executor is a drawn access script over array 1: its identities'
writes of ``F(off)`` — most to elements their identity owns, some to
another's — and reads of any written offset, placed after its write in
one global order (so no script can deadlock), each suspending until its
waiter is released.  Identity 0 returns the array.  A takeover re-runs
the lost identities' script in replay.

Checked at every step, on each node's one store (a segment's cells):
no element a node holds is unset or changed, and none stored at an
offset it owns ever goes; every value is ``F``'s; a frame from a node
the receiver has fenced changes nothing; no message is retransmitted
past its budget and no coordinator starts more takeovers than the retry
budget allows.  At quiescence: the coordinator collected the array a
run without faults returns and shut down, every identity's owner holds
each of its written elements — rewritten or replayed after a takeover —
with no waiter parked anywhere; or the run ended in a classified abort
(a loss the budget or the survivors could not heal, or a node lost
before it answered the collect).  The recovery log holds one
``failover`` event per coordinator death.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.config import DistConfig
from repro.common.retry import RetryPolicy
from repro.dist.protocol import (RELEASE, REPORT, SEND, START,
                                 CoordinatorProtocol, NodeProtocol)
from repro.runtime.arrays import ArrayHeader
from repro.runtime.supervise import Abort
from repro.sim.reliable import ReliableNet

RETRANSMITS = 4  # per message, as ``DistConfig.retransmit_budget``
RUN_CAP = 8  # the longest run a read asks for (``node._RUN_CAP``, small)
MOVES = ("run",) * 5 + ("peer",) * 5 + ("control",) * 2 + ("report",) * 2 \
    + ("dup", "drop", "resend", "partition")


def F(off: int) -> float:
    return off * 0.5 + 1.0


@dataclass(frozen=True)
class Case:
    nodes: int
    page: int
    length: int
    ops: tuple  # (identity, "w" | "r", offset), in one global order
    moves: tuple = ()  # (move, who)
    kills: tuple = ()  # (step, node, zombie)
    budget: int = 2  # RetryPolicy.max_retries_total
    # (step, control frames kept per node, reports read per node,
    # rejoin order, deaths as (hellos before, node); -1: before the
    # standby is built)
    failover: tuple | None = None


@st.composite
def cases(draw):
    nodes = draw(st.integers(2, 3))
    page = draw(st.sampled_from([1, 2, 4]))
    length = draw(st.integers(2, 16))
    header = ArrayHeader(1, (length,), page, nodes)
    order = draw(st.permutations(range(length)))
    written = order[:draw(st.integers(1, length))]
    foreign = draw(st.sets(st.sampled_from(written)))
    ops = [((i, 0), ((header.owner_of_offset(off) + (off in foreign))
                     % nodes, "w", off)) for i, off in enumerate(written)]
    for ident, i, lag in draw(st.lists(st.tuples(
            st.integers(0, nodes - 1), st.integers(0, len(written) - 1),
            st.integers(0, 4)), max_size=12)):
        ops.append(((min(i + lag, len(written) - 1), 1),
                    (ident, "r", written[i])))
    ops.sort(key=lambda keyed: keyed[0])
    return Case(nodes, page, length, tuple(op for _, op in ops),
                tuple(draw(st.lists(st.tuples(st.sampled_from(MOVES),
                                              st.integers(0, 7)),
                                    max_size=80))),
                tuple(draw(st.lists(st.tuples(
                    st.integers(0, 24), st.integers(0, nodes - 1),
                    st.booleans()), max_size=2))),
                draw(st.integers(0, 2)),
                draw(st.none() | st.tuples(
                    st.integers(0, 40),
                    st.tuples(*[st.integers(0, 4)] * nodes),
                    st.tuples(*[st.integers(0, 4)] * nodes),
                    st.permutations(range(nodes)).map(tuple),
                    st.lists(st.tuples(st.integers(-1, nodes - 1),
                                       st.integers(0, nodes - 1)),
                             max_size=1).map(tuple))))


class _Waiter:
    """An executor's waiter token (opaque to the protocol)."""

    __slots__ = ("executor", "off")

    def __init__(self, executor, off):
        self.executor, self.off = executor, off


class _Executor:
    def __init__(self, node, slot, generation, identities, replay, ops,
                 page):
        self.node, self.slot, self.generation = node, slot, generation
        self.identities, self.replay = identities, replay
        self.ops = [op for op in ops if op[0] in identities]
        self.pc, self.waiting, self.done = 0, None, False
        self.window = page


class Cluster:
    def __init__(self, case: Case) -> None:
        self.case, n = case, case.nodes
        self.header = ArrayHeader(1, (case.length,), case.page, n)
        self.protos = [NodeProtocol(k, n, case.page, threading.Lock())
                       for k in range(n)]
        self.running = set(range(n))  # processes not dead
        self.forgotten = {k: set() for k in range(n)}
        self.silent: set[int] = set()  # zombies: running, no heartbeat
        self.now = 0.0
        # One tick is a second: a node silent for one is lost.
        self.cfg = DistConfig(nodes=n, timeout_s=1e9, heartbeat_timeout_s=0.5,
                              retry=RetryPolicy(max_retries_total=case.budget,
                                                backoff_base_s=0.01,
                                                backoff_max_s=0.01))
        self.net = ReliableNet()
        self.pool: list[tuple[int, int, int]] = []  # (src, dst, seq)
        self.frames: dict[tuple[int, int, int], dict] = {}
        self.control = {k: deque() for k in range(n)}
        self.reports = {k: deque() for k in range(n)}
        self.executors: list[_Executor] = []
        self.takeovers = 0  # adopt frames, over every coordinator
        self.failovers = 0
        # (event, loop-bound actions, the count the event calls for)
        self.crossings: list[tuple[str, int, int]] = []
        self.kept = {k: {} for k in range(n)}  # every value seen so far
        self.coord = CoordinatorProtocol(self.cfg, 0.0)
        for k in range(n):
            self._apply(self.coord.hello(0.0, k, k))

    # -- moves ---------------------------------------------------------------

    def move(self, kind: str, who: int) -> bool:
        """One drawn move; False when it had nothing to act on."""
        if kind == "run":
            runnable = self._runnable()
            if runnable:
                self._step(runnable[who % len(runnable)])
            return bool(runnable)
        if kind in ("peer", "dup", "drop"):
            if not self.pool:
                return False
            i = who % len(self.pool)
            if kind == "dup":
                self.pool.append(self.pool[i])
            elif kind == "drop":
                self.pool.pop(i)
            else:
                self._deliver(*self.pool.pop(i))
            return True
        if kind == "resend":
            lost = self._lost()
            if lost:
                self._resend(*lost[who % len(lost)])
            return bool(lost)
        if kind == "partition":
            a, b = who % self.case.nodes, (who + 1) % self.case.nodes
            kept = [c for c in self.pool if {c[0], c[1]} != {a, b}]
            cut, self.pool = len(self.pool) - len(kept), kept
            return cut > 0
        queue = (self.control if kind == "control" else self.reports)[
            who % self.case.nodes]
        if not queue:
            return False
        if kind == "control":
            self._control(who % self.case.nodes, queue.popleft())
        else:
            self._report(who % self.case.nodes, queue.popleft())
        return True

    def kill(self, node: int, zombie: bool) -> None:
        """A crash (the process is gone, its sentinel fires) or a zombie
        (silent from now on, declared lost at the next tick, running
        until fenced)."""
        if node not in self.running:
            return
        if zombie:
            self.silent.add(node)
        else:
            self._crash(node, -9)

    def tick(self) -> None:
        self.now += 1.0
        for k in sorted(self.running - self.silent):
            self.coord.frame(self.now, k, {"t": "hb", "node": k})
        self._apply(self.coord.tick(self.now))

    def fail_over(self, control: tuple, reports: tuple, order: tuple,
                  deaths: tuple) -> None:
        """The coordinator dies.  Node ``k``'s first ``reports[k]``
        reports in flight reached it, and its first ``control[k]``
        frames reach ``k``, which takes them before it notices the link
        close; the rest are lost.  A standby is built from the running
        nodes and watches every process; each node rejoins in ``order``
        with its resync, and ``deaths`` ((hellos before, node), -1:
        before the standby is built) crash meanwhile."""
        for k in range(self.case.nodes):
            for _ in range(min(reports[k], len(self.reports[k]))):
                self._report(k, self.reports[k].popleft())
        for k in range(self.case.nodes):
            self.reports[k].clear()
            while len(self.control[k]) > control[k]:
                self.control[k].pop()
        for _, node in [d for d in deaths if d[0] < 0]:
            self._crash(node, -9)
        self.coord = CoordinatorProtocol(self.cfg, self.now,
                                         expect=set(self.running))
        self.failovers += 1
        for k in sorted(set(range(self.case.nodes)) - self.running):
            self._apply(self.coord.exited(self.now, k, -9))
        for i, k in enumerate(order):
            for _, node in [d for d in deaths if d[0] == i]:
                self._crash(node, -9)
            if k not in self.running:
                continue
            while self.control[k]:
                self._control(k, self.control[k].popleft())
            self.reports[k].clear()  # written to the dead link
            if k in self.running:
                self._apply(self.coord.hello(self.now, k, k,
                                             self.protos[k].resync()))

    def settle(self, kills: list, failover=None,
               limit: int = 5000) -> None:
        """Drive every party fairly until nothing moves, killing each of
        ``kills`` ((round, node, zombie), in order) and the coordinator
        (``failover``) at its round."""
        for step in range(limit):
            while kills and kills[0][0] <= step:
                self.kill(*kills.pop(0)[1:])
            if failover and failover[0] <= step:
                self.fail_over(*failover[1:])
                failover = None
            self.tick()
            moved = False
            for k in range(self.case.nodes):
                while self.control[k]:
                    self._control(k, self.control[k].popleft())
                    moved = True
                while self.reports[k]:
                    self._report(k, self.reports[k].popleft())
                    moved = True
            while self.pool:
                self._deliver(*self.pool.pop(0))
                moved = True
            for lost in self._lost():
                self._resend(*lost)
                moved = True
            for ex in self._runnable():
                self._step(ex)
                moved = True
            self.check()
            if not (moved or kills or failover or self.coord.sup.pending):
                return
        raise AssertionError("no quiescence: the cluster livelocked")

    # -- nodes ---------------------------------------------------------------

    def _runnable(self) -> list:
        return [ex for ex in self.executors if ex.node in self.running
                and not ex.done and ex.waiting is None]

    def _step(self, ex: _Executor) -> None:
        proto = self.protos[ex.node]
        if ex.pc == len(ex.ops):
            ex.done = True
            if 0 in ex.identities:
                self._act(ex.node, proto.emit(
                    ex.slot, ex.generation, ex.identities, "result",
                    ["array", [1, [self.case.length]]]))
            self._act(ex.node, proto.emit(ex.slot, ex.generation,
                                          ex.identities, "done", {}))
            return
        _, kind, off = ex.ops[ex.pc]
        if kind == "w":
            # The peers parked on the element, which its store releases.
            seg = proto.segments.get(1)
            readers = [w for w in (seg._deferred.get(off, ()) if seg
                                   else ()) if type(w) is int]
            actions = proto.write(1, off, F(off), ex.replay)
            loop = [act for act in actions if act[0] != RELEASE]
            if any(act[0] == SEND and act[2]["t"] == "write"
                   for act in loop):
                # The copy it keeps releases the peers parked there too.
                self.crossings.append(("remote write", len(loop),
                                       1 + len(set(readers))))
            else:
                assert sorted(act[1] for act in loop) == sorted(readers)
                self.crossings.append(("owned write", len(loop),
                                       len(set(readers))))
            ex.pc += 1
            self._act(ex.node, actions)
            return
        value = proto.segments[1].cells[off]
        if value is not None:  # the probe's hit
            assert value == F(off)
            ex.pc += 1
            return
        ex.waiting = _Waiter(ex, off)
        remote, actions = proto.read(1, off, ex.window, ex.waiting)
        if remote:
            ex.window = min(2 * ex.window, RUN_CAP)
        self.crossings.append(("read miss", sum(
            act[0] != RELEASE for act in actions), 1))
        self._act(ex.node, actions)

    def _act(self, node: int, actions: list) -> None:
        """What a node's shell does with its protocol's actions."""
        for act in actions:
            kind = act[0]
            if kind == SEND:
                dst = act[1]
                if dst not in self.forgotten[node]:
                    seq = self.net.assign(node, dst, act[2], self.now)
                    self.frames[(node, dst, seq)] = act[2]
                    self.pool.append((node, dst, seq))
            elif kind == REPORT:
                self.reports[node].append(act[1])
            elif kind == RELEASE:
                waiter, value = act[1], act[2]
                assert value == F(waiter.off)
                ex = waiter.executor
                assert ex.waiting is waiter
                ex.waiting = None
                ex.pc += 1
            elif kind == START:
                identities, generation, slot, replay = act[1:]
                self.protos[node].array(self.header)
                self.executors.append(_Executor(
                    node, slot, generation, identities, replay,
                    self.case.ops, self.case.page))
            else:  # EXIT
                self._crash(node, 0)

    def _crash(self, node: int, exitcode: int) -> None:
        """``node``'s process ends, and the coordinator sees it."""
        if node not in self.running:
            return
        self.running.discard(node)
        for (src, _), ch in self.net.channels.items():
            if src == node:
                ch.unacked.clear()  # nobody left to retransmit
        self._apply(self.coord.exited(self.now, node, exitcode))

    def _deliver(self, src: int, dst: int, seq: int) -> None:
        if dst not in self.running:
            return  # the copy is lost; the sender retransmits
        self.net.on_ack(src, dst, seq)
        if not self.net.on_deliver(src, dst, seq):
            return
        frame = self.frames[(src, dst, seq)]
        proto = self.protos[dst]
        fenced = src not in proto.live
        before = _state(proto) if fenced else None
        actions = proto.peer(src, frame)
        if fenced:
            assert actions == [] and _state(proto) == before, (
                f"a frame from fenced node {src} changed node {dst}")
        self._act(dst, actions)

    def _lost(self) -> list:
        """Unacked messages with no copy in flight."""
        flying = set(self.pool)
        return [(src, dst, seq) for (src, dst), ch
                in sorted(self.net.channels.items())
                for seq in sorted(ch.unacked)
                if (src, dst, seq) not in flying]

    def _resend(self, src: int, dst: int, seq: int) -> None:
        ch = self.net.channel(src, dst)
        entry = ch.unacked.get(seq)
        if entry is None:  # the peer was lost meanwhile
            return
        if entry[2] == RETRANSMITS:  # as the endpoint: the peer is lost
            self.forgotten[src].add(dst)
            ch.unacked.clear()
            self._act(src, self.protos[src].peer_lost(
                dst, "retransmit-exhausted", f"seq {seq}"))
            return
        entry[2] += 1
        ch.retransmits += 1
        assert entry[2] <= RETRANSMITS
        self.pool.append((src, dst, seq))

    def _control(self, node: int, msg: dict) -> None:
        if node not in self.running:
            return
        if msg["t"] == "shutdown":  # the shell's bye; the node runs on,
            # so that frames in flight still land
            self.reports[node].append({"t": "bye", "node": node,
                                       "netstats": {}})
        actions = self.protos[node].control(msg)
        if msg["t"] == "ownermap":  # the shell forgets the dead
            for dead in set(range(self.case.nodes)) - set(msg["live"]):
                self.forgotten[node].add(dead)
                ch = self.net.channels.get((node, dead))
                if ch is not None:
                    ch.unacked.clear()
        self._act(node, actions)

    # -- the coordinator -----------------------------------------------------

    def _report(self, node: int, msg: dict) -> None:
        self._apply(self.coord.frame(self.now, node, msg))

    def _apply(self, actions: list) -> None:
        """What the coordinator's shell does with its core's actions."""
        for _, node, frame in actions:  # no checkpoints here: all SENDs
            self.takeovers += frame["t"] == "adopt"
            self.control[node].append(frame)
        assert self.coord.sup.log.takeovers <= self.case.budget

    # -- invariants ----------------------------------------------------------

    def check(self) -> None:
        """Nothing held or stored is ever lost or other than ``F``'s:
        stored is held at an offset the node owns."""
        for k in self.running:
            proto = self.protos[k]
            seg = proto.segments.get(1)
            now = {}
            for off, v in (seg.items() if seg else ()):
                now[("held", off)] = v
                if proto.owners[self.header.owner_of_offset(off)] == k:
                    now[("stored", off)] = v
            assert all(v == F(key[1]) for key, v in now.items())
            lost = self.kept[k].keys() - now.keys()
            assert not lost, f"node {k} lost {sorted(lost)}"
            self.kept[k] = now

    def check_quiescent(self) -> None:
        coord = self.coord
        assert coord.sup.log.failovers == self.failovers
        outcome = coord.outcome
        if isinstance(outcome, Abort):
            assert outcome.member_lost and outcome.failures, outcome
            assert (coord.sup.retries > self.case.budget or not coord.sup.live
                    or "collect" in outcome.message), outcome
            return
        assert coord.phase == "end", f"quiescent in phase {coord.phase}"
        written = {off for _, kind, off in self.case.ops if kind == "w"}
        assert coord.value.dims == (self.case.length,)
        assert coord.value.flat == [F(off) if off in written else None
                                    for off in range(self.case.length)]
        for ident in range(self.case.nodes):
            cells = self.protos[coord.sup.owners[ident]].segments[1].cells
            for off in range(*self.header.segment_bounds(ident)):
                if off in written:
                    assert cells[off] == F(off), (ident, off)
        for k in coord.sup.live:
            proto = self.protos[k]
            assert not proto.pending
            assert not any(seg.pending_offsets()
                           for seg in proto.segments.values())
        assert not any(ex.waiting for ex in self.executors
                       if ex.node in coord.sup.live)


def _state(proto):
    return ({a: (list(seg.cells), seg.pending_offsets())
             for a, seg in proto.segments.items()},
            set(proto.held_first),
            {key: len(entry[2]) for key, entry in proto.pending.items()},
            list(proto.owners), set(proto.live), len(proto.reports))


def run_case(case: Case) -> Cluster:
    """The drawn moves, then fair rounds to quiescence; node deaths at
    their step, counting a move or a round as one."""
    cluster = Cluster(case)
    kills, failover = sorted(case.kills), case.failover
    for step, (kind, who) in enumerate(case.moves):
        while kills and kills[0][0] <= step:
            cluster.kill(*kills.pop(0)[1:])
        if failover and failover[0] <= step:
            cluster.fail_over(*failover[1:])
            failover = None
        cluster.tick()
        cluster.move(kind, who)
        cluster.check()
    cluster.settle([(step - len(case.moves), node, zombie)
                    for step, node, zombie in kills],
                   failover and (failover[0] - len(case.moves),)
                   + failover[1:])
    cluster.check_quiescent()
    return cluster


# A ``rdy`` run carrying None over an element a local write just set.
# Identity 0 writes element 9, which identity 1 owns (8..15), keeping it
# in node 0's list, then misses on 8; node 1 answers the read before the
# write arrives, with the run [F(8), None, F(10)].  Applied as a slice,
# that run would unset element 9 on node 0.
RUN_OVER_A_LOCAL_WRITE = Case(
    nodes=2, page=4, length=16,
    ops=((1, "w", 8), (1, "w", 10), (0, "w", 9), (0, "r", 8)),
    moves=(("control", 0), ("control", 1), ("run", 1), ("run", 1),
           ("run", 0), ("run", 0), ("peer", 1), ("peer", 1)))


# A fenced node's late write reaching a third node after the takeover's
# replay of it and before that node's new owner map: identity 2 writes
# element 1 (node 1's); node 2 is declared dead while it runs; node 0
# adopts identity 2 and replays the write to node 1, then node 2's own
# write arrives there.  Equal to what the replay stored, it is no
# single-assignment violation.
A_FENCED_WRITE_AFTER_ITS_REPLAY = Case(
    nodes=3, page=1, length=3, ops=((2, "w", 1),),
    moves=(("control", 0), ("control", 1), ("control", 2), ("control", 0),
           ("control", 0), ("run", 3), ("peer", 0), ("run", 2),
           ("peer", 0)),
    kills=((2, 2, True),))


# A node holding an element of an identity it then adopts: identity 1
# writes element 2 and, foreign, element 1; node 0 reads 2 (a run brings
# it) and node 1 is declared dead while it runs.  Node 0 already stores
# element 2 when it adopts identity 1, so its replay's write of 2
# verifies and is counted once; node 1's write of 1 arrives after node
# 0's owner map fences it, and changes nothing.
AN_ADOPTED_ELEMENT_HELD_HERE = Case(
    nodes=2, page=2, length=4,
    ops=((1, "w", 2), (0, "r", 2), (1, "w", 1)),
    moves=(("control", 0), ("control", 1), ("run", 1), ("run", 0),
           ("run", 0), ("peer", 0), ("peer", 1), ("control", 0),
           ("control", 0), ("peer", 0)) + (("run", 1),) * 4,
    kills=((6, 1, True),))


# A run landing on an offset the receiving node owns, while a peer is
# parked there: node 0 writes element 1 (node 1's) and keeps the copy;
# node 2's read of 1 parks at node 1; node 1's two-element run from
# node 0 brings 1 before node 0's write does.  The landing stores it
# and releases node 2; the write, when it comes, verifies.
A_RUN_OVER_A_PARKED_READ = Case(
    nodes=3, page=1, length=3,
    ops=((0, "w", 0), (0, "w", 1), (2, "w", 2), (1, "r", 2), (1, "r", 0),
         (2, "r", 1)),
    moves=(("control", 0), ("control", 1), ("control", 2), ("run", 0),
           ("run", 0), ("run", 2), ("run", 2), ("peer", 1), ("run", 1),
           ("peer", 1), ("peer", 1), ("run", 1), ("peer", 1), ("peer", 1),
           ("peer", 0)))


# A write still on its way to its owner when the coordinator collects:
# identity 1 writes element 0 (node 0's) and finishes; the write frame
# is dropped, so node 0 answers the collect without it.  The writer's
# copy is in node 1's answer.
A_WRITE_IN_FLIGHT_AT_THE_COLLECT = Case(
    nodes=2, page=1, length=2, ops=((1, "w", 0),),
    moves=(("control", 0), ("run", 0), ("control", 1), ("run", 0),
           ("run", 0), ("drop", 0)), budget=0)


@example(case=RUN_OVER_A_LOCAL_WRITE)
@example(case=A_WRITE_IN_FLIGHT_AT_THE_COLLECT)
@example(case=A_FENCED_WRITE_AFTER_ITS_REPLAY)
@example(case=AN_ADOPTED_ELEMENT_HELD_HERE)
@example(case=A_RUN_OVER_A_PARKED_READ)
@settings(max_examples=400, deadline=None)
@given(case=cases())
def test_every_drawn_schedule_finishes_equal_or_classified(case):
    run_case(case)


@pytest.mark.slow
@settings(max_examples=3000, deadline=None)
@given(case=cases())
def test_thousands_of_drawn_schedules(case):
    run_case(case)


def test_a_run_is_applied_element_by_element():
    cluster = Cluster(RUN_OVER_A_LOCAL_WRITE)
    for kind, who in RUN_OVER_A_LOCAL_WRITE.moves:
        assert cluster.move(kind, who)
        cluster.check()
    assert cluster.protos[0].segments[1].cells[8:11] == [F(8), F(9), F(10)]


def test_an_adopted_element_held_here_is_replayed_once():
    cluster = run_case(AN_ADOPTED_ELEMENT_HELD_HERE)
    assert cluster.takeovers == 1 and cluster.coord.sup.owners == [0, 0]
    [done] = [r for r in cluster.protos[0].reports
              if r["t"] == "done" and r["slot"] == 1]
    assert done["telemetry"]["replayed_present"] == 1


def test_a_run_over_a_parked_read_releases_it():
    cluster = Cluster(A_RUN_OVER_A_PARKED_READ)
    moves = A_RUN_OVER_A_PARKED_READ.moves
    for kind, who in moves[:-2]:
        assert cluster.move(kind, who)
    node1 = cluster.protos[1]
    assert node1.segments[1].pending_offsets() == [1]  # node 2 parked
    cluster.move(*moves[-2])  # the run from node 0 lands
    assert node1.segments[1].pending_offsets() == []
    assert [cluster.frames[c] for c in cluster.pool if c[1] == 2] == [
        {"t": "rdy", "a": 1, "lo": 1, "v": [F(1)]}]
    cluster.move(*moves[-1])  # node 0's write verifies
    assert not cluster.reports[1]
    cluster.settle([])
    cluster.check_quiescent()


def test_a_takeover_rebuilds_the_lost_segment():
    # Node 1 dies once it stored its elements; node 0's replay and the
    # re-run of identity 1's script put them back on node 0.
    case = Case(nodes=2, page=2, length=8,
                ops=tuple((off // 4, "w", off) for off in range(8))
                + ((0, "r", 6), (1, "r", 1)),
                kills=((0, 1, False),))
    cluster = Cluster(case)
    for kind, who in [("control", 0), ("control", 1)] + [("run", 1)] * 5:
        cluster.move(kind, who)
    cluster.kill(1, False)
    cluster.settle([])
    cluster.check_quiescent()
    assert cluster.takeovers == 1 and cluster.coord.sup.owners == [0, 0]
    assert cluster.protos[0].segments[1].cells[:8] == [
        F(off) for off in range(8)]
