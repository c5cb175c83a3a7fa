"""The ``dist`` protocols: every rule of a node and of the coordinator,
with no I/O.

A :class:`NodeProtocol` is the paper's PE (§4, §5.1) as a state machine.
It owns all of one node's state:

* the I-structure memory, its one element store: per array, one
  :class:`~repro.runtime.istructure.IStructureSegment` (presence bits,
  FIFO deferred readers, single assignment) from offset 0, grown in
  place by whole pages as frames touch it (one can name an array before
  this node allocates it) and to the whole array once allocated.  Its
  cells hold what the node owns and every copy it has (single
  assignment: a copy never goes stale); they are the list every handle
  of the array shares and the inline read probes without the lock;
* per array, the header;
* the owner map (identity -> node), the live set and the highest
  coordinator generation seen;
* the pending remote reads and the remembered reports.

Events come in as method calls — a coordinator frame (:meth:`control`),
a peer frame (:meth:`peer`), an executor's write (:meth:`write`) or read
miss (:meth:`read`), an executor's report (:meth:`emit`), a peer lost
(:meth:`peer_lost`) — and each runs under the one lock and returns a
list of actions for the caller to carry out once it is released:

* ``(SEND, node, frame)`` — a reliable frame to a peer;
* ``(REPORT, frame)`` — a frame to the coordinator;
* ``(RELEASE, waiter, value)`` — wake an executor's read (waiters are
  opaque tokens);
* ``(START, identities, generation, slot, replay)`` — run an executor;
* ``(EXIT,)`` — fenced: die now.

The rules.  An element is owned by an identity (first-element ownership,
``ArrayHeader.owner_of_offset``) and an identity by a node (the owner
map, initially the identity map).  A write is stored by its owner once;
a second non-replay write is a :class:`SingleAssignmentViolation`, and a
*replay* write of a present element is verified against it and counted
(the idempotence that makes takeover re-execution safe); an original
write arriving by frame at an element its owner held first as a copy —
a fenced node's late frame, a write a run overtook — is verified too,
not counted.  A read of an element the node does not hold is
split-phase: a ``read`` frame to the owner, answered with a run of its
cells from the requested element's page (``n`` long, the reader's
window), or deferred owner-side until the write and then answered with
that one element.  A run lands in one pass over the segment
(:meth:`IStructureSegment.fill`): it fills absent cells only, so its
None never unsets an element an executor wrote meanwhile, and marks
the owned ones it fills as held first.  Whatever fills a cell releases
the readers parked on it.  A frame from a node
the coordinator fenced changes nothing.  An owner-map change re-issues
the reads addressed to a dead node and replays every element of a dead
node's identities this node holds to their new owner, if another —
between the survivors' stores and the takeover re-execution the lost
memory is rebuilt.

A :class:`CoordinatorProtocol` is the coordinator's half.  Its events —
a ``hello``, a node frame, a process exit, a tick, a checkpoint due, a
round's deadline — return actions: ``(SEND, node, frame)`` and
``(SNAPSHOT, arrays)``, a checkpoint to write.

The caller supplies the lock and the time, so this module needs no
thread, loop, socket, clock or future (``tests/test_layering.py``).
"""

from __future__ import annotations

from math import prod

from repro.common.errors import SingleAssignmentViolation, WorkerFailure
from repro.dist import reasons
from repro.runtime.arrays import ArrayHeader
from repro.runtime.istructure import IStructureSegment
from repro.runtime.supervise import Abort, Fence, Finish, Start, Supervision
from repro.runtime.values import ArrayValue
from repro.sim.reliable import NetStats

SEND, REPORT, RELEASE, START, EXIT, SNAPSHOT = (
    "send", "report", "release", "start", "exit", "snapshot")

# The node frames that are reports for the supervision core, and those
# that answer a coordinator round (frame type -> the round's kind).
_REPORTS = ("started", "done", "result", "err", "peer-lost")
_ANSWERS = {"segment": "collect", "ckpt-state": "ckpt", "bye": "shutdown"}


def _remote(waiter) -> bool:
    return type(waiter) is int  # a peer reader is its node number


class NodeProtocol:
    """One node's state, advanced only by events under ``lock``."""

    def __init__(self, node: int, nodes: int, page_size: int, lock,
                 restore=None) -> None:
        self.node, self.nodes, self.page_size = node, nodes, page_size
        self.lock, self.restore = lock, restore
        self.owners = list(range(nodes))  # identity -> node
        self.live = set(range(nodes))
        self.gen = 1  # highest coordinator generation seen
        self.started = False
        self.segments: dict[int, IStructureSegment] = {}
        self.replayed = 0  # replay writes verified since the last done
        # Owned elements held before their original write could arrive
        # (stored by a replay, a run's landing, or held when adopted).
        self.held_first: set[tuple[int, int]] = set()
        self.headers: dict[int, ArrayHeader] = {}
        # (array, offset) -> [node asked, run asked for, waiters]
        self.pending: dict[tuple[int, int], list] = {}
        # Every report sent and every executor started, for a promoted
        # standby coordinator (replaying one twice is idempotent there).
        self.reports: list[dict] = []

    # -- executor events ---------------------------------------------------

    def array(self, header: ArrayHeader) -> list:
        """The cells of ``header``'s array: the node's one store of it."""
        with self.lock:
            return self._array(header)

    def write(self, a: int, off: int, value, replay: bool) -> list:
        """An executor writes: an owned element is stored here (a
        violation raises in the writer), any other goes to its owner."""
        with self.lock:
            owner = self.owners[self.headers[a].owner_of_offset(off)]
            if owner != self.node:  # immutable: keep a copy at once
                seg = self.segments[a]
                actions = ([] if seg.cells[off] is not None else
                           self._release(a, off, value, seg.write(off, value)))
                actions.append((SEND, owner, {"t": "write", "a": a, "off": off,
                                              "v": value, "replay": replay}))
                return actions
            waiters = self._write(a, off, value, replay)
            return self._release(a, off, value, waiters) if waiters else []

    def read(self, a: int, off: int, n: int, waiter) -> tuple[bool, list]:
        """An executor's read missed the node's cells: ``waiter`` is
        released with the value, now or later.  Also says whether the
        element is another node's (the reader's window then grows)."""
        with self.lock:
            return self._read(a, off, n, waiter)

    def emit(self, slot: int, generation: int, identities, tag: str,
             payload) -> list:
        """An executor reports (``SpmdInterpreter.execute``'s ``emit``)."""
        msg = {"t": tag, "node": self.node, "slot": slot, "gen": generation}
        with self.lock:
            if tag == "result":
                msg["v"] = payload
            elif tag == "done":
                payload["replayed_present"] = self.replayed
                self.replayed = 0
                msg["identities"] = list(identities)
                msg["telemetry"] = payload
            elif tag == "err":
                msg["code"], msg["detail"] = payload
            else:
                msg["detail"] = payload
            return self._report(msg)

    # -- loop events -------------------------------------------------------

    def control(self, msg: dict) -> list:
        """A coordinator frame (``shutdown`` and the peer map are the
        caller's: they are about sockets)."""
        t = msg["t"]
        with self.lock:
            if t == "start":
                self.owners, self.live = list(msg["owners"]), set(msg["live"])
                if self.started:
                    return []
                self.started = True
                if self.restore is not None:
                    self._seed_restore()
                return [self._start((self.node,), 1, self.node,
                                    self.restore is not None)]
            if t == "adopt":
                self.gen = max(self.gen, msg["generation"])
                return [self._start(tuple(msg["identities"]),
                                    msg["generation"], msg["slot"], True)]
            if t == "ownermap":
                self.gen = max(self.gen, int(msg.get("gen", 1)))
                return self._ownermap(list(msg["owners"]), set(msg["live"]))
            if t == "collect":
                # Every element held: a write may still be on its way.
                seg = self.segments.get(msg["a"])
                return [(REPORT, {"t": "segment", "node": self.node,
                                  "a": msg["a"],
                                  "vals": dict(seg.items()) if seg else {}})]
            if t == "ckpt":
                return [(REPORT, {"t": "ckpt-state", "node": self.node,
                                  "arrays": self._ckpt_state()})]
            if t == "fence":
                # Declared dead: die at once, like the zombie the
                # coordinator already believes this node is.
                return [(EXIT,)]
            return []

    def peer(self, src: int, m: dict) -> list:
        """A peer frame, delivered once."""
        with self.lock:
            if src not in self.live:
                return []  # a fenced zombie's writes and reads are void
            t, a = m["t"], m["a"]
            if t == "write":
                return self._store(a, m["off"], m["v"], m["replay"], src)
            if t == "read":
                off = m["off"]
                seg = self._segment(a, off)
                if seg.cells[off] is None:
                    seg.defer(off, src)
                    return []
                return [(SEND, src, self._run(seg, a, off, m["n"]))]
            lo, values = m["lo"], m["v"]  # rdy
            hi = lo + len(values)
            seg = self._segment(a, hi - 1)
            # An owned element a run fills is held before its original
            # write could arrive, which then verifies.
            header, cells = self.headers[a], seg.cells
            for ident in range(header.owner_of_offset(lo),
                               header.owner_of_offset(hi - 1) + 1):
                if self.owners[ident] == self.node:
                    first, last = header.segment_bounds(ident)
                    owned = range(max(lo, first), min(hi, last))
                    self.held_first.update([
                        (a, off) for off in owned if cells[off] is None
                        and values[off - lo] is not None])
            actions = []
            for off, waiters in seg.fill(lo, values):
                actions += self._release(a, off, values[off - lo], waiters)
            # Few reads are pending at once, so look them up rather than
            # the run's every element.
            for key in [k for k in self.pending
                        if k[0] == a and lo <= k[1] < hi]:
                value = values[key[1] - lo]
                if value is not None:
                    actions += [(RELEASE, w, value)
                                for w in self.pending.pop(key)[2]]
            return actions

    def peer_lost(self, peer: int, reason: str, detail: str) -> list:
        with self.lock:
            return self._report({"t": "peer-lost", "node": self.node,
                                 "peer": peer, "reason": reason,
                                 "detail": detail})

    def resync(self) -> dict:
        """What a promoted standby coordinator is told on rejoin."""
        with self.lock:
            return {"gen": self.gen, "owners": list(self.owners),
                    "live": sorted(self.live), "reports": list(self.reports)}

    # -- the rules (lock held) ---------------------------------------------

    def _array(self, header: ArrayHeader) -> list:
        self.headers.setdefault(header.array_id, header)
        return self._segment(header.array_id,
                             header.total_elements - 1).cells

    def _segment(self, a: int, off: int) -> IStructureSegment:
        """Array ``a``'s segment, covering ``off``'s page."""
        seg = self.segments.get(a)
        if seg is None:
            seg = self.segments[a] = IStructureSegment(a, 0, 0)
        if off >= seg.hi:
            seg.grow((off // self.page_size + 1) * self.page_size)
        return seg

    def _write(self, a: int, off: int, value, replay: bool) -> list:
        """Store ``value``: the waiters it released, in arrival order.  A
        second write raises unless it is a ``replay`` of the stored
        value, which is counted."""
        waiters = self._segment(a, off).write(off, value, replay)
        if waiters is None:
            self.replayed += 1
            return []
        if replay:
            self.held_first.add((a, off))
        return waiters

    def _release(self, a: int, off: int, value, waiters: list) -> list:
        """Wake what a write released: an executor's read here, or a
        peer's with a run of the one element it waits on."""
        return [(SEND, w, {"t": "rdy", "a": a, "lo": off, "v": [value]})
                if _remote(w) else (RELEASE, w, value) for w in waiters]

    def _store(self, a: int, off: int, value, replay: bool,
               writer: int) -> list:
        """A write that reached its owner by frame: the writer has moved
        on, so a violation is reported as an error.  An original write
        of the value a copy stored first is none: a fenced node's frame
        that reached this node before the owner map that fences it, or
        a write a run from a node holding the element overtook."""
        try:
            waiters = self._write(a, off, value, replay)
        except SingleAssignmentViolation as exc:
            if ((a, off) in self.held_first
                    and self.segments[a].get(off) == value):
                return []
            return self._report({
                "t": "err", "node": self.node, "slot": self.node,
                "gen": self.gen,  # no older than any execution here
                "code": exc.code,
                "detail": f"{type(exc).__name__}: {exc}\n"
                          f"(write received from node {writer})"})
        return self._release(a, off, value, waiters)

    def _read(self, a: int, off: int, n: int, waiter) -> tuple[bool, list]:
        seg = self.segments[a]
        value = seg.cells[off]
        if value is not None:  # a run landed since the reader looked
            return False, [(RELEASE, waiter, value)]
        owner = self.owners[self.headers[a].owner_of_offset(off)]
        if owner == self.node:
            seg.defer(off, waiter)
            return False, []
        entry = self.pending.get((a, off))
        if entry is not None:
            entry[2].append(waiter)
            return True, []
        self.pending[(a, off)] = [owner, n, [waiter]]
        return True, [(SEND, owner, {"t": "read", "a": a, "off": off,
                                     "n": n})]

    def _run(self, seg: IStructureSegment, a: int, off: int, n: int) -> dict:
        """A read reply: the run of up to ``n`` elements from ``off``'s
        page (from ``off``'s ``n``-aligned slice of it when a page is
        longer), None where absent, ending at the last present one.  It
        carries whatever the node holds there, owned or not."""
        lo = off // self.page_size * self.page_size
        lo += (off - lo) // n * n
        values = seg.snapshot_page(lo, lo + n)
        while values[-1] is None:  # ``off`` itself is present
            values.pop()
        return {"t": "rdy", "a": a, "lo": lo, "v": values}

    def _report(self, msg: dict) -> list:
        self.reports.append(msg)
        return [(REPORT, msg)]

    def _start(self, identities: tuple, generation: int, slot: int,
               replay: bool) -> tuple:
        # Remembered, not sent: a promoted standby rebuilds its
        # supervision core from the executions the nodes say they run.
        self.reports.append({"t": "started", "node": self.node,
                             "slot": slot, "identities": list(identities),
                             "gen": generation})
        return (START, identities, generation, slot, replay)

    def _ownermap(self, owners: list, live: set) -> list:
        dead = self.live - live
        rebound = sorted(ident for ident, old in enumerate(self.owners)
                         if old in dead)
        self.owners, self.live = owners, live
        # A dead reader's parked reads just drop: its takeover replay
        # re-reads what it needs.
        for seg in self.segments.values():
            seg.discard_waiters(lambda w: _remote(w) and w in dead)
        # Re-issue the reads addressed to a dead node, each asking for
        # the run it asked for before.
        actions = []
        for key, (target, n, waiters) in list(self.pending.items()):
            if target not in live:
                del self.pending[key]
                for waiter in waiters:
                    actions += self._read(*key, n, waiter)[1]
        # Presence-bit replay: push this node's copies of the rebound
        # identities' elements to their new owner as replay writes.  What
        # this node adopts it already stores; an original write of it
        # still on its way verifies.
        for a, header in self.headers.items():
            cells = self.segments[a].cells
            for ident in rebound:
                owner = owners[ident]
                for off in range(*header.segment_bounds(ident)):
                    if cells[off] is not None and owner == self.node:
                        self.held_first.add((a, off))
                    elif cells[off] is not None:
                        actions.append((SEND, owner, {
                            "t": "write", "a": a, "off": off,
                            "v": cells[off], "replay": True}))
        return actions

    def _ckpt_state(self) -> dict:
        """Every element this node holds, keyed for ``ckpt-state``, as
        ``collect`` answers: a write may still be on its way to its owner,
        and the writer's copy is then the only one."""
        state = {}
        for a, header in self.headers.items():
            vals = dict(self.segments[a].items())
            if vals:
                state[str(a)] = {"dims": list(header.dims), "vals": vals}
        return state

    def _seed_restore(self) -> None:
        """Pre-seed the segments from a ``pods-ckpt/v2`` snapshot.
        Ownership is re-derived at the current node count (the checkpoint
        stores flat offsets), so a run checkpointed at N nodes restores at
        M; every element lands, owned or not (single assignment makes any
        copy authoritative), sparing the replay a round of remote reads."""
        for ordinal in self.restore.ordinals():
            entry = self.restore.array(ordinal)
            if entry is None:
                continue
            dims, elements = entry
            self._array(ArrayHeader(ordinal, tuple(dims), self.page_size,
                                    self.nodes))
            seg = self.segments[ordinal]
            for off, value in elements.items():
                seg.seed(off, value)


class CoordinatorProtocol:
    """The coordinator's state, advanced only by events.

    ``cfg`` is the run's :class:`~repro.common.config.DistConfig`;
    ``expect`` the nodes a promoted standby waits for (their processes
    alive), ``None`` on the primary, which waits for all; ``checkpoints``
    whether a final checkpoint round follows the run.  It owns the
    supervision core, registration (on a standby, the resync vote and
    every report and death held until it ends), the routing of frames
    and exits into core events, heartbeat silence and the rounds: a
    broadcast whose answers are merged, closed when every node still in
    it has answered or been lost.
    """

    def __init__(self, cfg, now: float, expect=None,
                 checkpoints: bool = False) -> None:
        self.cfg, self.checkpoints = cfg, checkpoints
        self.sup = Supervision(cfg.nodes, cfg.retry, respawns=0, hosted=True,
                               timeout_s=cfg.timeout_s, unit="node", now=now)
        self.standby = expect is not None
        self.expect = set(range(cfg.nodes) if expect is None else expect)
        self.ports: dict[int, int] = {}  # registered node -> peer port
        self.last_hb: dict[int, float] = {}
        self.registered = False
        self.vote: tuple = (0, None, None)  # (generation, owners, live)
        # Standby, until the vote ends: (death?, node, report | exitcode).
        self.held: list[tuple[bool, int, object]] = []
        self.outcome = None  # the supervision core's Abort or Finish
        self.rounds: dict[str, set[int]] = {}  # kind -> nodes not answered
        self.gone: set[int] = set()  # nodes the coordinator saw lost
        self.dims, self.collected = (), {}  # the collect's array
        # array id -> (dims, {offset: value}); a monotone union across
        # rounds — single assignment makes mixed-time replies a cut.
        self.ckpt_arrays: dict[int, tuple[tuple, dict]] = {}
        self.netstats = NetStats()
        self.value = None

    @property
    def phase(self) -> str:
        """What the run waits for: ``register``, ``run``, the final round
        open (``collect``, ``ckpt``, ``shutdown``), or its ``end``."""
        if self.outcome is None:
            return "run" if self.registered else "register"
        if isinstance(self.outcome, Abort):
            return "end"
        return next((kind for kind in ("collect", "ckpt", "shutdown")
                     if kind in self.rounds), "end")

    def missing(self) -> list[int]:
        """The nodes registration still waits for."""
        dead = {node for death, node, _ in self.held if death}
        live = self.vote[2]
        return sorted(node for node in self.expect - dead - set(self.ports)
                      if live is None or node in live)

    # -- events ------------------------------------------------------------

    def hello(self, now: float, node: int, port: int,
              resync: dict | None = None) -> list:
        """A node registered; a rejoining one brings its ``resync``."""
        self.ports[node] = port
        self.last_hb[node] = now
        if resync:
            generation = int(resync.get("gen", 1))
            if generation > self.vote[0]:  # later broadcasts supersede
                self.vote = (generation, resync.get("owners"),
                             resync.get("live"))
            self.held += [(False, int(report.get("node", node)), report)
                          for report in resync.get("reports", ())]
        return self._register(now)

    def frame(self, now: float, node: int, msg: dict) -> list:
        """Any other frame: a heartbeat, a report, a round's answer."""
        t = msg.get("t")
        if t == "hb":
            self.last_hb[node] = now
        elif t in _ANSWERS:
            return self._answer(node, _ANSWERS[t], msg)
        elif t in _REPORTS and self.standby and not self.registered:
            self.held.append((False, node, msg))
        elif t in _REPORTS:
            return self._report(now, node, msg)
        return []

    def exited(self, now: float, node: int, exitcode: int | None) -> list:
        """``node``'s process is gone."""
        if self.standby and not self.registered:
            self.held.append((True, node, exitcode))
            return self._register(now)
        return self._lose(now, node, reasons.PROCESS_EXIT, exitcode,
                          f"exitcode {'?' if exitcode is None else exitcode}")

    def tick(self, now: float) -> list:
        """Time passed: declare the silent lost, then start what is due."""
        if not self.registered:
            return []
        actions, limit = [], self.cfg.heartbeat_timeout_s
        for node in sorted(self.sup.live):
            hb = self.last_hb.get(node)
            if hb is not None and now - hb > limit:
                actions += self._lose(now, node, reasons.HEARTBEAT_SILENCE,
                                      None, f"{now - hb:.2f}s silent "
                                            f"(threshold {limit:g}s)")
        return actions + self._apply(self.sup.tick(now))

    def checkpoint(self) -> list:
        """A checkpoint is due: open a round, unless one is open."""
        if self.phase != "run" or "ckpt" in self.rounds:
            return []
        return self._open("ckpt")

    def close(self, kind: str) -> list:
        """Round ``kind``'s deadline passed: it ends with what it has."""
        return self._closed(kind) if kind in self.rounds else []

    # -- the rules ---------------------------------------------------------

    def _register(self, now: float) -> list:
        """Once every expected node said ``hello``: a standby takes
        command one generation past the vote's and replays what it held,
        reports (``started`` too; twice is idempotent) before deaths, so
        a loss the old coordinator healed is not healed twice.  A live
        node that never took its start is started; a takeover no node
        began starts again."""
        if self.registered or self.missing():
            return []
        self.registered = True
        sup, actions, began = self.sup, [], set()
        if self.standby:
            generation, owners, live = self.vote
            sup.resume(now, owners, live, generation, self.ports)
            actions = self._ownermap(sup.generation)
            held, self.held = sorted(self.held, key=lambda e: e[0]), []
            for death, node, what in held:
                if death:
                    actions += self.exited(now, node, what)
                    continue
                if what["t"] == "started":
                    began.add(node)
                actions += self._report(now, node, what)
        fresh = sorted(sup.live & set(self.ports) - began)
        start = {"t": "start", "owners": list(sup.owners),
                 "live": sorted(sup.live),
                 "peers": {str(node): [self.cfg.host, port]
                           for node, port in sorted(self.ports.items())}}
        actions += [(SEND, node, start) for node in fresh]
        for node in fresh:
            actions += self._apply(sup.started(now, node, node, (node,), 1))
        return actions + self._apply(sup.reissue(now))

    def _report(self, now: float, node: int, msg: dict) -> list:
        t = msg["t"]
        if t == "peer-lost":
            return self._lose(now, msg["peer"], msg["reason"], None,
                              f"unreachable from node {node}: "
                              f"{msg['detail']}", reporter=node)
        if t == "started":
            return self._apply(self.sup.started(
                now, node, msg["slot"], msg["identities"], msg["gen"]))
        payload = {"done": msg.get("telemetry"), "result": msg.get("v"),
                   "err": (msg.get("code"), msg.get("detail"))}[t]
        return self._apply(self.sup.report(now, node, msg.get("slot", node),
                                           msg.get("gen", 1), t, payload))

    def _lose(self, now: float, node: int, reason: str,
              exitcode: int | None, detail: str,
              reporter: int | None = None) -> list:
        """``node`` is lost.  Seen by the coordinator itself, it leaves
        the rounds after the finish too, and a collect it has not
        answered ends the run with this loss; a peer's report then
        arbitrates nothing, and the node may still answer."""
        kind = reasons.failure_kind(reason, exitcode)
        detail = reasons.reason_string(reason, detail)
        actions = self._apply(self.sup.lost(now, node, kind, exitcode,
                                            detail, reporter))
        if reporter is not None or isinstance(self.outcome, Abort):
            return actions
        self.gone.add(node)
        if node in self.rounds.get("collect", ()):
            self.rounds.clear()
            self.outcome = Abort((WorkerFailure(
                node, exitcode, kind, detail, self.sup.generation),),
                f"node {node} lost before it answered the collect request",
                True)
            return actions
        return actions + self._leave(node)

    def _apply(self, actions: list) -> list:
        """Frames for the supervision core's actions (a start: the owner
        map to every live node, then the adoption); a fenced node leaves
        every round; a finish opens the final rounds."""
        out = []
        for act in actions:
            if isinstance(act, Fence):
                out += [(SEND, act.member, {"t": "fence"})]
                out += self._leave(act.member)
            elif isinstance(act, Start):
                out += self._ownermap(act.generation) + [(SEND, act.member, {
                    "t": "adopt", "identities": list(act.identities),
                    "generation": act.generation, "slot": act.slot})]
            else:
                self.outcome = act
                self.rounds.pop("ckpt", None)  # the final round replaces it
                if isinstance(act, Finish) and act.result[0] == "array":
                    self.dims = tuple(act.result[1][1])
                    out += self._open("collect", a=act.result[1][0])
                elif isinstance(act, Finish):
                    self.value = act.result[1]
                    out += self._open("ckpt" if self.checkpoints
                                      else "shutdown")
        return out

    def _ownermap(self, generation: int) -> list:
        return [(SEND, node, {"t": "ownermap", "owners": list(self.sup.owners),
                              "live": sorted(self.sup.live),
                              "gen": generation})
                for node in sorted(self.sup.live)]

    def _open(self, kind: str, **fields) -> list:
        """Ask every live node the coordinator has not seen lost."""
        pending = self.rounds[kind] = self.sup.live - self.gone
        frame = {"t": kind, **fields}
        return ([(SEND, node, frame) for node in sorted(pending)]
                if pending else self._closed(kind))

    def _answer(self, node: int, kind: str, msg: dict) -> list:
        """Merge ``node``'s answer into the open round ``kind``; a node not
        in it (fenced, lost, or answered already) changes nothing."""
        if node not in self.rounds.get(kind, ()):
            return []
        if kind == "collect":
            self.collected.update((int(off), value)
                                  for off, value in msg["vals"].items())
        elif kind == "ckpt":
            for key, entry in msg.get("arrays", {}).items():
                self.ckpt_arrays.setdefault(int(key), (tuple(entry.get(
                    "dims", ())), {}))[1].update(
                    (int(off), value) for off, value in entry["vals"].items())
        else:
            self.netstats.add(msg.get("netstats") or {})
        return self._leave(node)

    def _leave(self, node: int) -> list:
        """``node`` answered or was lost: a round left waiting for
        nobody closes."""
        actions = []
        for kind, pending in list(self.rounds.items()):
            if node in pending:
                pending.discard(node)
                if not pending:
                    actions += self._closed(kind)
        return actions

    def _closed(self, kind: str) -> list:
        del self.rounds[kind]
        actions = []
        if kind == "collect":
            self.value = ArrayValue(self.dims, [
                self.collected.get(off) for off in range(prod(self.dims))])
        elif kind == "ckpt":
            actions = [(SNAPSHOT, [(aid, dims, vals) for aid, (dims, vals)
                                   in sorted(self.ckpt_arrays.items())])]
        if self.outcome is None or kind == "shutdown":
            return actions
        return actions + self._open(  # the next final round
            "ckpt" if self.checkpoints and kind == "collect" else "shutdown")
