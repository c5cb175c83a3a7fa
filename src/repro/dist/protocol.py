"""One node's protocol: every rule of a ``dist`` node, with no I/O.

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
that one element.  A run fills absent cells one by one: a slice would
put None back over an element an executor wrote meanwhile.  Whatever
fills a cell releases the readers parked on it.  A frame from a node
the coordinator fenced changes nothing.  An owner-map change re-issues
the reads addressed to a dead node and replays every element of a dead
node's identities this node holds to their new owner, if another —
between the survivors' stores and the takeover re-execution the lost
memory is rebuilt.

The caller supplies the lock, so this module needs no thread, loop,
socket, clock or future (``tests/test_layering.py``).
"""

from __future__ import annotations

from repro.common.errors import SingleAssignmentViolation
from repro.runtime.arrays import ArrayHeader
from repro.runtime.istructure import IStructureSegment
from repro.runtime.supervise import Fence, Start

SEND, REPORT, RELEASE, START, EXIT = (
    "send", "report", "release", "start", "exit")


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
            if owner != self.node:  # immutable: keep it at once
                return self._keep(self.segments[a], a, off, value) + [
                    (SEND, owner, {"t": "write", "a": a, "off": off,
                                   "v": value, "replay": replay})]
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
                return [(REPORT, {"t": "segment", "node": self.node,
                                  "a": msg["a"],
                                  "vals": self._owned(msg["a"])})]
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
            actions = []
            for off, value in enumerate(values, lo):
                if value is not None:
                    actions += self._keep(seg, a, off, value)
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

    def _keep(self, seg: IStructureSegment, a: int, off: int,
              value) -> list:
        """A copy of an element written elsewhere fills an absent cell;
        if owned here, its original write may yet come, and verifies."""
        if seg.cells[off] is not None:
            return []
        if self.owners[self.headers[a].owner_of_offset(off)] == self.node:
            self.held_first.add((a, off))
        return self._release(a, off, value, seg.write(off, value))

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

    def _owned(self, a: int) -> dict:
        """Array ``a``'s present elements at the offsets this node owns."""
        header = self.headers.get(a)
        if header is None:
            return {}
        cells = self.segments[a].cells
        return {off: cells[off]
                for ident, node in enumerate(self.owners) if node == self.node
                for off in range(*header.segment_bounds(ident))
                if cells[off] is not None}

    def _ckpt_state(self) -> dict:
        """This node's owned elements, keyed for ``ckpt-state``."""
        owned = {a: self._owned(a) for a in self.headers}
        return {str(a): {"dims": list(self.headers[a].dims), "vals": vals}
                for a, vals in owned.items() if vals}

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


def control_frames(core, actions: list) -> list[tuple[int, dict]]:
    """The coordinator frames that carry out a supervision core's
    ``Start`` and ``Fence`` actions, as ``(node, frame)`` pairs: a start
    is the new owner map to every live node, then the adoption."""
    frames = []
    for act in actions:
        if isinstance(act, Fence):
            frames.append((act.member, {"t": "fence"}))
        elif isinstance(act, Start):
            frames += [(node, {"t": "ownermap", "owners": list(core.owners),
                               "live": sorted(core.live),
                               "gen": act.generation})
                       for node in sorted(core.live)]
            frames.append((act.member, {
                "t": "adopt", "identities": list(act.identities),
                "generation": act.generation, "slot": act.slot}))
    return frames
