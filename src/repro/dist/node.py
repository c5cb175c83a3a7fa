"""The node process: message runtime + SPMD interpreter executors.

One node process is the distributed backend's PE: an I-structure memory
(:mod:`repro.dist.memory`, the paper's PE-local unit) with two kinds of
thread around it:

* the **executors** (worker threads): one interpreter per adopted
  identity group, running the program on the shared SPMD core
  (:mod:`repro.runtime.spmd`, the same one the real-parallel backend
  runs) — replicated scalar code, Range-Filter subranges for distributed
  loops, node-private ``SeqArray`` temporaries inside distributed
  iterations.  An executor stores what its node owns *itself*: a write
  to an owned element, or a read waiting for one, goes to the memory.
* the **runtime** (main thread, asyncio): the peer transport endpoint
  and the coordinator control link (hello/heartbeats up, start/adopt/
  ownermap/collect/fence/shutdown down).  It applies what peers send to
  the same memory, and does for the executors what needs a socket: a
  write to, or read miss of, an element another node owns, and the
  reply to a remote reader a local write released — nothing else
  crosses from an executor to the loop.

Array semantics follow the paper's Section 4: elements are assigned to
*identities* by the same first-element-ownership math as every other
backend (``ArrayHeader.owner_of_offset``), and identities map to nodes
through a coordinator-versioned owner map (initially the identity map;
takeover rebinds a dead node's identities to a survivor).  A write is
routed to the owning node and lands in its memory once — a second
non-replay write is a :class:`SingleAssignmentViolation`; a replay
write of an already-present element is *verified* against the stored
value instead (the idempotence that makes takeover re-execution safe).
A read of an element the node has not seen becomes a genuine
split-phase exchange: a ``read`` request to the owner, answered with a
run of the owner's elements that starts at the requested element's page
and grows with each miss of the same handle (the read window), or
deferred owner-side until the write arrives and then answered with that
one element.  A read that nothing will ever
satisfy times out as a structured
:class:`~repro.common.errors.DeferredReadTimeout` — the distributed
face of deadlock.

Zombie fencing: frames from nodes the coordinator has declared dead are
dropped at the message handler (the owner-map broadcast carries the
live set), so a half-dead predecessor's late writes are discarded —
and a replay's duplicate writes verify as equal rather than violate.
"""

from __future__ import annotations

import asyncio
import concurrent.futures as cf
import os
import sys
import threading
import time
import traceback

from repro.common.errors import DeferredReadTimeout, SingleAssignmentViolation
from repro.dist.faults import DistFaultInjector, DistFaultPlan
from repro.dist.memory import NodeMemory
from repro.dist.transport import (COORD, Endpoint, encode_frame,
                                  frame_secret, read_frame)
from repro.runtime.arrays import ArrayHeader, SharedHandle, index_fn
from repro.runtime.spmd import SpmdInterpreter, sigterm_default

# The longest run a read may ask for, in elements (64 pages of 32): it
# bounds a reply's frame and the owner's time encoding it, whatever the
# page size.
_RUN_CAP = 2048

# ``DistArray.read`` after the index rule: count, then the node's list
# of the array's elements (program values are numbers, never None), then
# the miss path, which waits for the element; whatever answers it puts
# the element in the list first.
_DIST_READ = """\
self.reads += 1
value = seen[off]
if value is None:
    value = miss(self, indices, off)
return value
"""


class DistArray(SharedHandle):
    """One executor's handle to a distributed I-structure.

    Holds the geometry (an :class:`ArrayHeader` over the *identity*
    space — ownership never changes shape, only the identity->node
    binding does) and this executor's access counters; storage lives in
    the node's memory, and every element the node has seen in the
    node's one list of the array (:meth:`NodeRuntime.seen_list`), which
    every handle of the array on the node shares and the interpreter's
    inline read probes (:class:`~repro.runtime.arrays.Handle`).
    ``read`` is built here, once, by
    :func:`~repro.runtime.arrays.index_fn`: the index rule for this
    handle's rank, the counter and a look in the list in one Python
    frame, then the miss path.

    ``window`` is how many elements this handle's next remote miss asks
    the owner for: one page at first (at most ``_RUN_CAP``), doubled by
    each remote miss up to ``_RUN_CAP``, so a scan that keeps missing
    fetches runs that grow with it while a one-off miss costs one page.
    """

    __slots__ = ("runtime", "replay", "read", "window")

    def __init__(self, runtime: "NodeRuntime", seq: int,
                 dims: tuple[int, ...], replay: bool = False) -> None:
        super().__init__(seq, dims, runtime.cfg.page_size,
                         runtime.num_identities)
        self.runtime = runtime
        self.replay = replay  # writes verify already-present elements
        self.window = min(runtime.cfg.page_size, _RUN_CAP)
        seen = self.probe(runtime.seen_list(self.header))
        self.read = index_fn("read", seq, dims, _DIST_READ, self=self,
                             seen=seen, miss=runtime.read_miss)

    def write(self, indices: tuple, value) -> None:
        self.runtime.array_write(self, indices, value)


class _NodeInterpreter(SpmdInterpreter):
    """The SPMD core over this node's memory and element lists."""

    def __init__(self, runtime: "NodeRuntime", identities: tuple[int, ...],
                 replay: bool) -> None:
        super().__init__(runtime.program, identities, runtime.injector)
        self.runtime = runtime
        self.replay = replay

    def alloc_shared(self, seq: int, dims: tuple[int, ...]) -> DistArray:
        return DistArray(self.runtime, seq, dims, self.replay)


class NodeRuntime:
    """Everything one node process owns: loop, transport, memory, threads.

    Thread contract.  Both kinds of thread use ``memory`` (its lock is
    the only one here) and the element lists (plain lists under the GIL,
    written one element at a time; single assignment makes a value in
    one immutable).  The loop thread alone owns the sockets, the pending
    reads and the report memory, and *assigns* ``owners`` and ``live``.  An executor reads ``owners``
    to ask one question — is this element mine? — and acts on a yes
    without the loop.  The answer cannot go stale in the dangerous
    direction: an owner-map change only ever rebinds a *dead* node's
    identities, so "mine" stays mine, and a "not mine" goes through
    ``call_soon_threadsafe`` to the loop, which asks again.
    """

    def __init__(self, program, node: int, coord_port: int, cfg,
                 args: tuple, plan: DistFaultPlan,
                 standby_port: int | None = None,
                 restore=None) -> None:
        self.program = program
        self.node = node
        self.num_identities = cfg.nodes
        self.coord_port = coord_port
        self.standby_port = standby_port
        self.restore = restore
        self.cfg = cfg
        self.args = tuple(args)
        self.injector = DistFaultInjector(plan, node)
        self.owners = list(range(cfg.nodes))  # identity -> node
        self.live = set(range(cfg.nodes))
        self.memory = NodeMemory(cfg.page_size)
        # Per allocation ordinal: the array's header, and the node's one
        # list of the elements it has seen (None: not seen), which every
        # handle of the array here shares.
        self.headers: dict[int, ArrayHeader] = {}
        self.seen: dict[int, list] = {}
        # (array seq, offset) -> {"ident": owner identity, "target":
        # node the request went to, "n": the run it asked for, "futs":
        # [concurrent futures]}
        self.pending: dict[tuple[int, int], dict] = {}
        self.loop: asyncio.AbstractEventLoop | None = None
        self.endpoint: Endpoint | None = None
        self._coord_writer = None
        self._stop: asyncio.Event | None = None
        self._hb_task: asyncio.Task | None = None
        self._threads: list[threading.Thread] = []
        self._secret = frame_secret()
        self._started = False
        self.gen = 1  # highest coordinator generation seen
        self.peer_port: int | None = None
        # Every done/result/err/peer-lost frame ever sent, and each
        # executor started, so a promoted standby can be brought up to
        # date.
        self.reports: list[dict] = []

    # ------------------------------------------------------------------
    # lifecycle (loop thread)
    # ------------------------------------------------------------------

    async def run(self) -> None:
        self.loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        reader, writer = await asyncio.wait_for(
            asyncio.open_connection(self.cfg.host, self.coord_port),
            self.cfg.connect_timeout_s)
        self._coord_writer = writer
        self.endpoint = Endpoint(self.node, self.cfg, self.injector,
                                 self._on_peer_msg, self._on_peer_lost)
        port = await self.endpoint.start(self.cfg.host)
        self.peer_port = port
        self._send_coord({"t": "hello", "node": self.node, "port": port})
        coord_task = asyncio.ensure_future(self._coord_loop(reader))
        # A control loop that raises must take the node down (node_main
        # exits non-zero), so the coordinator sees a crash within one
        # poll instead of a node that never answers again.
        coord_task.add_done_callback(lambda _: self._stop.set())
        try:
            await self._stop.wait()
        finally:
            coord_task.cancel()
            if self._hb_task is not None:
                self._hb_task.cancel()
            await self.endpoint.close()
            try:
                writer.close()
            except Exception:
                pass
        if coord_task.done() and not coord_task.cancelled():
            coord_task.result()  # re-raises the control loop's error

    async def _coord_loop(self, reader) -> None:
        while True:
            msg = await read_frame(reader, self._secret,
                                   self._auth_reject)
            if msg is None:
                # Coordinator gone.  A warm standby is listening on a
                # pre-announced port: rejoin it and resync; if that
                # fails there is nothing left to report to.
                reader = await self._rejoin()
                if reader is None:
                    self._stop.set()
                    return
                continue
            t = msg.get("t")
            if t == "start":
                peers = {int(k): (v[0], int(v[1]))
                         for k, v in msg["peers"].items()}
                self.endpoint.set_peers(peers)
                self.owners = list(msg["owners"])
                self.live = set(msg["live"])
                if self._hb_task is None:
                    self._hb_task = asyncio.ensure_future(self._hb_loop())
                if not self._started:
                    self._started = True
                    if self.restore is not None:
                        self._seed_restore()
                    self._start_executor(
                        (self.node,), generation=1, slot=self.node,
                        replay=self.restore is not None)
            elif t == "adopt":
                generation = msg["generation"]
                self.gen = max(self.gen, generation)
                self.injector.set_generation(generation)
                self._start_executor(tuple(msg["identities"]),
                                     generation=generation,
                                     slot=msg["slot"], replay=True)
            elif t == "ownermap":
                self.gen = max(self.gen, int(msg.get("gen", 1)))
                self._apply_ownermap(list(msg["owners"]),
                                     set(msg["live"]))
            elif t == "collect":
                a = msg["a"]  # (JSON makes the offsets string keys)
                self._send_coord({"t": "segment", "node": self.node, "a": a,
                                  "vals": self.memory.snapshot().get(a, {})})
            elif t == "ckpt":
                self._send_coord({"t": "ckpt-state", "node": self.node,
                                  "arrays": self._ckpt_state()})
            elif t == "fence":
                # Declared dead: die immediately, like the zombie the
                # coordinator already believes this process is.
                os._exit(0)
            elif t == "shutdown":
                self._send_coord({
                    "t": "bye", "node": self.node,
                    "netstats": self.endpoint.stats.counters()})
                try:
                    await self._coord_writer.drain()
                except Exception:
                    pass
                self._stop.set()
                return

    async def _rejoin(self):
        """Dial the standby coordinator and resync; None when hopeless."""
        if self.standby_port is None or self._stop.is_set():
            return None
        deadline = time.monotonic() + self.cfg.connect_timeout_s
        attempt = 0
        while time.monotonic() < deadline:
            attempt += 1
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.cfg.host,
                                            self.standby_port),
                    min(1.0, self.cfg.connect_timeout_s))
            except (ConnectionError, OSError, asyncio.TimeoutError):
                await asyncio.sleep(
                    self.cfg.retry.backoff_s(self.node, attempt))
                continue
            old = self._coord_writer
            self._coord_writer = writer
            try:
                old.close()
            except Exception:
                pass
            self._send_coord({
                "t": "hello", "node": self.node, "port": self.peer_port,
                "resync": {"gen": self.gen, "owners": list(self.owners),
                           "live": sorted(self.live),
                           "reports": list(self.reports)}})
            return reader
        return None

    def _ckpt_state(self) -> dict:
        """This node's owned element state, keyed for ``ckpt-state``."""
        arrays: dict[str, dict] = {}
        for a, vals in self.memory.snapshot().items():
            header = self.headers.get(a)
            if header is not None and vals:
                arrays[str(a)] = {"dims": list(header.dims), "vals": vals}
        return arrays

    def _seed_restore(self) -> None:
        """Pre-seed memory and element lists from a ``pods-ckpt/v1``
        snapshot.

        Ownership is re-derived at the *current* node count — the
        checkpoint stores flat offsets, and ``owner_of_offset`` is pure
        geometry — so a run checkpointed at N nodes restores at M.
        Every element also lands in the node's list (single assignment
        makes any copy authoritative), sparing the replay a round of
        remote reads.
        """
        for ordinal in self.restore.ordinals():
            entry = self.restore.array(ordinal)
            if entry is None:
                continue
            dims, elements = entry
            header = ArrayHeader(ordinal, tuple(dims),
                                 self.cfg.page_size,
                                 self.num_identities)
            seen = self.seen_list(header)
            for off, value in elements.items():
                seen[off] = value
                if self.owners[header.owner_of_offset(off)] == self.node:
                    self.memory.seed(ordinal, off, value)

    def seen_list(self, header: ArrayHeader) -> list:
        """The node's list of the elements of ``header``'s array, made
        on first use (either thread).  ``setdefault`` on a builtin dict
        is atomic under the GIL, so two executors allocating the array
        at once share one list; the header goes in first, for the loop
        thread's replay, and headers are immutable."""
        a = header.array_id
        seen = self.seen.get(a)
        if seen is None:
            self.headers.setdefault(a, header)
            seen = self.seen.setdefault(a, [None] * header.total_elements)
        return seen

    def _auth_reject(self) -> None:
        if self.endpoint is not None:
            self.endpoint.net.stats.auth_rejected += 1

    async def _hb_loop(self) -> None:
        while True:
            await asyncio.sleep(self.cfg.heartbeat_interval_s)
            self.injector.fire("hb")
            drop, delay_s = self.injector.decide_frame(COORD, "hb")
            if drop:
                continue
            if delay_s:
                await asyncio.sleep(delay_s)
            self._send_coord({"t": "hb", "node": self.node})

    def _send_coord(self, msg: dict) -> None:
        try:
            self._coord_writer.write(encode_frame(msg, self._secret))
        except Exception:
            pass

    def _send_report(self, msg: dict) -> None:
        """Send and *remember* a report frame (loop thread).

        Remembered reports ride the resync payload to a promoted
        standby coordinator; replaying one twice is idempotent
        coordinator-side, so remembering liberally is safe.
        """
        self.reports.append(msg)
        self._send_coord(msg)

    def post_report(self, msg: dict) -> None:
        """Thread-safe remembered report send (executor threads)."""
        try:
            self.loop.call_soon_threadsafe(self._send_report, msg)
        except RuntimeError:
            pass  # loop already closed during teardown

    # ------------------------------------------------------------------
    # executors (worker threads)
    # ------------------------------------------------------------------

    def _start_executor(self, identities: tuple[int, ...],
                        generation: int, slot: int, replay: bool) -> None:
        # Remembered, not sent: a promoted standby rebuilds its
        # supervision core from the executions the nodes say they run.
        self.reports.append({"t": "started", "node": self.node,
                             "slot": slot, "identities": list(identities),
                             "gen": generation})
        thread = threading.Thread(
            target=self._executor_main,
            args=(identities, generation, slot, replay),
            name=f"pods-exec-{self.node}-g{generation}", daemon=True)
        self._threads.append(thread)
        thread.start()

    def _executor_main(self, identities: tuple[int, ...],
                       generation: int, slot: int, replay: bool) -> None:
        interp = _NodeInterpreter(self, identities, replay)

        def emit(tag: str, payload) -> None:
            msg = {"t": tag, "node": self.node, "slot": slot,
                   "gen": generation}
            if tag == "result":
                msg["v"] = payload
            elif tag == "done":
                payload["replayed_present"] = self.memory.take_replayed()
                msg["identities"] = list(identities)
                msg["telemetry"] = payload
            elif tag == "err":
                msg["code"], msg["detail"] = payload
            else:
                msg["detail"] = payload
            self.post_report(msg)

        interp.execute(self.args, emit,
                       lambda arr: [arr.ordinal, list(arr.dims)])

    # ------------------------------------------------------------------
    # array access (executor threads; the two helpers, either thread)
    # ------------------------------------------------------------------

    def array_write(self, arr: DistArray, indices: tuple, value) -> None:
        header = arr.header
        off = header.offset(indices)  # bounds-checked, pure
        ident = header.owner_of_offset(off)
        arr.writes += 1
        arr.pages_touched.add(header.page_of(off))
        # Single assignment makes the value immutable: the writer may
        # keep it immediately, whoever ends up storing it.
        arr.seen[off] = value
        if self.owners[ident] == self.node:
            # Stored from this thread; a violation is raised right here.
            self._release(arr.ordinal, off, value, self.memory.write(
                arr.ordinal, off, value, arr.replay))
            return
        # Resolved once handed to the reliable transport (a violation
        # surfaces owner-side as a node error).
        fut: cf.Future = cf.Future()
        self.loop.call_soon_threadsafe(self._write_entry, arr.ordinal, off,
                                       ident, value, arr.replay, fut)
        fut.result(timeout=self.cfg.read_timeout_s)

    def read_miss(self, arr: DistArray, indices: tuple, off: int):
        """A read of an element the node has not seen: wait for it."""
        ident = arr.header.owner_of_offset(off)
        fut: cf.Future = cf.Future()
        if self.owners[ident] == self.node:
            self._read_local(arr.ordinal, off, fut)
        else:
            self.loop.call_soon_threadsafe(self._read_entry, arr.ordinal,
                                           off, ident, arr.window, fut)
            arr.window = min(2 * arr.window, _RUN_CAP)
        t0 = time.perf_counter()
        try:
            value = fut.result(timeout=self.cfg.read_timeout_s)
        except cf.TimeoutError:
            raise DeferredReadTimeout(
                f"array {arr.ordinal}", indices, off, ident,
                time.perf_counter() - t0) from None
        arr.waited(time.perf_counter() - t0)
        return value

    def _read_local(self, a: int, off: int, fut: cf.Future) -> None:
        """Resolve ``fut`` with an owned element: now, or at its write."""
        value = self.memory.read(a, off, ("local", fut))
        if value is not None:
            self.seen[a][off] = value
            fut.set_result(value)

    def _release(self, a: int, off: int, value, waiters: list) -> None:
        """Wake the readers a write released: local futures right here;
        remote nodes need the socket — one hand-over to the loop, and a
        reply of that one element: a parked reader waits on it alone."""
        remote = []
        for kind, waiter in waiters:
            if kind == "local":
                waiter.set_result(value)
            else:
                remote.append(waiter)
        if remote:
            self.loop.call_soon_threadsafe(self._send_rdy, remote, a, off,
                                           [value])

    # -- loop-side entry points ------------------------------------------

    def _send_rdy(self, nodes, a: int, lo: int, values: list) -> None:
        """Send the run ``values`` of elements ``lo, lo + 1, ...`` (None
        where absent) to each reader in ``nodes``."""
        for node in nodes:
            self.endpoint.send(node, {"t": "rdy", "a": a, "lo": lo,
                                      "v": values})

    def _write_entry(self, a: int, off: int, owner_ident: int, value,
                     replay: bool, fut: cf.Future) -> None:
        try:
            self._route_write(a, off, owner_ident, value, replay)
        except Exception as exc:  # noqa: BLE001 - raised in the writer
            fut.set_exception(exc)
        else:
            fut.set_result(None)

    def _route_write(self, a: int, off: int, owner_ident: int, value,
                     replay: bool) -> None:
        """Hand a write to its owner as the owner map stands *now*."""
        owner_node = self.owners[owner_ident]
        if owner_node == self.node:  # rebound here since the sender looked
            self._store(a, off, value, replay, self.node)
        else:
            self.endpoint.send(owner_node,
                               {"t": "write", "a": a, "off": off,
                                "v": value, "replay": replay})

    def _read_entry(self, a: int, off: int, owner_ident: int, n: int,
                    fut: cf.Future) -> None:
        owner_node = self.owners[owner_ident]
        if owner_node == self.node:  # rebound here since the sender looked
            self._read_local(a, off, fut)
            return
        key = (a, off)
        entry = self.pending.get(key)
        if entry is not None:
            entry["futs"].append(fut)
            return
        self.pending[key] = {"ident": owner_ident, "target": owner_node,
                             "n": n, "futs": [fut]}
        self.endpoint.send(owner_node,
                           {"t": "read", "a": a, "off": off, "n": n})

    # ------------------------------------------------------------------
    # peer messages (loop thread)
    # ------------------------------------------------------------------

    def _on_peer_msg(self, src: int, m: dict) -> None:
        if src not in self.live:
            return  # fenced zombie: its writes and reads are void
        t = m["t"]
        if t == "write":
            self._store(m["a"], m["off"], m["v"], m["replay"], src)
        elif t == "read":
            a, off = m["a"], m["off"]
            if self.memory.read(a, off, ("remote", src)) is not None:
                self._send_rdy((src,), a,
                               *self.memory.page(a, off, m["n"]))
        elif t == "rdy":
            a, lo, values = m["a"], m["lo"], m["v"]
            hi = lo + len(values)
            # One element at a time, present ones only: a slice would
            # put back None over an element an executor wrote meanwhile.
            seen = self.seen[a]
            for off, value in enumerate(values, lo):
                if value is not None:
                    seen[off] = value
            # The list first, then the readers: a woken reader's next
            # reads find the whole run.  Few reads are pending at once,
            # so look them up rather than the run's every element.
            for key in [k for k in self.pending
                        if k[0] == a and lo <= k[1] < hi]:
                value = values[key[1] - lo]
                if value is not None:
                    for fut in self.pending.pop(key)["futs"]:
                        fut.set_result(value)

    def _store(self, a: int, off: int, value, replay: bool,
               writer_node: int) -> None:
        """A write that reached its owner by frame or presence-bit
        replay: the writer has moved on, so a violation is posted as a
        node error."""
        try:
            waiters = self.memory.write(a, off, value, replay)
        except SingleAssignmentViolation as exc:
            self._send_report({
                "t": "err", "node": self.node, "slot": self.node,
                "gen": self.gen,  # no older than any execution here
                "code": exc.code,
                "detail": f"{type(exc).__name__}: {exc}\n"
                          f"(write received from node {writer_node})"})
            return
        seen = self.seen.get(a)
        if seen is not None:  # else no handle here yet: memory has it
            seen[off] = value
        self._release(a, off, value, waiters)

    # ------------------------------------------------------------------
    # membership changes (loop thread)
    # ------------------------------------------------------------------

    def _apply_ownermap(self, owners: list[int], live: set[int]) -> None:
        dead = self.live - live
        rebound = {ident for ident, old in enumerate(self.owners)
                   if old in dead}
        self.owners = owners
        self.live = live
        for node in dead:
            self.endpoint.forget(node)
        # Orphaned remote waiters of a dead requester just drop; its
        # takeover replay re-reads everything it needs.
        self.memory.drop_waiters(
            lambda w: w[0] == "remote" and w[1] in dead)
        # Re-issue pending reads that were addressed to a dead node, each
        # asking for the run it asked for before.
        for key, entry in list(self.pending.items()):
            if entry["target"] not in live:
                del self.pending[key]
                for fut in entry["futs"]:
                    self._read_entry(*key, entry["ident"], entry["n"], fut)
        # Presence-bit replay: the dead node's memory is gone, but every
        # value a survivor ever wrote or read is in its lists (single
        # assignment made them immutable at first sight).  Push this
        # node's copies of the rebound identities' elements to the new
        # owner as idempotent replay writes — between the survivors'
        # lists and the takeover re-execution, the lost memory is
        # reconstructed in full.
        if rebound:
            self._replay_cached(rebound)

    def _replay_cached(self, rebound: set[int]) -> None:
        # This node's executors keep filling the lists meanwhile.  A list
        # never changes length and is written one element at a time, so
        # each is scanned live, over the rebound identities' segments
        # only; the small ordinal map is copied in one allocation, as an
        # executor may add an array to it.
        for a, seen in self.seen.copy().items():
            header = self.headers[a]
            for ident in sorted(rebound):
                for off in range(*header.segment_bounds(ident)):
                    value = seen[off]
                    if value is not None:
                        self._route_write(a, off, ident, value, True)

    def _on_peer_lost(self, peer: int, reason: str, detail: str) -> None:
        self._send_report({"t": "peer-lost", "node": self.node,
                           "peer": peer, "reason": reason,
                           "detail": detail})


def node_main(program, node: int, coord_port: int, cfg, args: tuple,
              plan: DistFaultPlan, standby_port: int | None = None,
              restore=None) -> None:
    """Node process entry point (forked by the coordinator)."""
    sigterm_default()
    # An executor that stores what it owns holds the GIL while the loop
    # thread waits to answer a *peer's* read: the default 5 ms hand-over
    # dwarfs the 31 us frame round trip.  Ours to set (the process is
    # forked for the node).  dist_matmul time_cal, 2-core host: with
    # one-page read replies (2026-10-02) 5 ms 0.85, 2 ms 0.71, 1 / 0.5 /
    # 0.1 ms 0.66 / 0.63 / 0.63; with growing runs (2026-10-17, median
    # of three) 5 ms 0.49, 2 ms 0.47, 0.5 ms 0.49, 0.1 ms 0.52 — flat,
    # with half or more of the misses gone.
    sys.setswitchinterval(5e-4)
    runtime = NodeRuntime(program, node, coord_port, cfg, args, plan,
                          standby_port=standby_port, restore=restore)
    try:
        asyncio.run(runtime.run())
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        os._exit(1)
    except Exception:  # pragma: no cover - runtime bug, not program bug
        traceback.print_exc()
        os._exit(1)
