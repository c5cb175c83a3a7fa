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
A read misses the node-local cache, then becomes a genuine split-phase
exchange: a ``read`` request to the owner, answered with a run of the
owner's elements that starts at the requested element's page and grows
with each miss of the same handle (the read window), or deferred
owner-side until the write arrives and then answered with that one
element.  A read that nothing will ever
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
from repro.runtime.arrays import ArrayHeader, check_extents, index_fn
from repro.runtime.spmd import SpmdInterpreter, sigterm_default

# The longest run a read may ask for, in elements (64 pages of 32): it
# bounds a reply's frame and the owner's time encoding it, whatever the
# page size.
_RUN_CAP = 2048

# ``DistArray.read`` after the index rule: count, then the node's read
# cache (program values are numbers, never None), then the miss path.
_DIST_READ = """\
self.reads += 1
value = cached(off)
return miss(self, indices, off) if value is None else value
"""


class DistArray:
    """One executor's handle to a distributed I-structure.

    Holds the geometry (an :class:`ArrayHeader` over the *identity*
    space — ownership never changes shape, only the identity->node
    binding does) and this executor's access counters; storage lives in
    the node's memory and read cache.  ``read`` is built here, once, by
    :func:`~repro.runtime.arrays.index_fn`: the index rule for this
    handle's rank, the counter and the cache's ``dict.get`` in one
    Python frame, then the miss path.

    ``window`` is how many elements this handle's next remote miss asks
    the owner for: one page at first (at most ``_RUN_CAP``), doubled by
    each remote miss up to ``_RUN_CAP``, so a scan that keeps missing
    fetches runs that grow with it while a one-off miss costs one page.
    """

    __slots__ = ("runtime", "seq", "replay", "dims", "header", "name",
                 "cache", "read", "reads", "writes", "deferred_reads",
                 "spin_wait_s", "max_spin_wait_s", "pages_touched",
                 "window")

    def __init__(self, runtime: "NodeRuntime", seq: int,
                 dims: tuple[int, ...], replay: bool = False) -> None:
        check_extents(dims)
        self.runtime = runtime
        self.seq = seq
        self.replay = replay  # writes verify already-present elements
        self.dims = dims
        self.header = ArrayHeader(seq, dims, runtime.cfg.page_size,
                                  runtime.num_identities)
        # The loop thread needs the geometry during takeover (to decide
        # which cached offsets a rebound identity owns).  setdefault on
        # a builtin dict is atomic under the GIL; headers are immutable.
        runtime.headers.setdefault(seq, self.header)
        # Zero-padded so the registry's sorted-name indexing matches
        # allocation order past nine arrays.
        self.name = f"a{seq:04d}"
        self.reads = 0
        self.writes = 0
        self.deferred_reads = 0
        self.spin_wait_s = 0.0
        self.max_spin_wait_s = 0.0
        self.pages_touched: set[int] = set()
        self.window = min(runtime.cfg.page_size, _RUN_CAP)
        self.cache = cache = runtime.caches.setdefault(seq, {})
        self.read = index_fn("read", seq, dims, _DIST_READ, self=self,
                             cached=cache.get, miss=runtime.read_miss)

    def write(self, indices: tuple, value) -> None:
        self.runtime.array_write(self, indices, value)

    def stats(self) -> dict:
        """This executor's access counters (replay verifies are counted
        node-wide by the memory; there is no stall watchdog here)."""
        return {"reads": self.reads, "writes": self.writes,
                "deferred_reads": self.deferred_reads,
                "spin_wait_s": self.spin_wait_s,
                "max_spin_wait_s": self.max_spin_wait_s,
                "replayed_present": 0, "stall_reports": 0,
                "pages_touched": sorted(self.pages_touched)}


class _NodeInterpreter(SpmdInterpreter):
    """The SPMD core over this node's memory and read cache."""

    shared_cls = DistArray

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
    the only one here) and the read caches (plain dicts under the GIL;
    single assignment makes a cached value immutable).  The loop thread
    alone owns the sockets, the pending reads and the report memory,
    and *assigns* ``owners`` and ``live``.  An executor reads ``owners``
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
        self.caches: dict[int, dict[int, object]] = {}
        self.headers: dict[int, ArrayHeader] = {}
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
        """Pre-seed memory and caches from a ``pods-ckpt/v1`` snapshot.

        Ownership is re-derived at the *current* node count — the
        checkpoint stores flat offsets, and ``owner_of_offset`` is pure
        geometry — so a run checkpointed at N nodes restores at M.
        Every element also lands in the read cache (single assignment
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
            self.headers.setdefault(ordinal, header)
            cache = self.caches.setdefault(ordinal, {})
            for off, value in elements.items():
                cache[off] = value
                if self.owners[header.owner_of_offset(off)] == self.node:
                    self.memory.seed(ordinal, off, value)

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
                       lambda arr: [arr.seq, list(arr.dims)])

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
        # cache it immediately, whoever ends up storing it.
        arr.cache[off] = value
        if self.owners[ident] == self.node:
            # Stored from this thread; a violation is raised right here.
            self._release(arr.seq, off, value, self.memory.write(
                arr.seq, off, value, arr.replay))
            return
        # Resolved once handed to the reliable transport (a violation
        # surfaces owner-side as a node error).
        fut: cf.Future = cf.Future()
        self.loop.call_soon_threadsafe(self._write_entry, arr.seq, off,
                                       ident, value, arr.replay, fut)
        fut.result(timeout=self.cfg.read_timeout_s)

    def read_miss(self, arr: DistArray, indices: tuple, off: int):
        """A read the cache could not serve: wait for the element."""
        ident = arr.header.owner_of_offset(off)
        fut: cf.Future = cf.Future()
        if self.owners[ident] == self.node:
            self._read_local(arr.seq, off, fut)
        else:
            self.loop.call_soon_threadsafe(self._read_entry, arr.seq, off,
                                           ident, arr.window, fut)
            arr.window = min(2 * arr.window, _RUN_CAP)
        t0 = time.perf_counter()
        try:
            value = fut.result(timeout=self.cfg.read_timeout_s)
        except cf.TimeoutError:
            raise DeferredReadTimeout(
                arr.name, indices, off, ident,
                time.perf_counter() - t0) from None
        waited = time.perf_counter() - t0
        arr.deferred_reads += 1
        arr.spin_wait_s += waited
        arr.max_spin_wait_s = max(arr.max_spin_wait_s, waited)
        return value

    def _read_local(self, a: int, off: int, fut: cf.Future) -> None:
        """Resolve ``fut`` with an owned element: now, or at its write."""
        value = self.memory.read(a, off, ("local", fut))
        if value is not None:
            self.caches.setdefault(a, {})[off] = value
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
            cache = self.caches.setdefault(a, {})
            cache.update((off, value) for off, value
                         in enumerate(values, lo) if value is not None)
            # The cache first, then the readers: a woken reader's next
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
        """A write that reached its owner by frame or cache replay: the
        writer has moved on, so a violation is posted as a node error."""
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
        self.caches.setdefault(a, {})[off] = value
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
        # value a survivor ever wrote or read is in its cache (single
        # assignment made them immutable at first sight).  Push this
        # node's cached copies of the rebound identities' elements to
        # the new owner as idempotent replay writes — between the
        # survivors' caches and the takeover re-execution, the lost
        # memory is reconstructed in full.
        if rebound:
            self._replay_cached(rebound)

    def _replay_cached(self, rebound: set[int]) -> None:
        # This node's executors keep filling the caches meanwhile.  A
        # ``dict.copy()`` snapshots each in one allocation; iterating the
        # live dict (or ``list(cache.items())``, a tuple per entry, which
        # can run the GC and switch threads) could see it change size.
        for a, cache in self.caches.copy().items():
            header = self.headers.get(a)
            if header is None:
                continue
            for off, value in cache.copy().items():
                ident = header.owner_of_offset(off)
                if ident in rebound:
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
