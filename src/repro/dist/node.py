"""The node process: message runtime + SPMD interpreter executors.

One node process is the distributed backend's PE.  It is split across
two worlds that meet at the asyncio loop:

* the **runtime** (main thread, asyncio): the peer transport endpoint,
  the coordinator control link (hello/heartbeats up, start/adopt/
  ownermap/collect/fence/shutdown down), and the node's *element
  stores* — the authoritative, presence-bit storage for every
  distributed-array element this node owns.  All store mutation is
  serialized through the loop, so the stores need no locks.
* the **executors** (worker threads): one interpreter per adopted
  identity group, running the program on the shared SPMD core
  (:mod:`repro.runtime.spmd`, the same one the real-parallel backend
  runs) — replicated scalar code, Range-Filter subranges for distributed
  loops, node-private ``SeqArray`` temporaries inside distributed
  iterations; this module supplies the node store behind it.

Array semantics follow the paper's Section 4: elements are assigned to
*identities* by the same first-element-ownership math as every other
backend (``ArrayHeader.owner_of_offset``), and identities map to nodes
through a coordinator-versioned owner map (initially the identity map;
takeover rebinds a dead node's identities to a survivor).  A write is
routed to the owning node and lands in its store once — a second
non-replay write is a :class:`SingleAssignmentViolation`; a replay
write of an already-present element is *verified* against the stored
value instead (the idempotence that makes takeover re-execution safe).
A read misses the node-local cache, then becomes a genuine split-phase
exchange: a ``read`` request to the owner, answered with every present
element of the requested *page* (page-grain caching), or deferred
owner-side until the write arrives.  A read that nothing will ever
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
import threading
import time
import traceback

from repro.common.errors import (DeferredReadTimeout, ExecutionError,
                                 SingleAssignmentViolation)
from repro.dist import reasons
from repro.dist.faults import DistFaultInjector, DistFaultPlan
from repro.dist.transport import (COORD, Endpoint, encode_frame,
                                  frame_secret, read_frame)
from repro.runtime.arrays import ArrayHeader
from repro.runtime.spmd import SpmdInterpreter, sigterm_default


class ElementStore:
    """Owner-side storage for one distributed array: values + waiters."""

    __slots__ = ("values", "deferred")

    def __init__(self) -> None:
        self.values: dict[int, object] = {}
        # offset -> [("local", concurrent Future) | ("remote", node)]
        self.deferred: dict[int, list] = {}


class DistArray:
    """One executor's handle to a distributed I-structure.

    Holds the geometry (an :class:`ArrayHeader` over the *identity*
    space — ownership never changes shape, only the identity->node
    binding does) and this executor's access counters; storage lives in
    the runtime's element stores and page cache.
    """

    __slots__ = ("runtime", "seq", "replay", "dims", "header", "name",
                 "reads", "writes", "deferred_reads", "spin_wait_s",
                 "max_spin_wait_s", "pages_touched")

    def __init__(self, runtime: "NodeRuntime", seq: int,
                 dims: tuple[int, ...], replay: bool = False) -> None:
        if any((not isinstance(d, int)) or d < 1 for d in dims):
            raise ExecutionError(f"bad array dimensions {dims!r}")
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

    # Duck-typed I-structure surface (is_istructure, direct callers).
    def read(self, indices: tuple) -> object:
        return self.runtime.array_read(self, indices)

    def write(self, indices: tuple, value) -> None:
        self.runtime.array_write(self, indices, value, self.replay)

    def stats(self) -> dict:
        """This executor's access counters (replay verifies are counted
        node-wide by the runtime; there is no stall watchdog here)."""
        return {"reads": self.reads, "writes": self.writes,
                "deferred_reads": self.deferred_reads,
                "spin_wait_s": self.spin_wait_s,
                "max_spin_wait_s": self.max_spin_wait_s,
                "replayed_present": 0, "stall_reports": 0,
                "pages_touched": sorted(self.pages_touched)}


class _NodeInterpreter(SpmdInterpreter):
    """The SPMD core over this node's element stores.

    Supplies the node store: ``DistArray`` handles whose elements live
    in the runtime's per-node stores and page cache, reached through the
    asyncio loop.
    """

    shared_cls = DistArray

    def __init__(self, runtime: "NodeRuntime", identities: tuple[int, ...],
                 replay: bool) -> None:
        super().__init__(runtime.program, identities, runtime.injector)
        self.runtime = runtime
        self.replay = replay

    def alloc_shared(self, seq: int, dims: tuple[int, ...]) -> DistArray:
        return DistArray(self.runtime, seq, dims, self.replay)


class NodeRuntime:
    """Everything one node process owns: loop, transport, stores, threads.

    Thread contract: executor threads touch only (a) the lock-free read
    cache (plain dict reads under the GIL; values are immutable once
    present) and (b) ``call_soon_threadsafe`` entry points that move the
    real work onto the loop.  The loop thread owns stores, pending-read
    bookkeeping, the owner map and every socket.
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
        self.stores: dict[int, ElementStore] = {}
        self.caches: dict[int, dict[int, object]] = {}
        self.headers: dict[int, ArrayHeader] = {}
        # (array seq, offset) -> {"ident": owner identity, "target":
        # node the request went to, "futs": [concurrent futures]}
        self.pending: dict[tuple[int, int], dict] = {}
        self.replayed_present = 0
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
        # Every done/result/err/peer-lost frame ever sent, so a
        # promoted standby coordinator can be brought up to date.
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
                a = msg["a"]
                store = self.stores.get(a)
                vals = ({str(off): v for off, v in store.values.items()}
                        if store is not None else {})
                self._send_coord({"t": "segment", "node": self.node,
                                  "a": a, "vals": vals})
            elif t == "ckpt":
                self._send_coord({"t": "ckpt-state", "node": self.node,
                                  "arrays": self._ckpt_state()})
            elif t == "fence":
                # Declared dead: die immediately, like the zombie the
                # coordinator already believes this process is.
                os._exit(0)
            elif t == "shutdown":
                ns = self.endpoint.stats
                self._send_coord({
                    "t": "bye", "node": self.node,
                    "netstats": {k: getattr(ns, k) for k in
                                 ns.__dataclass_fields__
                                 if k != "spans"}})
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
        for a, store in self.stores.items():
            header = self.headers.get(a)
            if header is None or not store.values:
                continue
            arrays[str(a)] = {
                "dims": list(header.dims),
                "vals": {str(off): v
                         for off, v in store.values.items()}}
        return arrays

    def _seed_restore(self) -> None:
        """Pre-seed stores and caches from a ``pods-ckpt/v1`` snapshot.

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
            store = self.stores.setdefault(ordinal, ElementStore())
            cache = self.caches.setdefault(ordinal, {})
            for off, value in elements.items():
                cache[off] = value
                if self.owners[header.owner_of_offset(off)] == self.node:
                    store.values.setdefault(off, value)

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
                payload["replayed_present"] = self._take_replayed()
                msg["identities"] = list(identities)
                msg["telemetry"] = payload
            else:
                msg["detail"] = payload
            self.post_report(msg)

        interp.execute(self.args, emit,
                       lambda arr: [arr.seq, list(arr.dims)])

    def _take_replayed(self) -> int:
        """Drain the node-level replay-verify counter (loop-owned)."""
        fut: cf.Future = cf.Future()

        def grab() -> None:
            count = self.replayed_present
            self.replayed_present = 0
            fut.set_result(count)

        try:
            self.loop.call_soon_threadsafe(grab)
            return fut.result(timeout=5.0)
        except Exception:
            return 0

    # ------------------------------------------------------------------
    # array access (executor threads -> loop)
    # ------------------------------------------------------------------

    def array_write(self, arr: DistArray, indices: tuple, value,
                    replay: bool) -> None:
        off = arr.header.offset(indices)  # bounds-checked, pure
        owner_ident = arr.header.owner_of_offset(off)
        arr.writes += 1
        arr.pages_touched.add(arr.header.page_of(off))
        # Single assignment makes the value immutable: the writer may
        # cache it immediately, whoever ends up storing it.
        self.caches.setdefault(arr.seq, {})[off] = value
        fut: cf.Future = cf.Future()
        self.loop.call_soon_threadsafe(self._write_entry, arr.seq, off,
                                       owner_ident, value, replay, fut)
        # Local writes surface SingleAssignmentViolation synchronously;
        # remote writes resolve once handed to the reliable transport
        # (the violation, if any, surfaces owner-side as a node error).
        fut.result(timeout=self.cfg.read_timeout_s)

    def array_read(self, arr: DistArray, indices: tuple):
        off = arr.header.offset(indices)
        arr.reads += 1
        cache = self.caches.setdefault(arr.seq, {})
        value = cache.get(off)
        if value is not None:  # program values are numbers, never None
            return value
        owner_ident = arr.header.owner_of_offset(off)
        fut: cf.Future = cf.Future()
        self.loop.call_soon_threadsafe(self._read_entry, arr.seq, off,
                                       owner_ident, fut)
        t0 = time.perf_counter()
        try:
            value, deferred = fut.result(
                timeout=self.cfg.read_timeout_s)
        except cf.TimeoutError:
            waited = time.perf_counter() - t0
            raise DeferredReadTimeout(arr.name, indices, off,
                                      owner_ident, waited) from None
        if deferred:
            waited = time.perf_counter() - t0
            arr.deferred_reads += 1
            arr.spin_wait_s += waited
            arr.max_spin_wait_s = max(arr.max_spin_wait_s, waited)
        return value

    # -- loop-side entry points ------------------------------------------

    def _write_entry(self, a: int, off: int, owner_ident: int, value,
                     replay: bool, fut: cf.Future) -> None:
        try:
            owner_node = self.owners[owner_ident]
            if owner_node == self.node:
                self._apply_write(a, off, value, replay,
                                  writer_node=self.node, report=False)
            else:
                self.endpoint.send(owner_node,
                                   {"t": "write", "a": a, "off": off,
                                    "v": value, "replay": replay})
        except BaseException as exc:  # noqa: BLE001
            if not fut.done():
                fut.set_exception(exc)
            return
        if not fut.done():
            fut.set_result(None)

    def _read_entry(self, a: int, off: int, owner_ident: int,
                    fut: cf.Future) -> None:
        owner_node = self.owners[owner_ident]
        if owner_node == self.node:
            store = self.stores.setdefault(a, ElementStore())
            value = store.values.get(off)
            if value is not None:
                self.caches.setdefault(a, {})[off] = value
                fut.set_result((value, False))
                return
            store.deferred.setdefault(off, []).append(("local", fut))
            return
        key = (a, off)
        entry = self.pending.get(key)
        if entry is None:
            entry = self.pending[key] = {"ident": owner_ident,
                                         "target": owner_node,
                                         "futs": []}
            self.endpoint.send(owner_node,
                               {"t": "read", "a": a, "off": off})
        entry["futs"].append(fut)

    # ------------------------------------------------------------------
    # peer messages (loop thread)
    # ------------------------------------------------------------------

    def _on_peer_msg(self, src: int, m: dict) -> None:
        if src not in self.live:
            return  # fenced zombie: its writes and reads are void
        t = m["t"]
        if t == "write":
            self._apply_write(m["a"], m["off"], m["v"], m["replay"],
                              writer_node=src, report=True)
        elif t == "read":
            a, off = m["a"], m["off"]
            store = self.stores.setdefault(a, ElementStore())
            if off in store.values:
                self.endpoint.send(src, {"t": "rdy", "a": a,
                                         "vals": self._page_of(a, off)})
            else:
                store.deferred.setdefault(off, []).append(("remote", src))
        elif t == "rdy":
            a = m["a"]
            cache = self.caches.setdefault(a, {})
            for key, value in m["vals"].items():
                off = int(key)
                cache[off] = value
                entry = self.pending.pop((a, off), None)
                if entry is not None:
                    for fut in entry["futs"]:
                        if not fut.done():
                            fut.set_result((value, True))

    def _page_of(self, a: int, off: int) -> dict:
        """Every present element of ``off``'s page (page-grain reply)."""
        store = self.stores[a]
        page_size = self.cfg.page_size
        start = (off // page_size) * page_size
        return {str(o): store.values[o]
                for o in range(start, start + page_size)
                if o in store.values}

    def _apply_write(self, a: int, off: int, value, replay: bool,
                     writer_node: int, report: bool) -> None:
        """Owner-side write: presence check, store, wake waiters.

        ``report=False`` (local writer) raises the violation into the
        caller so it propagates synchronously into the executor thread;
        ``report=True`` (remote writer) posts a structured node error —
        the writer has long since moved on.
        """
        store = self.stores.setdefault(a, ElementStore())
        existing = store.values.get(off)
        if existing is not None:
            if replay:
                if existing != value:
                    exc = SingleAssignmentViolation(a, off)
                    if report:
                        self._post_violation(exc, writer_node)
                        return
                    raise exc
                self.replayed_present += 1
                return
            exc = SingleAssignmentViolation(a, off)
            if report:
                self._post_violation(exc, writer_node)
                return
            raise exc
        store.values[off] = value
        self.caches.setdefault(a, {})[off] = value
        for kind, waiter in store.deferred.pop(off, []):
            if kind == "local":
                if not waiter.done():
                    waiter.set_result((value, True))
            else:
                self.endpoint.send(waiter, {"t": "rdy", "a": a,
                                            "vals": {str(off): value}})

    def _post_violation(self, exc: SingleAssignmentViolation,
                        writer_node: int) -> None:
        self._send_report({
            "t": "err", "node": self.node, "slot": self.node, "gen": 0,
            "detail": f"{type(exc).__name__}: {exc}\n"
                      f"(write received from node {writer_node})"})

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
            # Orphaned remote waiters of a dead requester just drop;
            # its takeover replay re-reads everything it needs.
            for store in self.stores.values():
                for off in list(store.deferred):
                    keep = [w for w in store.deferred[off]
                            if w[0] == "local" or w[1] != node]
                    if keep:
                        store.deferred[off] = keep
                    else:
                        del store.deferred[off]
        # Re-issue pending reads that were addressed to a dead node.
        for key, entry in list(self.pending.items()):
            if entry["target"] in live:
                continue
            a, off = key
            new_node = self.owners[entry["ident"]]
            if new_node == self.node:
                store = self.stores.setdefault(a, ElementStore())
                value = store.values.get(off)
                del self.pending[key]
                if value is not None:
                    self.caches.setdefault(a, {})[off] = value
                    for fut in entry["futs"]:
                        if not fut.done():
                            fut.set_result((value, True))
                else:
                    store.deferred.setdefault(off, []).extend(
                        ("local", fut) for fut in entry["futs"])
            else:
                entry["target"] = new_node
                self.endpoint.send(new_node,
                                   {"t": "read", "a": a, "off": off})
        # Presence-bit replay: the dead node's store is gone, but every
        # value a survivor ever wrote or read is in its cache (single
        # assignment made them immutable at first sight).  Push this
        # node's cached copies of the rebound identities' elements to
        # the new owner as idempotent replay writes — between the
        # survivors' caches and the takeover re-execution, the lost
        # store is reconstructed in full.
        if rebound:
            self._replay_cached(rebound)

    def _replay_cached(self, rebound: set[int]) -> None:
        for a, cache in self.caches.items():
            header = self.headers.get(a)
            if header is None:
                continue
            for off, value in list(cache.items()):
                ident = header.owner_of_offset(off)
                if ident not in rebound:
                    continue
                new_node = self.owners[ident]
                if new_node == self.node:
                    self._apply_write(a, off, value, replay=True,
                                      writer_node=self.node, report=True)
                else:
                    self.endpoint.send(new_node,
                                       {"t": "write", "a": a, "off": off,
                                        "v": value, "replay": True})

    def _on_peer_lost(self, peer: int, reason: str) -> None:
        self._send_report({"t": "peer-lost", "node": self.node,
                           "peer": peer,
                           "reason": reasons.parse_reason(reason),
                           "detail": reason})


def node_main(program, node: int, coord_port: int, cfg, args: tuple,
              plan: DistFaultPlan, standby_port: int | None = None,
              restore=None) -> None:
    """Node process entry point (forked by the coordinator)."""
    sigterm_default()
    runtime = NodeRuntime(program, node, coord_port, cfg, args, plan,
                          standby_port=standby_port, restore=restore)
    try:
        asyncio.run(runtime.run())
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        os._exit(1)
    except Exception:  # pragma: no cover - runtime bug, not program bug
        traceback.print_exc()
        os._exit(1)
