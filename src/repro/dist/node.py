"""The node process: a shell around the node's protocol.

One node process is the distributed backend's PE.  What it knows and
decides — the I-structure memory, one segment per array, the owner
map, pending reads, fencing, takeover replay — is its
:class:`~repro.dist.protocol.NodeProtocol`, a state machine under one
lock.  This module does the rest, with two kinds of thread:

* the **executors** (worker threads): one interpreter per adopted
  identity group, running the program on the shared SPMD core
  (:mod:`repro.runtime.spmd`, the same one the real-parallel backend
  runs).  A write or a read miss is a protocol event, run on the
  executor itself; an owned write and a release of a reader here need
  nothing else, and a frame it calls for is handed to the loop.
* the **runtime** (main thread, asyncio): reads the coordinator link
  (hello/heartbeats up; start, adopt, ownermap, collect, ckpt, fence and
  shutdown down) and the peer transport, hands each frame to the
  protocol, and carries out the actions it returns once its lock is
  released: send a frame, release a waiting executor (a future), start
  an executor, exit.

A read that nothing will ever satisfy times out as a structured
:class:`~repro.common.errors.DeferredReadTimeout` — the distributed face
of deadlock.
"""

from __future__ import annotations

import asyncio
import concurrent.futures as cf
import os
import sys
import threading
import time
import traceback

from repro.common.errors import DeferredReadTimeout
from repro.dist.faults import DistFaultInjector, DistFaultPlan
from repro.dist.protocol import (RELEASE, REPORT, SEND, START,
                                 NodeProtocol)
from repro.dist.transport import (COORD, Endpoint, encode_frame,
                                  frame_secret, read_frame)
from repro.runtime.arrays import SharedHandle, index_fn
from repro.runtime.spmd import SpmdInterpreter, sigterm_default

# The longest run a read may ask for, in elements (64 pages of 32): it
# bounds a reply's frame and the owner's time encoding it, whatever the
# page size.
_RUN_CAP = 2048

# ``DistArray.read`` after the index rule: count, then the cells of the
# node's segment of the array (program values are numbers, never None),
# then the miss path, which waits for the element; whatever answers it
# puts the element in the cells first.
_DIST_READ = """\
self.reads += 1
value = seen[off]
if value is None:
    value = miss(self, indices, off)
return value
"""

# ``DistArray.write`` after the index rule: count, note the page, then
# the protocol's write event; the frames it calls for go to the loop.
_DIST_WRITE = """\
self.writes += 1
touched.add(off // page_size)
actions = store(ordinal, off, value, replay)
if actions:
    hand_over(actions)
return
"""


class DistArray(SharedHandle):
    """One executor's handle to a distributed I-structure.

    Holds the geometry (an :class:`ArrayHeader` over the *identity*
    space — ownership never changes shape, only the identity->node
    binding does) and this executor's access counters; storage lives in
    the node's protocol, every element the node holds in the cells of
    its one segment of the array (:meth:`NodeProtocol.array`), which
    every handle of the array on the node shares and the interpreter's
    inline read probes (:class:`~repro.runtime.arrays.Handle`).
    ``read`` is built here, once, by
    :func:`~repro.runtime.arrays.index_fn`: the index rule for this
    handle's rank, the counter and a look in the cells in one Python
    frame, then the miss path, which asks the owner for the run of up
    to ``_RUN_CAP`` elements from the missed element's page.  ``write``
    is built the same way: the rule, the counters and the protocol event.
    """

    __slots__ = ("read", "write")

    def __init__(self, runtime: "NodeRuntime", seq: int,
                 dims: tuple[int, ...], replay: bool = False) -> None:
        super().__init__(seq, dims, runtime.cfg.page_size,
                         runtime.cfg.nodes)
        # ``replay``: writes verify already-present elements.
        seen = self.probe(runtime.protocol.array(self.header))
        self.read = index_fn("read", seq, dims, _DIST_READ, self=self,
                             seen=seen, miss=runtime.read_miss)
        self.write = index_fn("write", seq, dims, _DIST_WRITE,
                              "indices, value", self=self, ordinal=seq,
                              touched=self.pages_touched,
                              page_size=runtime.cfg.page_size,
                              store=runtime.protocol.write, replay=replay,
                              hand_over=runtime.hand_over)


class _NodeInterpreter(SpmdInterpreter):
    """The SPMD core over this node's protocol and its segments."""

    def __init__(self, runtime: "NodeRuntime", identities: tuple[int, ...],
                 replay: bool) -> None:
        super().__init__(runtime.program, identities, runtime.injector)
        self.runtime = runtime
        self.replay = replay

    def alloc_shared(self, seq: int, dims: tuple[int, ...]) -> DistArray:
        return DistArray(self.runtime, seq, dims, self.replay)


class NodeRuntime:
    """The shell of one node process: loop, transport, threads.

    It reads frames, runs the executor threads, maps the protocol's
    waiter tokens to futures (a token *is* the future an executor waits
    on) and carries out the protocol's actions; it keeps no protocol
    state.  An event from an executor runs on the executor, and of its
    actions the executor releases waiters itself and queues the frames
    for the loop (:meth:`hand_over`), waking it with a
    ``call_soon_threadsafe`` only when the queue was empty: one wake per
    batch the loop drains, never more than one per event.
    """

    def __init__(self, program, node: int, coord_port: int, cfg,
                 args: tuple, plan: DistFaultPlan,
                 standby_port: int | None = None,
                 restore=None) -> None:
        self.program = program
        self.node = node
        self.coord_port = coord_port
        self.standby_port = standby_port
        self.cfg = cfg
        self.args = tuple(args)
        self.injector = DistFaultInjector(plan, node)
        self.protocol = NodeProtocol(node, cfg.nodes, cfg.page_size,
                                     threading.Lock(), restore)
        self.loop: asyncio.AbstractEventLoop | None = None
        self.endpoint: Endpoint | None = None
        self._coord_writer = None
        self._stop: asyncio.Event | None = None
        self._hb_task: asyncio.Task | None = None
        self._threads: list[threading.Thread] = []
        # Executors' frames for the loop, in hand-over order.
        self._handed: list = []
        self._hand_lock = threading.Lock()
        self._secret = frame_secret()
        self.peer_port: int | None = None

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
        protocol = self.protocol
        self.endpoint = Endpoint(
            self.node, self.cfg, self.injector,
            lambda src, m: self.act(protocol.peer(src, m)),
            lambda *lost: self.act(protocol.peer_lost(*lost)))
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
            if t == "shutdown":
                self._send_coord({
                    "t": "bye", "node": self.node,
                    "netstats": self.endpoint.stats.counters()})
                try:
                    await self._coord_writer.drain()
                except Exception:
                    pass
                self._stop.set()
                return
            if t == "start":
                self.endpoint.set_peers({int(k): (v[0], int(v[1]))
                                         for k, v in msg["peers"].items()})
                if self._hb_task is None:
                    self._hb_task = asyncio.ensure_future(self._hb_loop())
            elif t == "adopt":
                self.injector.set_generation(msg["generation"])
            actions = self.protocol.control(msg)
            if t == "ownermap":
                for node in set(range(self.cfg.nodes)) - set(msg["live"]):
                    self.endpoint.forget(node)
            self.act(actions)
            self.endpoint.flush()

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
            self._send_coord({"t": "hello", "node": self.node,
                              "port": self.peer_port,
                              "resync": self.protocol.resync()})
            return reader
        return None

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

    # ------------------------------------------------------------------
    # carrying out the protocol's actions
    # ------------------------------------------------------------------

    def act(self, actions: list) -> None:
        """Carry out ``actions`` (loop thread)."""
        for act in actions:
            kind = act[0]
            if kind == SEND:
                self.endpoint.send(act[1], act[2])
            elif kind == REPORT:
                self._send_coord(act[1])
            elif kind == RELEASE:
                act[1].set_result(act[2])
            elif kind == START:
                self._start_executor(*act[1:])
            else:  # EXIT: fenced
                os._exit(0)

    def hand_over(self, actions: list) -> None:
        """Carry out an executor event's ``actions`` (executor thread):
        a release here, the frames queued for the loop, which is woken
        only if the queue was empty (else a wake is already on its way)."""
        frames = []
        for act in actions:
            if act[0] == RELEASE:
                act[1].set_result(act[2])
            else:
                frames.append(act)
        if frames:
            with self._hand_lock:
                wake = not self._handed
                self._handed += frames
            if wake:
                try:
                    self.loop.call_soon_threadsafe(self._drain)
                except RuntimeError:
                    pass  # loop already closed during teardown

    def _drain(self) -> None:
        """Carry out every frame the executors queued (loop thread)."""
        with self._hand_lock:
            frames, self._handed = self._handed, []
        self.act(frames)
        self.endpoint.flush()

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
        emit = self.protocol.emit
        _NodeInterpreter(self, identities, replay).execute(
            self.args,
            lambda tag, payload: self.hand_over(
                emit(slot, generation, identities, tag, payload)),
            lambda arr: [arr.ordinal, list(arr.dims)])

    def read_miss(self, arr: DistArray, indices: tuple, off: int):
        """A read of an element the node does not hold: wait for it."""
        fut: cf.Future = cf.Future()
        self.hand_over(self.protocol.read(arr.ordinal, off, _RUN_CAP, fut))
        t0 = time.perf_counter()
        try:
            value = fut.result(timeout=self.cfg.read_timeout_s)
        except cf.TimeoutError:
            raise DeferredReadTimeout(
                f"array {arr.ordinal}", indices, off,
                arr.header.owner_of_offset(off),
                time.perf_counter() - t0) from None
        arr.waited(time.perf_counter() - t0)
        return value


def node_main(program, node: int, coord_port: int, cfg, args: tuple,
              plan: DistFaultPlan, standby_port: int | None = None,
              restore=None) -> None:
    """Node process entry point (forked by the coordinator)."""
    sigterm_default()
    # An executor that stores what it owns holds the GIL while the loop
    # thread waits to answer a *peer's* read: the default 5 ms hand-over
    # dwarfs the 31 us frame round trip.  Ours to set (the process is
    # forked for the node); docs/distributed.md has the measurements.
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
