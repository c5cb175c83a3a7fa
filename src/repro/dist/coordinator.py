"""Spawn and supervise a cluster of node processes.

``run_distributed`` is the distributed twin of
:func:`repro.parallel.executor.run_parallel`: hand the compiled program
(AST plus its already-partitioned graph) to one forked node process per
PE (before the asyncio loop starts — forking inside a running loop is
undefined behaviour), then supervise over TCP from a forked coordinator
process, the client standing by to take over if it dies.  Every rule of
the coordinator — registration, liveness, takeover, the rounds — is
:class:`~repro.dist.protocol.CoordinatorProtocol`'s; ``_Supervisor`` is
its asyncio shell.

Teardown is uniform across success, failure and interrupt: broadcast
shutdown, then terminate/join every process ever forked and close every
socket — the chaos driver asserts zero leaked processes, sockets and
shared-memory segments after every scenario.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import os
import socket
import time
from contextlib import suppress
from multiprocessing import connection as mp_connection

from repro.common.config import DistConfig
from repro.common.errors import (DistExecutionError, NodeLossError,
                                 WorkerFailure)
from repro.dist.faults import CoordKillSwitch, DistFaultPlan
from repro.dist.node import node_main
from repro.dist.protocol import SEND, CoordinatorProtocol
from repro.dist.transport import encode_frame, frame_secret, read_frame
from repro.runtime.spmd import (SpmdResult, fold_results, reap,
                                sigterm_as_interrupt)
from repro.runtime.supervise import Abort

# The forked coordinator writes its pid here so out-of-process chaos
# (CI's crash-restart job) can aim a real ``kill -9`` at it.
COORD_PIDFILE_ENV = "PODS_DIST_COORD_PIDFILE"


class _Supervisor:
    """The coordinator's asyncio shell: the server, the sentinels, the
    sends and checkpoint writes, and each phase held to its deadline;
    every decision is ``self.proto``'s.  With ``standby=True`` this is
    the *promoted* supervisor: its core waits for the running nodes to
    rejoin and votes on their resyncs; it never arms ``coord-kill``.
    """

    def __init__(self, cfg: DistConfig, procs: list, plan=None,
                 ckpt=None, restore=None, standby: bool = False) -> None:
        self.cfg, self.procs, self.ckpt, self.restore = (cfg, procs, ckpt,
                                                         restore)
        self.kill = CoordKillSwitch(None if standby else plan)
        self.proto = CoordinatorProtocol(
            cfg, time.monotonic(),
            expect={node for node, proc in enumerate(procs)
                    if proc.is_alive()} if standby else None,
            checkpoints=ckpt is not None)
        self._secret = frame_secret()
        self.conns: dict[int, asyncio.StreamWriter] = {}
        self.reading: set[int] = set()  # nodes whose link is not drained
        self.exits: dict[int, int | None] = {}  # exit codes held till then
        self.kick = asyncio.Event()
        self._conn_tasks: set[asyncio.Task] = set()

    async def run(self, lsock: socket.socket,
                  t_start: float) -> SpmdResult:
        loop = asyncio.get_running_loop()
        server = await asyncio.start_server(self._accept, sock=lsock)
        for node, proc in enumerate(self.procs):
            loop.add_reader(proc.sentinel, self._sentinel_fired, node)
        proto = self.proto
        try:
            while (phase := proto.phase) != "end":
                if not await self._until(phase):
                    self._expired(phase)
                if phase == "register" and proto.phase == "run":
                    self.kill.fire("start")
            outcome = proto.outcome
            if isinstance(outcome, Abort):
                cls = NodeLossError if outcome.member_lost \
                    else DistExecutionError
                raise cls.unrecovered(list(outcome.failures), proto.sup.log,
                                      outcome.message, self.cfg.timeout_s)
            return fold_results(
                proto.value, time.perf_counter() - t_start,
                proto.sup.completed, self.cfg.nodes, proto.sup.log,
                self.ckpt, self.restore, who="node",
                spin_cause="remote-read", netstats=proto.netstats)
        finally:
            for proc in self.procs:
                with suppress(Exception):
                    loop.remove_reader(proc.sentinel)
            for task in list(self._conn_tasks):
                task.cancel()
            for writer in self.conns.values():
                with suppress(Exception):
                    writer.transport.abort()
            server.close()
            with suppress(Exception):
                await server.wait_closed()
            await asyncio.sleep(0)  # let transports actually close

    async def _until(self, phase: str) -> bool:
        """Tick the core until it leaves ``phase``; False once the
        phase's limit passed first.  While the run runs, a checkpoint
        round opens when due."""
        cfg = self.cfg  # registration and a final round: connect_timeout_s
        deadline = time.monotonic() + {
            "run": float("inf"), "shutdown": max(1.0, 10 * cfg.poll_interval_s)
        }.get(phase, cfg.connect_timeout_s)
        while (now := time.monotonic()) <= deadline:
            paced = (self.ckpt is not None and phase == "run"
                     and "ckpt" not in self.proto.rounds)
            if paced and self.ckpt.due(now):
                self._do(self.proto.checkpoint())
            self._do(self.proto.tick(now))
            if self.proto.phase != phase:
                return True
            wake = min(deadline, self.ckpt.next_due()) if paced else deadline
            with suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self.kick.wait(), max(0.001, min(
                    self.cfg.poll_interval_s, wake - time.monotonic())))
            self.kick.clear()
        return self.proto.phase != phase

    def _expired(self, phase: str) -> None:
        if phase not in ("register", "collect"):
            return self._do(self.proto.close(phase))
        if phase == "register":
            nodes, kind, detail = (self.proto.missing(), "lost",
                                   "never registered with the coordinator")
            what = (f"node registration timed out after "
                    f"{self.cfg.connect_timeout_s:g}s (missing nodes {nodes})")
        else:
            nodes, kind, detail = (sorted(self.proto.rounds["collect"]),
                                   "hang", "did not answer the collect "
                                           "request")
            what = f"array collect timed out (nodes {nodes} silent)"
        raise DistExecutionError(
            f"distributed run failed: {what}",
            [WorkerFailure(node, None, kind, detail) for node in nodes],
            recovery=self.proto.sup.log)

    async def _accept(self, reader, writer) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        try:
            hello = await read_frame(reader, self._secret)
            if not hello or hello.get("t") != "hello":
                writer.close()
                return
            node = hello["node"]
            self.conns[node] = writer
            self.reading.add(node)
            self._event(self.proto.hello(time.monotonic(), node,
                                         hello["port"], hello.get("resync")))
            while (msg := await read_frame(reader, self._secret)) is not None:
                t = msg.get("t")
                if t in ("hb", "done", "result"):
                    self.kill.fire(t)
                actions = self.proto.frame(time.monotonic(), node, msg)
                if t != "hb":
                    self._event(actions)
            # Drained: a death the sentinel showed meanwhile counts now.
            self.reading.discard(node)
            if node in self.exits:
                self._event(self.proto.exited(time.monotonic(), node,
                                              self.exits.pop(node)))
        except asyncio.CancelledError:
            # Teardown cancellation: end the handler quietly, or the
            # stream server's done-callback logs a spurious traceback.
            pass

    def _sentinel_fired(self, node: int) -> None:
        with suppress(Exception):
            asyncio.get_running_loop().remove_reader(
                self.procs[node].sentinel)
        # In the forked coordinator the nodes are siblings, not
        # children; waitpid is the parent's privilege and poll() then
        # reports None.  The sentinel itself is fork-shared, so death
        # detection is unaffected — only the code is lost.
        exitcode = self.procs[node].exitcode
        if node in self.reading:  # what it sent before dying counts first
            self.exits[node] = exitcode
        else:
            self._event(self.proto.exited(time.monotonic(), node, exitcode))

    def _event(self, actions: list) -> None:
        """An event's actions, carried out; the wait loop looks again."""
        self._do(actions)
        self.kick.set()

    def _do(self, actions: list) -> None:
        """Carry out what the core decided."""
        for act in actions:
            if act[0] == SEND and act[1] in self.conns:
                with suppress(Exception):
                    self.conns[act[1]].write(encode_frame(act[2],
                                                          self._secret))
            elif act[0] != SEND:  # SNAPSHOT; disk trouble is best-effort
                with suppress(OSError):
                    self.ckpt.snapshot(act[1], now=time.monotonic())


def _coordinator_main(cfg, procs, lsock, t_start, conn, plan,
                      ckpt, restore) -> None:
    """Entry point of the forked primary-coordinator process.

    Ships the outcome — result or exception — to the standby (the
    client process) over a pipe and exits hard, so a ``coord-kill``
    clause or a real ``kill -9`` differs from success only in the pipe
    staying empty.
    """
    pidfile = os.environ.get(COORD_PIDFILE_ENV)
    if pidfile:
        with suppress(OSError), open(pidfile, "w", encoding="utf-8") as fh:
            fh.write(str(os.getpid()))
    sup = _Supervisor(cfg, procs, plan=plan, ckpt=ckpt, restore=restore)
    try:
        result = asyncio.run(sup.run(lsock, t_start))
    except BaseException as exc:  # ship the failure whole
        try:
            conn.send(("err", exc))
        except Exception:
            with suppress(Exception):  # unless the pipe is gone
                conn.send(("err", DistExecutionError(
                    f"distributed run failed: {exc}")))
        os._exit(1)
    try:
        conn.send(("ok", result))
    except Exception:  # pragma: no cover - standby already gone
        os._exit(1)
    os._exit(0)


def run_distributed(program, args: tuple = (),
                    config: DistConfig | None = None,
                    faults=None, ckpt=None, restore=None) -> SpmdResult:
    """Execute a compiled ``program`` (:class:`repro.api.Program`)
    across supervised TCP-connected nodes.

    Node-loss recovery (heartbeat detection, fencing, identity takeover
    with presence-bit replay) heals up to ``retry.max_retries_total``
    losses when ``retry.enabled`` is on; past the budget — or with
    recovery off, or with no survivors — the run aborts with
    :class:`NodeLossError`.  Node-side program faults abort with
    :class:`DistExecutionError` carrying per-node
    :class:`WorkerFailure` records and the :class:`RecoveryLog`; a
    partial result is never returned.  ``faults`` takes the parsed
    :class:`~repro.dist.faults.DistFaultPlan` ``Backend.run`` built
    (``None`` = no faults).

    The coordinator runs in its own forked process while the client
    is a warm standby: if it dies mid-run, nodes rejoin on the standby
    port with a resync payload and the promoted standby completes the
    run.  ``ckpt`` (a :class:`repro.ckpt.format.CkptWriter`) collects
    periodic ``pods-ckpt/v2`` snapshots of the elements the nodes hold;
    ``restore`` (a :class:`repro.ckpt.format.CkptRestore`) pre-seeds
    them, re-partitioned at the current node count, for a replay.
    """
    cfg = config or DistConfig()
    plan = faults or DistFaultPlan()

    restore_sigterm = sigterm_as_interrupt()
    lsock = socket.create_server((cfg.host, 0), backlog=cfg.nodes + 4)
    port = lsock.getsockname()[1]
    ssock = socket.create_server((cfg.host, 0), backlog=cfg.nodes + 4)
    standby_port = ssock.getsockname()[1]
    ctx = mp.get_context("fork")
    procs: list = []
    coord = None
    t_start = time.perf_counter()
    try:
        # Fork every node before the asyncio loop exists: a fork taken
        # inside a running loop inherits broken loop state.
        for node in range(cfg.nodes):
            proc = ctx.Process(
                target=node_main,
                args=(program, node, port, cfg, tuple(args), plan,
                      standby_port, restore))
            proc.start()
            procs.append(proc)
        result_recv, result_send = ctx.Pipe(duplex=False)
        coord = ctx.Process(
            target=_coordinator_main,
            args=(cfg, procs, lsock, t_start, result_send, plan, ckpt,
                  restore))
        coord.start()
        result_send.close()  # ours would keep the pipe writable
        lsock.close()        # the coordinator child owns the listener
        lsock = None
        while True:
            ready = mp_connection.wait([result_recv, coord.sentinel])
            if result_recv in ready:
                try:
                    kind, payload = result_recv.recv()
                except (EOFError, OSError):
                    break  # died mid-send: treat as coordinator loss
                coord.join(timeout=5.0)
                if kind == "ok":
                    return payload
                raise payload
            if coord.sentinel in ready and not coord.is_alive():
                break
        # The primary died without delivering an outcome: promote.
        supervisor = _Supervisor(cfg, procs, plan=None, ckpt=ckpt,
                                 restore=restore, standby=True)
        return asyncio.run(supervisor.run(ssock, t_start))
    finally:
        reap(([coord] if coord is not None else []) + procs)
        for sock in (lsock, ssock):
            if sock is not None:
                with suppress(OSError):
                    sock.close()
        restore_sigterm()
