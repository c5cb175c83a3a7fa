"""Spawn, supervise and heal a cluster of node processes.

``run_distributed`` is the distributed twin of
:func:`repro.parallel.executor.run_parallel`: hand the compiled program
(AST plus its already-partitioned graph) to one forked node process per
PE (before the asyncio loop starts — forking inside a running loop is
undefined behaviour), then supervise over TCP:

* **registration** — every node dials in, reports its peer-listener
  port, and receives the full peer map plus the initial owner map;
* **liveness** — nodes heartbeat on the control link; the coordinator
  watches heartbeat deadlines *and* process sentinels, so both a
  silent partition and an outright death surface within one poll
  interval as a structured :class:`WorkerFailure`;
* **takeover** — when recovery is on and the global takeover budget
  allows, a dead node is fenced, its identities are rebound to the
  lowest-numbered survivor in a new owner-map version broadcast to the
  cluster, and the survivor re-executes the orphaned Range-Filter
  subranges after deterministic backoff.  Single assignment makes the
  replay idempotent: elements other nodes already hold are verified
  (presence-bit replay), the missing suffix is recomputed.  Reads that
  were in flight to the dead node are re-issued against the new owner.
* **degradation ladder** — recovery disabled, budget exhausted, or no
  survivors raises :class:`~repro.common.errors.NodeLossError`
  (taxonomy code ``node-loss``); node-side program faults raise
  :class:`~repro.common.errors.DistExecutionError`, classified by the
  code each node's ``err`` report carries, as on the parallel backend.

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
from multiprocessing import connection as mp_connection
from typing import Any

from repro.common.config import DistConfig
from repro.common.errors import (DistExecutionError, NodeLossError,
                                 WorkerFailure)
from repro.common.retry import RecoveryEvent, RecoveryLog
from repro.dist import reasons
from repro.dist.faults import CoordKillSwitch, DistFaultPlan
from repro.dist.node import node_main
from repro.dist.transport import encode_frame, frame_secret, read_frame
from repro.runtime.spmd import (SpmdResult, fold_results, reap,
                                sigterm_as_interrupt)
from repro.runtime.values import ArrayValue
from repro.sim.reliable import NetStats

# The forked coordinator writes its pid here so out-of-process chaos
# (CI's crash-restart job) can aim a real ``kill -9`` at it.
COORD_PIDFILE_ENV = "PODS_DIST_COORD_PIDFILE"


class _Supervisor:
    """The coordinator's asyncio half: registration through teardown.

    With ``standby=True`` this is the *promoted* supervisor: the nodes
    are already running, so registration waits for them to rejoin on
    the standby socket and absorbs their resync payloads (owner map,
    generation, remembered done/result reports) instead of launching
    executors.  The promoted supervisor never arms ``coord-kill``
    clauses — a scenario tests exactly one failover.
    """

    def __init__(self, cfg: DistConfig, procs: list, plan=None,
                 ckpt=None, restore=None, standby: bool = False) -> None:
        self.cfg = cfg
        self.procs = procs
        self.n = cfg.nodes
        self.kill = CoordKillSwitch(None if standby else plan)
        self.ckpt = ckpt
        self.restore = restore
        self.standby = standby
        self.expect: set[int] = set(range(self.n))
        self.max_resync_gen = 0
        self._registering = True
        self._deferred_losses: list[tuple[int, int | None]] = []
        self._ckpt_pending: set[int] = set()
        # array id -> (dims, {offset: value}); a monotone union across
        # rounds — single assignment makes mixed-time replies a cut.
        self._ckpt_acc: dict[int, tuple[tuple, dict]] = {}
        self._secret = frame_secret()
        self.conns: dict[int, asyncio.StreamWriter] = {}
        self.ports: dict[int, int] = {}
        self.last_hb: dict[int, float] = {}
        self.live: set[int] = set(range(self.n))
        self.owners: list[int] = list(range(self.n))
        self.remaining: set[int] = set(range(self.n))
        self.completed: dict[int, dict] = {}
        self.result_msg: tuple | None = None
        self.failures: list[WorkerFailure] = []
        self.fatal_message: str | None = None
        self.node_loss = False
        self.rlog = RecoveryLog()
        self.takeovers_used = 0
        self.generation = 1
        # (due monotonic, dead node, identities, generation)
        self.pending_adopts: list[tuple[float, int, tuple[int, ...],
                                        int]] = []
        self.segments: dict[int, Any] = {}
        self.collect_pending: set[int] = set()
        self.byes: dict[int, dict] = {}
        self.finishing = False
        self.kick = asyncio.Event()
        self.t0 = time.monotonic()
        self._conn_tasks: set[asyncio.Task] = set()
        self.server = None

    def t(self) -> float:
        return time.monotonic() - self.t0

    # -- entry -----------------------------------------------------------

    async def run(self, lsock: socket.socket,
                  t_start: float) -> SpmdResult:
        loop = asyncio.get_running_loop()
        self.server = await asyncio.start_server(self._accept, sock=lsock)
        if self.standby:
            self.expect = {node for node, proc in enumerate(self.procs)
                           if proc.is_alive()}
        watched = []
        for node, proc in enumerate(self.procs):
            loop.add_reader(proc.sentinel, self._sentinel_fired, node)
            watched.append(proc.sentinel)
        try:
            await self._registration()
            self._registering = False
            if self.standby:
                self._assume_command()
            else:
                self._broadcast_start()
                self.kill.fire("start")
            await self._supervise()
            if self.failures:
                raise self._build_error()
            value = await self._finish_value()
            if self.ckpt is not None:
                await self._ckpt_final()
            await self._graceful_shutdown()
            return self._build_result(value, t_start)
        finally:
            for sentinel in watched:
                try:
                    loop.remove_reader(sentinel)
                except Exception:
                    pass
            for task in list(self._conn_tasks):
                task.cancel()
            for writer in self.conns.values():
                try:
                    writer.transport.abort()
                except Exception:
                    pass
            self.server.close()
            try:
                await self.server.wait_closed()
            except Exception:
                pass
            await asyncio.sleep(0)  # let transports actually close

    # -- phases ----------------------------------------------------------

    async def _registration(self) -> None:
        deadline = time.monotonic() + self.cfg.connect_timeout_s
        while True:
            if self.standby:
                dead = {node for node, _ in self._deferred_losses}
                expected = {node for node in self.expect
                            if node in self.live and node not in dead}
            else:
                expected = set(range(self.n))
            if expected <= set(self.conns):
                return
            if self.failures:
                raise self._build_error()
            if time.monotonic() > deadline:
                missing = sorted(expected - set(self.conns))
                raise DistExecutionError(
                    f"distributed run failed: node registration timed "
                    f"out after {self.cfg.connect_timeout_s:g}s "
                    f"(missing nodes {missing})",
                    [WorkerFailure(node, exitcode=None, kind="lost",
                                   detail="never registered with the "
                                          "coordinator")
                     for node in missing],
                    recovery=self.rlog)
            await self._wait_kick()

    def _assume_command(self) -> None:
        """Promoted standby takes over: fence the dead epoch, realign.

        The resync payloads already replayed done/result reports and
        installed the highest-generation owner map; what remains is to
        bump past the old coordinator's generation (fencing any frame
        it might still emit conceptually) and re-broadcast the agreed
        owner map so every survivor shares one view.  Node deaths that
        raced the failover were deferred during registration and are
        processed now, against the absorbed owner map — so a loss the
        old coordinator already healed is not healed twice.
        """
        self.generation = max(self.generation, self.max_resync_gen) + 1
        self.rlog.record(RecoveryEvent(
            self.t(), "failover", -1, self.generation,
            detail=(f"standby coordinator took over; nodes "
                    f"{sorted(self.conns)} rejoined, owner map "
                    f"{self.owners}")))
        self._broadcast({"t": "ownermap", "owners": self.owners,
                         "live": sorted(self.live),
                         "gen": self.generation})
        for node, exitcode in self._deferred_losses:
            if node in self.live:
                self._report_exit(node, exitcode)
        self._deferred_losses.clear()

    def _broadcast_start(self) -> None:
        peers = {str(node): [self.cfg.host, self.ports[node]]
                 for node in range(self.n)}
        self._broadcast({"t": "start", "peers": peers,
                         "owners": self.owners,
                         "live": sorted(self.live)})

    async def _supervise(self) -> None:
        deadline = time.monotonic() + self.cfg.timeout_s
        while True:
            if self.failures:
                return
            if not self.remaining:
                if self.result_msg is not None:
                    return
                self.failures.append(WorkerFailure(
                    0, exitcode=None, kind="lost",
                    detail="no result message received"))
                self.fatal_message = ("node 0 completed without "
                                      "producing a result")
                return
            now = time.monotonic()
            if (self.ckpt is not None and not self._ckpt_pending
                    and self.live and self.ckpt.due(now)):
                self._ckpt_pending = set(self.live)
                self._broadcast({"t": "ckpt"})
            due = [a for a in self.pending_adopts if a[0] <= now]
            if due:
                self.pending_adopts = [a for a in self.pending_adopts
                                       if a[0] > now]
                for _, dead, idents, generation in due:
                    self._fire_adopt(dead, idents, generation)
                continue
            for node in sorted(self.live):
                hb = self.last_hb.get(node)
                if hb is not None and \
                        now - hb > self.cfg.heartbeat_timeout_s:
                    self._on_node_loss(
                        node,
                        kind=reasons.failure_kind(
                            reasons.HEARTBEAT_SILENCE),
                        exitcode=None,
                        detail=reasons.reason_string(
                            reasons.HEARTBEAT_SILENCE,
                            f"{now - hb:.2f}s silent (threshold "
                            f"{self.cfg.heartbeat_timeout_s:g}s)"))
            if now > deadline:
                for node in sorted(self.live):
                    if not self.remaining.intersection(
                            i for i in range(self.n)
                            if self.owners[i] == node):
                        continue
                    self.failures.append(WorkerFailure(
                        node, exitcode=None, kind="hang",
                        detail=f"still running at the "
                               f"{self.cfg.timeout_s:g}s deadline; "
                               "terminated",
                        generation=self.generation))
                for _, _, idents, generation in self.pending_adopts:
                    self.failures.append(WorkerFailure(
                        min(idents), exitcode=None, kind="hang",
                        detail="takeover still pending at the run "
                               "deadline",
                        generation=generation))
                self.pending_adopts.clear()
                return
            await self._wait_kick()

    async def _finish_value(self) -> Any:
        status, payload = self.result_msg
        if status != "array":
            return payload
        seq, dims = payload[0], tuple(payload[1])
        self.segments = {}
        self.collect_pending = set(self.live)
        self._broadcast({"t": "collect", "a": seq})
        deadline = time.monotonic() + self.cfg.connect_timeout_s
        while self.collect_pending:
            if time.monotonic() > deadline:
                raise DistExecutionError(
                    f"distributed run failed: array collect timed out "
                    f"(nodes {sorted(self.collect_pending)} silent)",
                    [WorkerFailure(node, exitcode=None, kind="hang",
                                   detail="did not answer the collect "
                                          "request")
                     for node in sorted(self.collect_pending)],
                    recovery=self.rlog)
            await self._wait_kick()
        total = 1
        for d in dims:
            total *= d
        flat = [self.segments.get(i) for i in range(total)]
        return ArrayValue(dims, flat)

    async def _graceful_shutdown(self) -> None:
        self.finishing = True
        expected = set(self.live)
        self._broadcast({"t": "shutdown"})
        deadline = time.monotonic() + max(1.0,
                                          10 * self.cfg.poll_interval_s)
        while set(self.byes) < expected and time.monotonic() < deadline:
            await self._wait_kick()

    # -- connections -----------------------------------------------------

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
            self.ports[node] = hello["port"]
            self.last_hb[node] = time.monotonic()
            resync = hello.get("resync")
            if resync:
                self._absorb_resync(node, resync)
            self.kick.set()
            while True:
                msg = await read_frame(reader, self._secret)
                if msg is None:
                    return  # death shows up via sentinel/heartbeat
                self._on_msg(node, msg)
        except asyncio.CancelledError:
            # Teardown cancellation: end the handler quietly, or the
            # stream server's done-callback logs a spurious traceback.
            pass

    def _absorb_resync(self, node: int, resync: dict) -> None:
        """Install a rejoining node's memory of the dead epoch.

        The highest generation any survivor saw wins the owner-map /
        live-set vote (later broadcasts strictly supersede earlier
        ones); every remembered done/result/err report is replayed
        through the normal message path — replaying a report twice is
        idempotent, so overlap between survivors' memories is safe.
        """
        gen = int(resync.get("gen", 1))
        if gen > self.max_resync_gen:
            self.max_resync_gen = gen
            owners = resync.get("owners")
            if owners is not None:
                self.owners = [int(o) for o in owners]
            live = resync.get("live")
            if live is not None:
                self.live = {int(x) for x in live}
        for report in resync.get("reports", ()):
            src = int(report.get("node", node))
            self._on_msg(src, report)

    def _on_msg(self, node: int, msg: dict) -> None:
        t = msg.get("t")
        if t in ("hb", "done", "result"):
            self.kill.fire(t)
        if t == "hb":
            self.last_hb[node] = time.monotonic()
            return
        if node not in self.live and t != "bye":
            return  # fenced zombie
        if t == "done":
            self.completed[msg["slot"]] = msg["telemetry"]
            self.remaining.difference_update(msg["identities"])
        elif t == "result":
            status, payload = msg["v"]
            self.result_msg = (status, payload)
        elif t == "err":
            self.failures.append(WorkerFailure(
                msg.get("slot", node), exitcode=None, kind="error",
                detail=msg["detail"], generation=msg.get("gen", 1),
                code=msg["code"]))
            self.fatal_message = (f"node {node} reported a program "
                                  "error")
        elif t == "peer-lost":
            peer = msg["peer"]
            if peer in self.live:
                reason = msg["reason"]
                self._on_node_loss(
                    peer, kind=reasons.failure_kind(reason),
                    exitcode=None,
                    detail=reasons.reason_string(
                        reason, f"unreachable from node {node}: "
                                f"{msg['detail']}"))
        elif t == "segment":
            for key, value in msg["vals"].items():
                self.segments[int(key)] = value
            self.collect_pending.discard(node)
        elif t == "ckpt-state":
            for key, entry in msg.get("arrays", {}).items():
                aid = int(key)
                dims = tuple(entry.get("dims", ()))
                acc = self._ckpt_acc.setdefault(aid, (dims, {}))
                vals = acc[1]
                for off, value in entry.get("vals", {}).items():
                    vals.setdefault(int(off), value)
            self._ckpt_mark(node)
        elif t == "bye":
            self.byes[node] = msg.get("netstats") or {}
        self.kick.set()

    def _sentinel_fired(self, node: int) -> None:
        loop = asyncio.get_running_loop()
        try:
            loop.remove_reader(self.procs[node].sentinel)
        except Exception:
            pass
        if self.finishing or node not in self.live:
            self.kick.set()
            return
        try:
            # In the forked coordinator the nodes are siblings, not
            # children; waitpid is the parent's privilege and poll()
            # then reports None.  The sentinel itself is fork-shared,
            # so death detection is unaffected — only the code is lost.
            exitcode = self.procs[node].exitcode
        except Exception:  # pragma: no cover - defensive
            exitcode = None
        if self._registering and self.standby:
            # A death racing the failover: defer until the resync
            # payloads have voted on the owner map, so a loss the old
            # coordinator already healed is not healed twice.
            self._deferred_losses.append((node, exitcode))
            self.kick.set()
            return
        self._report_exit(node, exitcode)

    def _report_exit(self, node: int, exitcode: int | None) -> None:
        self._on_node_loss(
            node,
            kind=reasons.failure_kind(reasons.PROCESS_EXIT, exitcode),
            exitcode=exitcode,
            detail=reasons.reason_string(
                reasons.PROCESS_EXIT,
                f"exitcode {'?' if exitcode is None else exitcode}"))

    # -- node loss and takeover ------------------------------------------

    def _on_node_loss(self, node: int, kind: str, exitcode,
                      detail: str) -> None:
        if self.finishing or node not in self.live:
            return
        self.live.discard(node)
        self._ckpt_mark(node)  # don't let a dead node stall a round
        failure = WorkerFailure(node, exitcode=exitcode, kind=kind,
                                detail=detail,
                                generation=self.generation)
        self.rlog.record(RecoveryEvent(
            self.t(), "failure", node, self.generation,
            detail=f"{kind} "
                   f"(exitcode {'?' if exitcode is None else exitcode})"
                   f": {detail}"))
        writer = self.conns.get(node)
        if writer is not None:
            try:
                writer.write(encode_frame({"t": "fence"}, self._secret))
            except Exception:
                pass
        idents = tuple(i for i in range(self.n)
                       if self.owners[i] == node)
        self.kick.set()
        if not self.cfg.retry.enabled:
            self.failures.append(failure)
            self.fatal_message = (f"node {node} lost and recovery is "
                                  "disabled")
            self.node_loss = True
            return
        if self.takeovers_used >= self.cfg.max_takeovers:
            self.failures.append(failure)
            self.fatal_message = (f"takeover budget exhausted "
                                  f"({self.cfg.max_takeovers})")
            self.node_loss = True
            self.rlog.record(RecoveryEvent(
                self.t(), "exhausted", node, self.generation,
                detail=f"{self.cfg.max_takeovers} takeover(s) used"))
            return
        if not self.live:
            self.failures.append(failure)
            self.fatal_message = (f"node {node} lost; no survivor to "
                                  "take over")
            self.node_loss = True
            return
        self.takeovers_used += 1
        self.generation += 1
        delay = self.cfg.retry.backoff_s(node, self.takeovers_used)
        # Re-run every identity the dead node owned — even completed
        # ones, because its element store died with it.
        self.remaining.update(idents)
        self.pending_adopts.append(
            (time.monotonic() + delay, node, idents, self.generation))
        self.rlog.record(RecoveryEvent(
            self.t(), "takeover", min(idents) if idents else node,
            self.generation,
            detail=(f"identities {idents} orphaned by node {node} "
                    f"({kind}); survivors {sorted(self.live)}"),
            dur_s=delay))

    def _fire_adopt(self, dead: int, idents: tuple[int, ...],
                    generation: int) -> None:
        survivors = sorted(self.live)
        if not survivors:
            self.failures.append(WorkerFailure(
                dead, exitcode=None, kind="lost",
                detail="no survivor left to adopt its identities",
                generation=generation))
            self.fatal_message = "no survivor to take over"
            self.node_loss = True
            self.kick.set()
            return
        target = survivors[0]
        for ident in idents:
            self.owners[ident] = target
        self._broadcast({"t": "ownermap", "owners": self.owners,
                         "live": survivors, "gen": generation})
        self._send(target, {"t": "adopt", "identities": list(idents),
                            "generation": generation,
                            "slot": min(idents) if idents else target})

    # -- checkpointing ----------------------------------------------------

    def _ckpt_mark(self, node: int) -> None:
        """A node answered (or died out of) the open checkpoint round."""
        if node in self._ckpt_pending:
            self._ckpt_pending.discard(node)
            if not self._ckpt_pending:
                self._ckpt_flush()

    def _ckpt_flush(self) -> None:
        if self.ckpt is None:
            return
        arrays = [(aid, dims, self.cfg.page_size, dict(vals))
                  for aid, (dims, vals) in sorted(self._ckpt_acc.items())]
        done = set(range(self.n)) - set(self.remaining)
        try:
            self.ckpt.snapshot(arrays, done, self.n,
                               now=time.monotonic())
        except OSError:  # pragma: no cover - disk trouble is best-effort
            pass

    async def _ckpt_final(self) -> None:
        """One synchronous round so the checkpoint covers the result."""
        if not self.live:
            return
        self._ckpt_pending = set(self.live)
        self._broadcast({"t": "ckpt"})
        deadline = time.monotonic() + self.cfg.connect_timeout_s
        while self._ckpt_pending and time.monotonic() < deadline:
            await self._wait_kick()
        if self._ckpt_pending:  # write what we have anyway
            self._ckpt_pending.clear()
            self._ckpt_flush()

    # -- error / result assembly -----------------------------------------

    def _build_error(self) -> DistExecutionError:
        cls = NodeLossError if self.node_loss else DistExecutionError
        return cls.unrecovered(self.failures, self.rlog, self.fatal_message,
                               self.cfg.timeout_s)

    def _build_result(self, value: Any, t_start: float) -> SpmdResult:
        netstats = NetStats()
        for counters in self.byes.values():
            netstats.add(counters)
        return fold_results(
            value, time.perf_counter() - t_start, self.completed, self.n,
            self.rlog, self.ckpt, self.restore, who="node",
            spin_cause="remote-read", netstats=netstats)

    # -- plumbing --------------------------------------------------------

    async def _wait_kick(self) -> None:
        try:
            await asyncio.wait_for(self.kick.wait(),
                                   self.cfg.poll_interval_s)
        except asyncio.TimeoutError:
            pass
        self.kick.clear()

    def _send(self, node: int, msg: dict) -> None:
        writer = self.conns.get(node)
        if writer is None:
            return
        try:
            writer.write(encode_frame(msg, self._secret))
        except Exception:
            pass

    def _broadcast(self, msg: dict) -> None:
        for node in sorted(self.live):
            self._send(node, msg)


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
        try:
            with open(pidfile, "w", encoding="utf-8") as fh:
                fh.write(str(os.getpid()))
        except OSError:  # pragma: no cover - diagnostics only
            pass
    sup = _Supervisor(cfg, procs, plan=plan, ckpt=ckpt, restore=restore)
    try:
        result = asyncio.run(sup.run(lsock, t_start))
    except BaseException as exc:  # ship the failure whole
        try:
            conn.send(("err", exc))
        except Exception:
            try:
                conn.send(("err", DistExecutionError(
                    f"distributed run failed: {exc}")))
            except Exception:  # pragma: no cover - pipe gone
                pass
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
    with presence-bit replay) heals up to ``config.max_takeovers``
    failures when ``config.retry.enabled`` is on; past the budget — or with
    recovery off, or with no survivors — the run aborts with
    :class:`NodeLossError`.  Node-side program faults abort with
    :class:`DistExecutionError` carrying per-node
    :class:`WorkerFailure` records and the :class:`RecoveryLog`; a
    partial result is never returned.  ``faults`` takes the parsed
    :class:`~repro.dist.faults.DistFaultPlan` ``Backend.run`` built
    (``None`` = no faults).

    The coordinator itself is not a single point of failure: it runs in
    its own forked process while the client acts as a warm standby.
    Nodes learn both ports up front; if the coordinator dies mid-run
    they rejoin on the standby port carrying a resync payload (owner
    map, generation, remembered reports) and the promoted standby
    completes the run.

    ``ckpt`` takes a :class:`repro.ckpt.format.CkptWriter`: the
    coordinator periodically broadcasts a checkpoint request, nodes
    stream their owned element state back, and the monotone union is
    written as a ``pods-ckpt/v1`` snapshot.  ``restore`` takes a
    :class:`repro.ckpt.format.CkptRestore`: nodes pre-seed their stores
    and caches from the checkpoint (re-partitioned at the *current*
    node count) and re-execute in presence-bit replay mode.
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
                try:
                    sock.close()
                except OSError:
                    pass
        restore_sigterm()
