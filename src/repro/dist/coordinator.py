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
* **takeover** — what a loss means is the supervision core's decision
  (:mod:`repro.runtime.supervise`): the dead node is fenced, and its
  identities are rebound to the lowest-numbered survivor, which
  re-executes their subranges in presence-bit replay — or the run
  raises :class:`~repro.common.errors.NodeLossError`.

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
from repro.dist import reasons
from repro.dist.faults import CoordKillSwitch, DistFaultPlan
from repro.dist.node import node_main
from repro.dist.protocol import control_frames
from repro.dist.transport import encode_frame, frame_secret, read_frame
from repro.runtime.spmd import (SpmdResult, fold_results, reap,
                                sigterm_as_interrupt)
from repro.runtime.supervise import Abort, Fence, Start, Supervision
from repro.runtime.values import ArrayValue
from repro.sim.reliable import NetStats

# The forked coordinator writes its pid here so out-of-process chaos
# (CI's crash-restart job) can aim a real ``kill -9`` at it.
COORD_PIDFILE_ENV = "PODS_DIST_COORD_PIDFILE"

# The node frames that are reports for the supervision core.
_REPORTS = ("started", "done", "result", "err", "peer-lost")


class _Supervisor:
    """The coordinator's asyncio half: registration through teardown.

    The supervision core's shell: what a report, a loss or the passing
    of time means is ``self.core``'s to decide.  With ``standby=True``
    this is the *promoted* supervisor: registration waits for the
    running nodes to rejoin and keeps their resync payloads, from which
    the core is rebuilt; it never arms ``coord-kill`` clauses.
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
        self.core = Supervision(self.n, cfg.retry, respawns=0, hosted=True,
                                timeout_s=cfg.timeout_s, unit="node",
                                now=time.monotonic())
        self.outcome = None  # the core's Abort or Finish
        self._registering = True
        self._deferred_losses: list[tuple[int, int | None]] = []
        # Standby only: the highest-generation resync's (generation,
        # owners, live), and every report kept for the core meanwhile.
        self._vote: tuple = (0, None, None)
        self._absorbed: list[tuple[int, dict]] = []
        self._ckpt_pending: set[int] = set()
        # array id -> (dims, {offset: value}); a monotone union across
        # rounds — single assignment makes mixed-time replies a cut.
        self._ckpt_acc: dict[int, tuple[tuple, dict]] = {}
        self._secret = frame_secret()
        self.conns: dict[int, asyncio.StreamWriter] = {}
        self.ports: dict[int, int] = {}
        self.last_hb: dict[int, float] = {}
        self.segments: dict[int, Any] = {}
        self.collect_pending: set[int] = set()
        self.byes: dict[int, dict] = {}
        self.finishing = False
        self.kick = asyncio.Event()
        self._conn_tasks: set[asyncio.Task] = set()
        self.server = None

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
            if isinstance(self.outcome, Abort):
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
                live = self._vote[2]
                expected = {node for node in self.expect if node not in dead
                            and (live is None or node in live)}
            else:
                expected = set(range(self.n))
            if expected <= set(self.conns):
                return
            if isinstance(self.outcome, Abort):
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
                    recovery=self.core.log)
            await self._wait_kick()

    def _assume_command(self) -> None:
        """Promoted standby takes over: a core rebuilt from the resyncs.

        The highest-generation owner map and live set seed the core one
        generation on, and are re-broadcast; every remembered report
        (``started`` records included) is replayed — twice is
        idempotent; node deaths that raced the failover come last, so a
        loss the old coordinator already healed is not healed twice.
        """
        generation, owners, live = self._vote
        self.core.resume(time.monotonic(), owners, live, generation,
                         self.conns)
        self._broadcast({"t": "ownermap", "owners": self.core.owners,
                         "live": sorted(self.core.live),
                         "gen": self.core.generation})
        for node, msg in self._absorbed:
            self._report(node, msg)
        for node, exitcode in self._deferred_losses:
            self._report_exit(node, exitcode)
        self._absorbed.clear()
        self._deferred_losses.clear()

    def _broadcast_start(self) -> None:
        peers = {str(node): [self.cfg.host, self.ports[node]]
                 for node in range(self.n)}
        self._broadcast({"t": "start", "peers": peers,
                         "owners": self.core.owners,
                         "live": sorted(self.core.live)})
        now = time.monotonic()
        for node in range(self.n):
            self._apply(self.core.started(now, node, node, (node,), 1))

    async def _supervise(self) -> None:
        while self.outcome is None:
            now = time.monotonic()
            if (self.ckpt is not None and not self._ckpt_pending
                    and self.core.live and self.ckpt.due(now)):
                self._ckpt_pending = set(self.core.live)
                self._broadcast({"t": "ckpt"})
            self._apply(self.core.tick(now))
            for node in sorted(self.core.live):
                hb = self.last_hb.get(node)
                if hb is not None and \
                        now - hb > self.cfg.heartbeat_timeout_s:
                    self._lose(node, reasons.HEARTBEAT_SILENCE, None,
                               f"{now - hb:.2f}s silent (threshold "
                               f"{self.cfg.heartbeat_timeout_s:g}s)")
            if self.outcome is None:
                await self._wait_kick(
                    self.ckpt.next_due() if self.ckpt is not None
                    and not self._ckpt_pending else float("inf"))

    async def _finish_value(self) -> Any:
        status, payload = self.outcome.result
        if status != "array":
            return payload
        seq, dims = payload[0], tuple(payload[1])
        self.segments = {}
        self.collect_pending = set(self.core.live)
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
                    recovery=self.core.log)
            await self._wait_kick()
        total = 1
        for d in dims:
            total *= d
        flat = [self.segments.get(i) for i in range(total)]
        return ArrayValue(dims, flat)

    async def _graceful_shutdown(self) -> None:
        self.finishing = True
        expected = set(self.core.live)
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
        """Keep a rejoining node's memory of the dead epoch.

        The highest generation any survivor saw wins the owner-map /
        live-set vote (later broadcasts strictly supersede earlier
        ones); its remembered reports wait for :meth:`_assume_command`.
        """
        generation = int(resync.get("gen", 1))
        if generation > self._vote[0]:
            self._vote = (generation, resync.get("owners"),
                          resync.get("live"))
        self._absorbed.extend((int(report.get("node", node)), report)
                              for report in resync.get("reports", ()))

    def _on_msg(self, node: int, msg: dict) -> None:
        t = msg.get("t")
        if t in ("hb", "done", "result"):
            self.kill.fire(t)
        if t == "hb":
            self.last_hb[node] = time.monotonic()
            return
        if t in _REPORTS:
            if self._registering and self.standby:
                self._absorbed.append((node, msg))
            else:
                self._report(node, msg)
        elif t == "bye":
            self.byes[node] = msg.get("netstats") or {}
        elif node not in self.core.live:
            return  # a fenced zombie's state
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
        self.kick.set()

    def _report(self, node: int, msg: dict) -> None:
        """Hand one of ``node``'s reports to the core."""
        t, now = msg["t"], time.monotonic()
        if self.finishing:
            return
        if t == "peer-lost":
            self._lose(msg["peer"], msg["reason"], None,
                       f"unreachable from node {node}: {msg['detail']}",
                       reporter=node)
        elif t == "started":
            self._apply(self.core.started(now, node, msg["slot"],
                                          msg["identities"], msg["gen"]))
        else:
            payload = {"done": msg.get("telemetry"), "result": msg.get("v"),
                       "err": (msg.get("code"), msg.get("detail"))}[t]
            self._apply(self.core.report(now, node, msg.get("slot", node),
                                         msg.get("gen", 1), t, payload))

    def _sentinel_fired(self, node: int) -> None:
        loop = asyncio.get_running_loop()
        try:
            loop.remove_reader(self.procs[node].sentinel)
        except Exception:
            pass
        if self.finishing:
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
        self._lose(node, reasons.PROCESS_EXIT, exitcode,
                   f"exitcode {'?' if exitcode is None else exitcode}")

    def _lose(self, node: int, reason: str, exitcode: int | None,
              detail: str, reporter: int | None = None) -> None:
        if not self.finishing:
            self._apply(self.core.lost(
                time.monotonic(), node,
                reasons.failure_kind(reason, exitcode), exitcode,
                reasons.reason_string(reason, detail), reporter))

    def _apply(self, actions: list) -> None:
        """Carry out what the core decided."""
        for act in actions:
            if isinstance(act, Fence):
                self._ckpt_mark(act.member)  # must not stall a round
            elif not isinstance(act, Start):
                self.outcome = act
        for node, msg in control_frames(self.core, actions):
            self._send(node, msg)
        if actions:
            self.kick.set()

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
        arrays = [(aid, dims, vals)
                  for aid, (dims, vals) in sorted(self._ckpt_acc.items())]
        try:
            self.ckpt.snapshot(arrays, now=time.monotonic())
        except OSError:  # pragma: no cover - disk trouble is best-effort
            pass

    async def _ckpt_final(self) -> None:
        """One synchronous round so the checkpoint covers the result."""
        if not self.core.live:
            return
        self._ckpt_pending = set(self.core.live)
        self._broadcast({"t": "ckpt"})
        deadline = time.monotonic() + self.cfg.connect_timeout_s
        while self._ckpt_pending and time.monotonic() < deadline:
            await self._wait_kick()
        if self._ckpt_pending:  # write what we have anyway
            self._ckpt_pending.clear()
            self._ckpt_flush()

    # -- error / result assembly -----------------------------------------

    def _build_error(self) -> DistExecutionError:
        outcome = self.outcome
        cls = NodeLossError if outcome.member_lost else DistExecutionError
        return cls.unrecovered(list(outcome.failures), self.core.log,
                               outcome.message, self.cfg.timeout_s)

    def _build_result(self, value: Any, t_start: float) -> SpmdResult:
        netstats = NetStats()
        for counters in self.byes.values():
            netstats.add(counters)
        return fold_results(
            value, time.perf_counter() - t_start, self.core.completed,
            self.n, self.core.log, self.ckpt, self.restore, who="node",
            spin_cause="remote-read", netstats=netstats)

    # -- plumbing --------------------------------------------------------

    async def _wait_kick(self, until: float = float("inf")) -> None:
        wait_s = min(self.cfg.poll_interval_s, until - time.monotonic())
        try:
            await asyncio.wait_for(self.kick.wait(), max(wait_s, 0.001))
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
        for node in sorted(self.core.live):
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
    periodic ``pods-ckpt/v2`` snapshots of the nodes' owned elements;
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
                try:
                    sock.close()
                except OSError:
                    pass
        restore_sigterm()
