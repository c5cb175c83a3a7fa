"""The PODS multiprocessor simulator (paper Section 5.1, Figure 7).

A discrete-event, instruction-level simulation of 1..N iPSC/2-style PEs.
Each PE has five logical units, and an event queue joins them.  A unit
is a module of plain functions over the machine ``M`` and a PE,
scheduled as events ``fn(M, pe, ...)``: the Execution Unit
(:mod:`repro.sim.decode`, with its instruction handlers), the Matching
Unit with the Memory Manager's frame operations (:mod:`repro.sim.mu`),
the Array Manager (:mod:`repro.sim.am`) and the Routing Unit with the
network (:mod:`repro.sim.ru`).  :class:`Machine` holds what they share:
the event loop and ``schedule``, the sequential-server model of a unit's
service time (``_serve``), the injected PE faults, the no-progress
diagnosis, and the gather of an array for the result and the checkpoint.

Determinism: the event queue breaks ties by insertion sequence, so a run
is a pure function of (program, args, config).  With ``jitter_seed`` set,
message deliveries get deterministic pseudo-random extra delays — results
must not change (the Church-Rosser property), only timings.

The EU is simulated in *chunks*: it executes instructions inline,
advancing a local clock, and yields whenever an earlier event is pending
in the global queue, so cross-unit causality is exact at instruction
granularity.  Each PE's step is compiled once, when the machine is built
(:func:`repro.sim.decode.compile_eu`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any

from repro.common.config import SimConfig
from repro.common.errors import (
    DeadlockError,
    ExecutionError,
    LivelockError,
    PEHaltError,
)
from repro.runtime.tokens import (
    AllocRequestMsg,
    BroadcastTokensMsg,
    MatchToken,
    PageResponseMsg,
    ReadRequestMsg,
    RemoteWriteMsg,
    ReturnAddress,
    TokenBatchMsg,
    ValueResponseMsg,
)
from repro.runtime.values import ArrayId, ArrayValue
from repro.sim import am, decode, mu, ru
from repro.sim.mu import ROOT_UID, UNSET
from repro.sim.pe import PE
from repro.sim.stats import UNITS, RunStats
from repro.translator import isa


@dataclass
class RunResult:
    """Outcome of one simulated run."""

    value: Any
    stats: RunStats
    ckpt: dict | None = None  # checkpoint/restore summary, None when off

    @property
    def finish_time_us(self) -> float:
        return self.stats.finish_time_us


class Machine:
    """One simulated PODS multiprocessor executing one program."""

    # The unit function that receives each message, ``receive(M, msg)``,
    # scheduled for its arrival time by the wire (``ru.transmit``).
    receivers = {
        TokenBatchMsg: ru.receive_batch,
        BroadcastTokensMsg: ru.receive_bcast,
        ReadRequestMsg: am.read_request,
        PageResponseMsg: am.page_response,
        ValueResponseMsg: am.value_response,
        RemoteWriteMsg: am.receive_write,
        AllocRequestMsg: am.receive_alloc,
    }

    def __init__(self, program: isa.PodsProgram, config: SimConfig | None = None,
                 ckpt=None, restore=None, faults=None):
        self.program = program
        self.config = config or SimConfig()
        # Durable execution (repro.ckpt): both default to None and every
        # hook site pays one identity check, so a run without
        # checkpointing is byte-identical to one on a build without it.
        # ``ckpt`` is a CkptWriter paced by its spec's ``every_events``
        # (read once, in ``run``); ``restore`` is a CkptRestore whose
        # elements are seeded at header-install time (allocation ordinal
        # == array id — ids are issued sequentially).
        self._ckpt = ckpt
        self._restore = restore
        self._replay = restore is not None
        self.replayed_present = 0
        self.mc = self.config.machine
        self.pes = [PE(pid) for pid in range(self.mc.num_pes)]
        self.frames: dict = {}  # uid -> Frame, every SP not yet ended
        self.now = 0.0
        self.result: Any = UNSET
        self.late_tokens = 0
        self.events_processed = 0

        # Event queue: one heap entry ``(time, seq, fn, args)`` per
        # event.  ``seq`` is a machine-wide schedule counter, so equal
        # times run in schedule order whoever scheduled them.
        self._queue: list = []
        self._seq = 0
        self._next_frame_uid = ROOT_UID + 1
        self._next_array_id = 1
        self._inputs = {bid: t.inputs for bid, t in program.templates.items()}
        self._is_function = {bid: t.kind == "function"
                             for bid, t in program.templates.items()}
        # The EU's instruction store: one handler table per template,
        # compiled once per machine (repro.sim.decode).
        self._dcode = decode.decode_program(program)
        self._spawn_rr = 0
        self.max_live_frames = 0
        self._rng = (random.Random(self.config.jitter_seed)
                     if self.config.jitter_seed is not None else None)
        # Observability is opt-in and zero-cost when off: with the
        # default config ``log`` stays None and each hook site pays one
        # identity check.  On, each site makes one call into the run's
        # span log (repro.obs.spanlog), which keeps what ObsConfig asks.
        self.log = None
        if self.config.obs.enabled:
            from repro.obs.spanlog import SpanLog

            self.log = SpanLog(self.mc.num_pes, self.config.obs)
        # One compiled Execution Unit per PE, built after the hooks it
        # closes over.
        for pe in self.pes:
            pe.eu_step = decode.compile_eu(self, pe)

        # Network fault model + reliable delivery (repro.sim.netfaults /
        # repro.sim.reliable).  Everything stays None on the default
        # config: a fault-free run pays one `is None` check in ru.transmit
        # and is byte-identical to the pre-fault-model simulator.
        # ``faults`` is a parsed SimFaultPlan whose clauses address PEs
        # this machine has (``Backend.fault_plan`` checks both).
        from repro.sim.netfaults import NetFaultInjector, SimFaultPlan

        plan = faults or SimFaultPlan()
        reliable_on = (self.config.reliable if self.config.reliable
                       is not None else bool(plan))
        self._net = None
        self._injector = None
        if reliable_on:
            from repro.sim.reliable import ReliableNet

            self._net = ReliableNet()
            self._injector = NetFaultInjector(plan)
        self._halted: list[int] = []   # pids halted so far (arm order)
        self._last_progress_us = 0.0
        self._finish_us = 0.0
        for f in plan.pe_faults():
            if f.action == "pe-halt":
                self.schedule(f.at, self._pe_halt, self.pes[f.pe])
            else:
                self.schedule(f.at, self._pe_degrade, self.pes[f.pe],
                              f.factor)

    # ------------------------------------------------------------------
    # event queue
    # ------------------------------------------------------------------

    def schedule(self, time: float, fn, *args) -> None:
        self._seq = seq = self._seq + 1
        heappush(self._queue, (time, seq, fn, args))

    def _serve(self, pe: PE, unit: str, cost: float) -> float:
        """Sequential-server model: occupy the unit for ``cost`` us."""
        if pe.degrade != 1.0:
            cost *= pe.degrade
        free = pe.free
        start = free[unit]
        if start < self.now:
            start = self.now
        done = free[unit] = start + cost
        pe.stats.busy[unit] += cost
        if self.log is not None:
            self.log.busy[pe.pid][unit](start, done)
        return done

    # ------------------------------------------------------------------
    # running a program
    # ------------------------------------------------------------------

    def run(self, args: tuple = ()) -> RunResult:
        if len(args) != self.program.arity:
            raise ExecutionError(
                f"{self.program.name} expects {self.program.arity} "
                f"argument(s), got {len(args)}"
            )
        self._spawn_entry(args)

        queue = self._queue
        limit = self.config.max_events
        wall = self.config.max_sim_time_us
        net = self._net
        # Reliable-delivery housekeeping (retransmit timers, acks on the
        # wire and arriving) trails behind the last *productive* event;
        # finish-time and progress tracking must not credit it, or
        # recovered faults would inflate finish_time_us past the real
        # computation and the quiescence detector could never fire.
        timers = (ru.net_check, ru.ack_receive)
        transmit = ru.transmit
        every = self._ckpt.spec.every_events if self._ckpt is not None else 0
        events = self.events_processed
        try:
            while queue:
                self.now, _, fn, fargs = heappop(queue)
                events += 1
                if events > limit:
                    raise ExecutionError(
                        f"event limit {limit} exceeded at "
                        f"t={self.now:.1f} us (runaway program?)"
                    )
                if wall is not None and self.now > wall:
                    if self.result is UNSET or self.frames:
                        raise self._stuck_error(
                            f"simulated time crossed max_sim_time_us="
                            f"{wall:g} us")
                    break  # complete; abandon trailing housekeeping
                if net is not None and fn not in timers and not (
                        fn is transmit and fargs[2].kind == "ack"):
                    self._finish_us = self._last_progress_us = self.now
                fn(*fargs)
                if every and events % every == 0:
                    self._ckpt_snapshot()
        finally:
            self.events_processed = events

        if self.result is UNSET or self.frames:
            raise self._stuck_error(None)

        finish = self._finish_us if net is not None else self.now
        if self._ckpt is not None:
            self._ckpt_snapshot()
        log = self.log
        registry = breakdown = None
        if log is not None:
            if log.sps is not None:
                from repro.obs.critpath import pe_wait_breakdown

                breakdown = pe_wait_breakdown(log, finish)
            if log.metrics:
                from repro.obs.spanlog import build_registry

                registry = build_registry(
                    log, [pe.stats for pe in self.pes], UNITS, finish,
                    net=net, wait_breakdown=breakdown)
        ckpt_info = None
        if self._ckpt is not None or self._restore is not None:
            from repro.ckpt.format import run_summary

            ckpt_info = run_summary(self._ckpt, self._restore, registry)
        stats = RunStats(
            num_pes=self.mc.num_pes,
            finish_time_us=finish,
            pe_stats=[pe.stats for pe in self.pes],
            events_processed=self.events_processed,
            max_live_frames=self.max_live_frames,
            log=log,
            registry=registry,
            wait_breakdown=breakdown,
            netstats=net.stats if net is not None else None,
            still_blocked=[line for pe in self.pes
                           for line in pe.describe_blocked()],
        )
        value = self.result
        if isinstance(value, ArrayId):
            value = self.read_array(value)
        return RunResult(value=value, stats=stats, ckpt=ckpt_info)

    def _spawn_entry(self, args: tuple) -> None:
        pe0 = self.pes[0]
        ctx = ("root",)
        block = self.program.entry_block
        for i, value in enumerate(args):
            self.schedule(0.0, mu.enqueue, self, pe0,
                          MatchToken(block, ctx, i, value))
        raddr = ReturnAddress(0, ROOT_UID, 0)
        self.schedule(0.0, mu.enqueue, self, pe0,
                      MatchToken(block, ctx, len(args), raddr))

    def read_array(self, aid: ArrayId) -> ArrayValue:
        """Gather a distributed array into host memory (absent -> None)."""
        header, cells = self._gather(aid.id)
        if header is None:
            raise ExecutionError(f"unknown array {aid}")
        flat: list[Any] = [None] * header.total_elements
        for off, val in cells.items():
            flat[off] = val
        return ArrayValue(header.dims, flat)

    def _gather(self, aid: int):
        """Array ``aid``'s header and its present elements, offset ->
        value, merged over the PEs' segments (each holds its dealt
        subrange); ``(None, {})`` for an array no PE knows."""
        header, cells = None, {}
        for pe in self.pes:
            seg = pe.segments.get(aid)
            if seg is not None:
                if header is None:
                    header = pe.headers[aid]
                cells.update(seg.items())
        return header, cells

    # ------------------------------------------------------------------
    # PE faults + the no-progress diagnosis
    # ------------------------------------------------------------------

    def _pe_halt(self, pe: PE) -> None:
        pe.halted = True
        self._halted.append(pe.pid)
        if self.log is not None:
            self.log.instant(self.now, pe.pid, "pe-halt",
                             f"PE {pe.pid} halted (injected fault)")

    def _pe_degrade(self, pe: PE, factor: float) -> None:
        pe.degrade *= factor
        if self.log is not None:
            self.log.instant(self.now, pe.pid, "pe-degrade",
                             f"PE {pe.pid} degraded x{pe.degrade:g} "
                             "(injected fault)")

    def _stuck_error(self, why: str | None, halted_pe: int | None = None):
        """The error of a machine that stopped making progress: a
        ``PEHaltError`` when a halted PE (``halted_pe``, else the first
        to halt) is the cause, else ``why``'s ``LivelockError``, or — with
        no ``why`` — the ``DeadlockError`` of a machine gone idle.  Each
        names the blocked SPs and deferred reads and the channels still
        holding messages."""
        blocked = [line for pe in self.pes for line in pe.describe_blocked()]
        net = self._net
        channels = net.describe_pending() if net is not None else []
        last = self._last_progress_us if net is not None else None
        if halted_pe is None and self._halted:
            halted_pe = self._halted[0]
        if halted_pe is not None:
            return PEHaltError(halted_pe, blocked, channels, self.now, last)
        if why is not None:
            return LivelockError(why, blocked, channels, self.now, last)
        what = ("program produced no result" if self.result is UNSET
                else f"{len(self.frames)} SP(s) never completed")
        return DeadlockError(
            f"machine went idle at t={self.now:.1f} us but {what}",
            blocked, channels, last)

    def _ckpt_snapshot(self) -> None:
        """Persist one event-boundary checkpoint of every array.

        No coordination with in-flight events is needed: presence bits
        are monotone, so the per-PE segment contents at any event
        boundary form a consistent cut.  The array id doubles as the
        allocation ordinal because ids are issued sequentially from 1.
        """
        arrays = []
        for aid in sorted({aid for pe in self.pes for aid in pe.segments}):
            header, cells = self._gather(aid)
            arrays.append((aid, header.dims, cells))
        try:
            self._ckpt.snapshot(arrays)
        except OSError:  # pragma: no cover - disk trouble
            pass


def run_program(program: isa.PodsProgram, args: tuple = (),
                config: SimConfig | None = None,
                ckpt=None, restore=None) -> RunResult:
    """Convenience: build a machine and run ``program`` once."""
    return Machine(program, config, ckpt=ckpt, restore=restore).run(args)
