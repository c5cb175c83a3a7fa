"""The PODS multiprocessor simulator (paper Section 5.1, Figure 7).

A discrete-event, instruction-level simulation of 1..N iPSC/2-style PEs.
Each PE has five logical units:

* **Execution Unit (EU)** — runs the current SP control-driven, using the
  measured 80386/80387 instruction times; context-switches (1.312 us)
  when an operand slot is absent; array accesses cost the 2.7 us offset
  computation and are handed to the AM.
* **Matching Unit (MU)** — 15 us hash lookup per inter-SP token; creates
  the SP instance when the first token of a new context arrives.
* **Memory Manager (MM)** — 0.9 us frame allocate/release.
* **Array Manager (AM)** — I-structure reads/writes, split-phase remote
  reads with page-grain caching, the distributing allocate broadcast.
* **Routing Unit (RU)** — batches tokens (19.5 us each, groups of 20)
  and forms array messages; delivery latency follows Dunigan's iPSC/2
  model plus 2.5 us average propagation.

Determinism: the event queue breaks ties by insertion sequence, so a run
is a pure function of (program, args, config).  With ``jitter_seed`` set,
message deliveries get deterministic pseudo-random extra delays — results
must not change (the Church-Rosser property), only timings.

The EU is simulated in *chunks*: it executes instructions inline,
advancing a local clock, and yields whenever an earlier event is pending
in the global queue, so cross-unit causality is exact at instruction
granularity.  Each PE's step is compiled once, when the machine is built
(:meth:`Machine._compile_eu`).
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
    SingleAssignmentViolation,
)
from repro.runtime.arrays import ArrayHeader
from repro.runtime.frames import BLOCKED, DONE, READY, RUNNING, Frame
from repro.runtime.istructure import ABSENT as CELL_ABSENT
from repro.runtime.istructure import IStructureSegment
from repro.runtime.tokens import (
    AckMsg,
    AllocRequestMsg,
    BroadcastTokensMsg,
    MatchToken,
    PageResponseMsg,
    ReadRequestMsg,
    RemoteWriteMsg,
    ReturnAddress,
    SeqMsg,
    TokenBatchMsg,
    ValueResponseMsg,
)
from repro.runtime.values import ArrayId, ArrayValue
from repro.sim import timing as T
from repro.sim.decode import decode_program
from repro.sim.pe import PE
from repro.sim.stats import UNITS, RunStats
from repro.translator import isa

ROOT_UID = 0
_UNSET = object()

# Message class -> fault-plan ``kind`` qualifier (repro.sim.netfaults).
_MSG_KIND = {
    TokenBatchMsg: "token",
    BroadcastTokensMsg: "bcast",
    ReadRequestMsg: "read",
    PageResponseMsg: "page",
    ValueResponseMsg: "value",
    RemoteWriteMsg: "write",
    AllocRequestMsg: "alloc",
}


@dataclass
class RunResult:
    """Outcome of one simulated run."""

    value: Any
    stats: RunStats
    ckpt: dict | None = None  # checkpoint/restore summary, None when off

    @property
    def finish_time_us(self) -> float:
        return self.stats.finish_time_us

    @property
    def finish_time_s(self) -> float:
        return self.stats.finish_time_us / 1e6


class Machine:
    """One simulated PODS multiprocessor executing one program."""

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
        self.frames: dict[int, Frame] = {}
        self.now = 0.0
        self.result: Any = _UNSET
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
        self._dcode = decode_program(program)
        self._spawn_rr = 0
        self.max_live_frames = 0
        self._rng = (random.Random(self.config.jitter_seed)
                     if self.config.jitter_seed is not None else None)
        # Observability is opt-in and zero-cost when off: with the
        # default config both attributes stay None and the event loop
        # pays one identity check per hook site.
        obs_cfg = self.config.obs
        self.tracer = None
        if obs_cfg.trace:
            from repro.sim.trace import Tracer

            self.tracer = Tracer(limit=obs_cfg.trace_limit,
                                 mode=obs_cfg.trace_mode)
        self.obs = None
        if obs_cfg.metrics or obs_cfg.timelines or obs_cfg.waits:
            from repro.obs.recorder import ObsRecorder

            self.obs = ObsRecorder(self.mc.num_pes,
                                   timelines=obs_cfg.timelines,
                                   metrics=obs_cfg.metrics,
                                   waits=obs_cfg.waits)
        # Wait-state hooks check this one attribute on the hot path, then
        # write the SP's record directly (``_waits.sps[uid]``).
        self._waits = self.obs.waits if self.obs is not None else None
        # Busy-span hooks: None when no timelines are recorded (a
        # metrics-only run pays one identity check per span), else per
        # PE a {unit: UnitTimeline.add} bound once, here.
        self._span_adds = None
        if self.obs is not None and self.obs.timelines is not None:
            store = self.obs.timelines
            self._span_adds = [{unit: store.adder(pe.pid, unit)
                                for unit in UNITS} for pe in self.pes]
        # One compiled Execution Unit per PE, built after the hooks it
        # closes over.
        for pe in self.pes:
            pe.eu_step = self._compile_eu(pe)

        # Network fault model + reliable delivery (repro.sim.netfaults /
        # repro.sim.reliable).  Everything stays None on the default
        # config: a fault-free run pays one `is None` check in _transmit
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
        if self._span_adds is not None:
            self._span_adds[pe.pid][unit](start, done)
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
        # Reliable-delivery housekeeping (retransmit checks, ack flights)
        # trails behind the last *productive* event; finish-time and
        # progress tracking must not credit it, or recovered faults would
        # inflate finish_time_us past the real computation and the
        # quiescence detector could never fire.
        maintenance = ((self._net_check, self._net_transmit_ack,
                        self._net_ack_receive) if net is not None else ())
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
                    if self.result is _UNSET or self.frames:
                        raise self._stuck_error(
                            f"simulated time crossed max_sim_time_us="
                            f"{wall:g} us")
                    break  # complete; abandon trailing housekeeping
                if net is not None and fn not in maintenance:
                    self._finish_us = self._last_progress_us = self.now
                fn(*fargs)
                if every and events % every == 0:
                    self._ckpt_snapshot()
        finally:
            self.events_processed = events

        if self.result is _UNSET or self.frames:
            blocked: list[str] = []
            for pe in self.pes:
                blocked.extend(pe.describe_blocked())
            channels = net.describe_pending() if net is not None else []
            if self._halted:
                raise PEHaltError(
                    self._halted[0], blocked, channels, self.now,
                    self._last_progress_us)
            what = ("program produced no result"
                    if self.result is _UNSET
                    else f"{len(self.frames)} SP(s) never completed")
            raise DeadlockError(
                f"machine went idle at t={self.now:.1f} us but {what}",
                blocked, channels,
                self._last_progress_us if net is not None else None,
            )

        finish = self._finish_us if net is not None else self.now
        if self._ckpt is not None:
            self._ckpt_snapshot(final=True)
        timelines = registry = waits = breakdown = None
        if self.obs is not None:
            timelines = self.obs.timelines
            waits = self.obs.waits
            if waits is not None:
                from repro.obs.critpath import pe_wait_breakdown

                breakdown = pe_wait_breakdown(waits, timelines,
                                              self.mc.num_pes, finish)
            if self.obs.metrics:
                registry = self.obs.build_registry(
                    [pe.stats for pe in self.pes], UNITS, finish,
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
            timelines=timelines,
            registry=registry,
            waits=waits,
            wait_breakdown=breakdown,
            netstats=net.stats if net is not None else None,
            trace=self.tracer,
            still_blocked=[line for pe in self.pes
                           for line in pe.describe_blocked()],
        )
        return RunResult(value=self._materialize(self.result), stats=stats,
                         ckpt=ckpt_info)

    def _spawn_entry(self, args: tuple) -> None:
        pe0 = self.pes[0]
        ctx = ("root",)
        block = self.program.entry_block
        for i, value in enumerate(args):
            self.schedule(0.0, self._mu_enqueue, pe0,
                          MatchToken(block, ctx, i, value))
        raddr = ReturnAddress(0, ROOT_UID, 0)
        self.schedule(0.0, self._mu_enqueue, pe0,
                      MatchToken(block, ctx, len(args), raddr))

    def _materialize(self, value: Any) -> Any:
        if not isinstance(value, ArrayId):
            return value
        return self.read_array(value)

    def read_array(self, aid: ArrayId) -> ArrayValue:
        """Gather a distributed array into host memory (absent -> None)."""
        header = None
        for pe in self.pes:
            header = pe.headers.get(aid.id)
            if header is not None:
                break
        if header is None:
            raise ExecutionError(f"unknown array {aid}")
        flat: list[Any] = [None] * header.total_elements
        for pe in self.pes:
            seg = pe.segments.get(aid.id)
            if seg is not None:
                for off, val in seg.items():
                    flat[off] = val
        return ArrayValue(header.dims, flat)

    # ------------------------------------------------------------------
    # Matching Unit
    # ------------------------------------------------------------------

    def _mu_enqueue(self, pe: PE, token) -> None:
        if pe.halted:
            return
        done = self._serve(pe, "MU", T.MATCH_TOKEN)
        self.schedule(done, self._mu_deliver, pe, token)

    def _mu_deliver(self, pe: PE, token) -> None:
        if pe.halted:
            return
        pe.stats.tokens_matched += 1
        if self.tracer is not None:
            self.tracer.record(self.now, pe.pid, "token-match", repr(token),
                               unit="MU")
        if isinstance(token, MatchToken):
            key = (token.block_id, token.ctx)
            frame = pe.match_table.get(key)
            if frame is None:
                frame = self._create_frame(pe, token.block_id, token.ctx)
                pe.match_table[key] = frame
                frame.inputs_received += 1
                slot = self._inputs[token.block_id][token.input_index]
                frame.put(slot, token.value)
                pe.ready.append(frame)
                self._kick_eu(pe)
            else:
                frame.inputs_received += 1
                if frame.status == DONE:
                    # Tombstone: the SP finished before this straggler
                    # arrived; drop it and retire the entry once complete.
                    self.late_tokens += 1
                    if frame.inputs_received >= frame.inputs_expected:
                        pe.match_table.pop(key, None)
                    return
                slot = self._inputs[token.block_id][token.input_index]
                self._put_slot(pe, frame, slot, token.value,
                               "token-wait", token.src_sp)
        else:  # DirectToken
            if token.frame_uid == ROOT_UID:
                self.result = token.value
                if self._waits is not None:
                    self._waits.result(self.now, token.src_sp)
                return
            frame = self.frames.get(token.frame_uid)
            if frame is None or frame.status == DONE:
                self.late_tokens += 1
                return
            self._put_slot(pe, frame, token.slot, token.value,
                           "token-wait", token.src_sp)

    def _create_frame(self, pe: PE, block_id: int, ctx: tuple) -> Frame:
        template = self.program.templates[block_id]
        uid = self._next_frame_uid
        self._next_frame_uid += 1
        frame = Frame(uid, block_id, ctx, pe.pid, template.num_slots,
                      name=template.name,
                      inputs_expected=len(template.inputs))
        frame.code = self._dcode[block_id]
        self.frames[uid] = frame
        self._serve(pe, "MM", T.MM_FRAME_OP)
        pe.stats.frames_created += 1
        pe.live_frames += 1
        if pe.live_frames > self.max_live_frames:
            self.max_live_frames = pe.live_frames
        if self.tracer is not None:
            self.tracer.record(self.now, pe.pid, "frame-create",
                               f"{frame.name} uid={uid} ctx={ctx}",
                               unit="MM", sp=uid)
        if self._waits is not None:
            parent = ctx[0] if ctx and isinstance(ctx[0], int) else None
            self._waits.sp_create(pe.pid, uid, self.now, parent, frame.name)
        return frame

    def _put_slot(self, pe: PE, frame: Frame, slot: int, value: Any,
                  cause: str = "net-queue", src: int | None = None) -> None:
        if frame.status == DONE:
            self.late_tokens += 1
            return
        woke = frame.put(slot, value)
        if woke:
            if self._waits is not None:
                self._waits.sps[frame.uid].wake(self.now, cause, src)
            frame.make_ready()
            pe.ready.append(frame)
        if pe.suspended_on == (frame.uid, slot):
            pe.suspended_on = None
            if self._waits is not None:
                self._waits.pe_stall_end(pe.pid, self.now)
            self._resume_eu(pe)
        elif woke:
            self._kick_eu(pe)

    def _deliver_waiter(self, waiter: ReturnAddress, value: Any,
                        cause: str = "net-queue",
                        src: int | None = None) -> None:
        if self._halted and self.pes[waiter.pe].halted:
            return
        if waiter.frame_uid == ROOT_UID:
            self.result = value
            if self._waits is not None:
                self._waits.result(self.now, src)
            return
        frame = self.frames.get(waiter.frame_uid)
        if frame is None:
            self.late_tokens += 1
            return
        self._put_slot(self.pes[waiter.pe], frame, waiter.slot, value,
                       cause, src)

    # ------------------------------------------------------------------
    # Execution Unit
    # ------------------------------------------------------------------

    def _kick_eu(self, pe: PE) -> None:
        if (pe.running is None and not pe.eu_scheduled and pe.ready
                and pe.suspended_on is None):
            pe.eu_scheduled = True
            self.schedule(max(self.now, pe.eu_time), pe.eu_step, self, pe)

    def _resume_eu(self, pe: PE) -> None:
        if pe.eu_scheduled:
            return
        if pe.running is not None or pe.ready:
            pe.eu_scheduled = True
            self.schedule(max(self.now, pe.eu_time), pe.eu_step, self, pe)

    def _compile_eu(self, pe: PE):
        """Build ``pe``'s Execution Unit step, once per machine.

        ``step(machine, pe)`` runs the PE's EU until it idles, blocks the
        PE, or must yield to an earlier pending event.  Everything that
        cannot change during a run is a closure cell: the queue, the
        PE's stats and ready deque, the obs hooks, the context-switch
        cost.  What a fault or another unit can change between steps
        (``halted``, ``suspended_on``, ``degrade``, ``running``,
        ``eu_time``) is read from the PE on every step.  The machine and
        the PE arrive as the event's arguments, not as cells: a step
        that closed over them would tie every finished machine, arrays
        and all, into a reference cycle.

        Instructions dispatch through the frame's handler table
        (:mod:`repro.sim.decode`).  ``pe.degrade`` can only change in a
        ``_pe_degrade`` event, which cannot run mid-step, so it is read
        once per step, outside the instruction loop.
        """
        queue = self._queue
        span = (self._span_adds[pe.pid]["EU"]
                if self._span_adds is not None else None)
        sps = self._waits.sps if self._waits is not None else None
        stats = pe.stats
        busy = stats.busy
        ready = pe.ready
        switch = T.CONTEXT_SWITCH

        def eu_step(M, pe) -> None:
            pe.eu_scheduled = False
            # An SP carried over a yield keeps its run segment open: a
            # resume at the yield instant continues it (what closing and
            # reopening records, since ``SpRecord`` merges a run piece
            # that starts where the last one ended).  It is closed at the
            # yield, ``pe.eu_time``, only when something came between.
            frame = pe.running
            if pe.halted or pe.suspended_on is not None:
                if pe.halted and sps is not None and frame is not None:
                    sps[frame.uid].run_end(pe.eu_time)
                return
            now = M.now
            t = pe.eu_time
            if now > t:
                if sps is not None and frame is not None:
                    # Resumed after a blocking-read suspension.
                    rec = sps[frame.uid]
                    rec.run_end(t)
                    rec.run_begin(now)
                t = now
            # Inside one EU step the local clock advances only by busy
            # work (instruction costs and context switches), so
            # [t0, exit t] is exactly one busy interval of the EU
            # timeline.
            t0 = t
            degrade = pe.degrade

            while True:
                if frame is None:
                    if not ready:
                        pe.eu_time = t
                        if span is not None and t > t0:
                            span(t0, t)
                        return
                    frame = ready.popleft()
                    if frame.status != READY:
                        frame = None
                        continue
                    frame.status = RUNNING
                    pe.running = frame
                    if sps is not None:
                        # Ends the sched-queue wait; the context switch
                        # is charged to the SP's run time.
                        sps[frame.uid].run_begin(t)
                    t += switch
                    busy["EU"] += switch
                    stats.context_switches += 1
                    continue

                # Never simulate the EU past a pending earlier event.
                # A same-time event still to run sits in the heap at
                # ``now`` and counts exactly when ``now < t``.
                if queue and queue[0][0] < t:
                    pe.eu_scheduled = True
                    pe.eu_time = t
                    M._seq = seq = M._seq + 1
                    heappush(queue, (t, seq, pe.eu_step, (M, pe)))
                    if span is not None and t > t0:
                        span(t0, t)
                    return

                # handler -> (new_time, frame_or_None); None means the
                # frame blocked or terminated and the EU must pick
                # another SP.
                t2, frame = frame.code[frame.pc](M, pe, frame, t)
                if degrade != 1.0 and t2 > t:
                    # pe-degrade fault: the EU runs `degrade` times
                    # slower; the extra time is busy time (the unit is
                    # grinding).
                    extra = (t2 - t) * (degrade - 1.0)
                    busy["EU"] += extra
                    t2 += extra
                t = t2
                if pe.suspended_on is not None:
                    # Left open like a yield; the resume closes it.
                    pe.eu_time = t
                    if span is not None and t > t0:
                        span(t0, t)
                    return

        return eu_step

    # -- EU helpers ------------------------------------------------------

    def _block_on(self, pe: PE, frame: Frame, slot: int, t: float):
        if self.tracer is not None:
            self.tracer.record(t, pe.pid, "block",
                               f"{frame.name} uid={frame.uid} slot={slot}",
                               unit="EU", sp=frame.uid)
        frame.block_on_slot(slot)
        if self._waits is not None:
            self._waits.sps[frame.uid].block(t)
        pe.running = None
        return t, None

    def _block_on_header(self, pe: PE, frame: Frame, array_id: int, t: float):
        frame.block_on_header(array_id)
        if self._waits is not None:
            self._waits.sps[frame.uid].block(t)
        pe.header_waiters.setdefault(array_id, []).append(frame)
        pe.running = None
        return t, None

    def _eu_end(self, pe: PE, frame: Frame, t: float):
        if self.tracer is not None:
            self.tracer.record(t, pe.pid, "frame-end",
                               f"{frame.name} uid={frame.uid}",
                               unit="EU", sp=frame.uid)
        frame.status = DONE
        pe.running = None
        if self._waits is not None:
            self._waits.sps[frame.uid].end(t)
        pe.stats.frames_destroyed += 1
        pe.live_frames -= 1
        ctx = frame.ctx
        if len(ctx) == 3 and ctx[2] == "b":
            # Budget-counted child: release its parent's spawn slot.
            parent = self.frames.get(ctx[0])
            if parent is not None:
                parent.outstanding_children -= 1
                if parent.budget_blocked:
                    parent.budget_blocked = False
                    if self._waits is not None:
                        # The retiring child freed the budget slot.
                        self._waits.sps[parent.uid].wake(
                            t, "sched-queue", frame.uid)
                    parent.make_ready()
                    parent_pe = self.pes[parent.pe]
                    parent_pe.ready.append(parent)
                    self._kick_eu(parent_pe)
        self._serve(pe, "MM", T.MM_FRAME_OP)
        self.frames.pop(frame.uid, None)
        if frame.inputs_received >= frame.inputs_expected:
            pe.match_table.pop((frame.block_id, frame.ctx), None)
        # else: keep the entry as a tombstone so straggler tokens match
        # it and get dropped (see _mu_deliver).
        return t, None

    def _element_offset(self, pe: PE, frame: Frame, array_val, indices):
        """Common AREAD/AWRITE front end: header lookup + offset calc.

        Returns the flat offset, or None when the header is not yet
        installed on this PE (the allocate broadcast races with the
        distributed spawn) and the frame must block on it."""
        if not isinstance(array_val, ArrayId):
            raise ExecutionError(
                f"{frame.name} pc={frame.pc}: subscript applied to "
                f"non-array value {array_val!r}")
        header = pe.headers.get(array_val.id)
        if header is None:
            return None
        return header.offset(tuple(indices))  # may raise BoundsViolation

    def _eu_aread(self, pe: PE, frame: Frame, instr, av, argvals, t):
        offset = self._element_offset(pe, frame, av, argvals)
        if offset is None:
            return self._block_on_header(pe, frame, av.id, t)
        dst = instr.dst
        frame.present_mask &= ~(1 << dst)
        self.schedule(t + T.UNIT_SIGNAL, self._am_read, pe, av.id, offset,
                      ReturnAddress(pe.pid, frame.uid, dst))
        frame.pc += 1
        pe.stats.busy["EU"] += T.LOCAL_ARRAY_ACCESS
        return t + T.LOCAL_ARRAY_ACCESS, frame

    def _eu_awrite(self, pe: PE, frame: Frame, instr, av, bv, argvals, t):
        offset = self._element_offset(pe, frame, av, argvals)
        if offset is None:
            return self._block_on_header(pe, frame, av.id, t)
        self.schedule(t + T.UNIT_SIGNAL, self._am_write, pe, av.id,
                      offset, bv, False, frame.uid)
        frame.pc += 1
        pe.stats.busy["EU"] += T.LOCAL_ARRAY_ACCESS
        return t + T.LOCAL_ARRAY_ACCESS, frame

    def _eu_rfrange(self, pe: PE, frame: Frame, instr, av, bv, ev, argvals, t):
        if not isinstance(av, ArrayId):
            raise ExecutionError(
                f"{frame.name}: range filter on non-array {av!r}")
        header = pe.headers.get(av.id)
        if header is None:
            return self._block_on_header(pe, frame, av.id, t)
        first, last = header.filtered_range(
            pe.pid, bv, ev, descending=instr.descending,
            fixed=tuple(argvals), dim=instr.dim,
        )
        if self.tracer is not None:
            span = (f"{first}..{last}" if (last - first) * (1, -1)[
                instr.descending] >= 0 else "empty")
            self.tracer.record(t, pe.pid, "rf-range",
                               f"{frame.name} dim={instr.dim} "
                               f"fixed={list(argvals)} -> {span}",
                               unit="EU", sp=frame.uid)
        if self.obs is not None:
            step = -1 if instr.descending else 1
            items = max(0, (last - first) * step + 1)
            self.obs.rf(pe.pid, frame.name, first, last, items)
        frame._slots[instr.dst] = first
        frame._slots[instr.dst2] = last
        frame.present_mask |= (1 << instr.dst) | (1 << instr.dst2)
        frame.pc += 1
        cost = 2 * T.INT_CMP + 2 * T.INT_ADD + T.INT_MUL
        pe.stats.busy["EU"] += cost
        return t + cost, frame

    def _eu_spawn(self, pe: PE, frame: Frame, instr, argvals, t):
        budget = self.mc.spawn_budget
        counted = budget is not None and not instr.distributed
        if counted and frame.outstanding_children >= budget:
            # k-bounded run-ahead: stall until one child retires.  No
            # side effects have happened yet, so the instruction simply
            # re-executes on wake (_eu_end of a child).
            frame.status = BLOCKED
            frame.waiting_slot = None
            frame.waiting_header = None
            frame.budget_blocked = True
            if self._waits is not None:
                self._waits.sps[frame.uid].block(t)
            pe.running = None
            return t, None
        if counted:
            frame.outstanding_children += 1
            ctx = (frame.uid, frame.next_spawn_seq(), "b")
        else:
            ctx = (frame.uid, frame.next_spawn_seq())
        block = instr.block
        for rslot in instr.result_slots:
            frame.clear(rslot)
        payload = list(argvals)
        for k, rslot in enumerate(instr.result_slots):
            payload.append(ReturnAddress(pe.pid, frame.uid, rslot))

        tokens = tuple(MatchToken(block, ctx, i, value, src_sp=frame.uid)
                       for i, value in enumerate(payload))
        if instr.distributed and self.mc.num_pes > 1:
            # LD operator: replicate over all PEs via the binomial
            # spanning-tree broadcast (see BroadcastTokensMsg).
            self.schedule(t, self._bcast_tokens, pe, pe.pid, tokens)
        else:
            dst = pe.pid
            if (self.mc.function_placement == "round_robin"
                    and self.mc.num_pes > 1
                    and self._is_function.get(block, False)):
                # Functional parallelism: spread call-tree SPs over PEs.
                dst = self._spawn_rr % self.mc.num_pes
                self._spawn_rr += 1
            for token in tokens:
                self.schedule(t, self._send_token, pe, dst, token)
        cost = T.INT_ADD * max(1, len(payload))
        frame.pc += 1
        pe.stats.busy["EU"] += cost
        return t + cost, frame

    # ------------------------------------------------------------------
    # Routing Unit + network
    # ------------------------------------------------------------------

    def _send_token(self, pe: PE, dst_pid: int, token) -> None:
        if dst_pid == pe.pid:
            pe.stats.tokens_sent_local += 1
            self._mu_enqueue(pe, token)
            return
        pe.stats.tokens_sent_remote += 1
        done = self._serve(pe, "RU", T.TOKEN_BATCH_COST)
        batch = pe.batches.setdefault(dst_pid, [])
        batch.append(token)
        if len(batch) >= self.mc.token_batch:
            self.schedule(done, self._flush_batch, pe, dst_pid)
        elif dst_pid not in pe.flush_scheduled:
            pe.flush_scheduled.add(dst_pid)
            self.schedule(done + T.FLUSH_DELAY, self._flush_timer, pe, dst_pid)

    def _flush_timer(self, pe: PE, dst_pid: int) -> None:
        pe.flush_scheduled.discard(dst_pid)
        self._flush_batch(pe, dst_pid)

    def _flush_batch(self, pe: PE, dst_pid: int) -> None:
        if pe.halted:
            return
        batch = pe.batches.get(dst_pid)
        if not batch:
            return
        pe.batches[dst_pid] = []
        msg = TokenBatchMsg(pe.pid, dst_pid, tuple(batch))
        self._transmit(pe, msg)

    def _bcast_children(self, pid: int, root: int) -> list[int]:
        """Children of ``pid`` in the binomial tree rooted at ``root``."""
        num = self.mc.num_pes
        rel = (pid - root) % num
        children = []
        bit = 1
        while bit < num:
            if rel < bit:
                child = rel + bit
                if child < num:
                    children.append((child + root) % num)
            bit <<= 1
        return children

    def _bcast_tokens(self, pe: PE, root: int, tokens: tuple) -> None:
        """Deliver a distributed-spawn token set locally and forward it
        down the spanning tree."""
        if pe.halted:
            return
        for token in tokens:
            pe.stats.tokens_sent_local += 1
            self._mu_enqueue(pe, token)
        for child in self._bcast_children(pe.pid, root):
            pe.stats.tokens_sent_remote += len(tokens)
            done = self._serve(pe, "RU", T.TOKEN_BATCH_COST * len(tokens))
            msg = BroadcastTokensMsg(pe.pid, child, root, tokens)
            self.schedule(done, self._transmit, pe, msg)

    def _send_msg(self, pe: PE, msg) -> None:
        done = self._serve(pe, "RU", T.RU_MSG_COST)
        self.schedule(done, self._transmit, pe, msg)

    def _transmit(self, pe: PE, msg) -> None:
        if pe.halted:
            return  # a crashed node sends nothing
        if self._net is not None:
            self._net_transmit(pe, msg)
            return
        latency = T.message_latency(msg.wire_bytes,
                                    propagation_us=self.mc.avg_hops * 1.0)
        if self._rng is not None:
            latency += self._rng.uniform(0.0, self.config.jitter_max_us)
        pe.stats.messages_sent += 1
        pe.stats.bytes_sent += msg.wire_bytes
        if self.tracer is not None:
            self.tracer.record(self.now, pe.pid, "message",
                               f"{type(msg).__name__} -> PE{msg.dst_pe} "
                               f"({msg.wire_bytes}B, +{latency:.0f}us)",
                               unit="RU")
        self.schedule(self.now + latency, self._deliver_msg, msg)

    # -- reliable delivery + fault injection (repro.sim.reliable) --------

    def _net_transmit(self, pe: PE, msg) -> None:
        """Reliable path: assign a sequence number, send the first copy,
        and arm the retransmit timer."""
        seq = self._net.assign(pe.pid, msg.dst_pe, msg, self.now)
        self._net_send_copy(pe, SeqMsg(seq, msg), retransmit=False)
        self.schedule(self.now + self.config.retransmit_timeout_us,
                      self._net_check, pe.pid, msg.dst_pe, seq)

    def _net_send_copy(self, pe: PE, smsg: SeqMsg, retransmit: bool) -> None:
        """Put one wire copy of a sequenced message into flight,
        consulting the fault injector for its fate."""
        net = self._net
        msg = smsg.msg
        latency = T.message_latency(smsg.wire_bytes,
                                    propagation_us=self.mc.avg_hops * 1.0)
        if self._rng is not None:
            latency += self._rng.uniform(0.0, self.config.jitter_max_us)
        pe.stats.messages_sent += 1
        pe.stats.bytes_sent += smsg.wire_bytes
        kind = _MSG_KIND[type(msg)]
        dec = self._injector.decide(pe.pid, msg.dst_pe, kind)
        if self.tracer is not None:
            flags = " retransmit" if retransmit else ""
            if dec.drop:
                flags += " DROPPED"
            if dec.dup:
                flags += " duplicated"
            if dec.extra_us:
                flags += f" delayed+{dec.extra_us:.0f}us"
            self.tracer.record(self.now, pe.pid, "message",
                               f"{type(msg).__name__}[seq {smsg.seq}] -> "
                               f"PE{msg.dst_pe} ({smsg.wire_bytes}B, "
                               f"+{latency:.0f}us){flags}",
                               unit="RU")
        if retransmit:
            net.stats.spans.append(
                (pe.pid, self.now, self.now + latency,
                 f"retransmit {kind} seq={smsg.seq} -> PE{msg.dst_pe}"))
        if dec.drop:
            net.stats.dropped += 1
        else:
            if dec.extra_us:
                net.stats.delayed += 1
            self.schedule(self.now + latency + dec.extra_us,
                          self._deliver_msg, smsg)
        if dec.dup:
            net.stats.duplicated += 1
            self.schedule(self.now + latency, self._deliver_msg, smsg)

    def _net_retransmit(self, pe: PE, smsg: SeqMsg) -> None:
        if pe.halted:
            return
        self._net_send_copy(pe, smsg, retransmit=True)

    def _net_check(self, src: int, dst: int, seq: int) -> None:
        """Retransmit timer: re-send an unacked message, within budget."""
        net = self._net
        ch = net.channels.get((src, dst))
        if ch is None:
            return
        entry = ch.unacked.get(seq)
        if entry is None:
            return  # acked in time
        if (self.result is not _UNSET and not self.frames
                and seq in ch.seen):
            # The program already completed and the receiver has this
            # message: only its ack was lost, and that straggler can no
            # longer matter (e.g. an ack racing a halt).  A message never
            # delivered still can — a fire-and-forget AWRITE, or the
            # tokens that instantiate an empty-Range-Filter replica — so
            # it keeps being retransmitted.
            ch.unacked.pop(seq, None)
            return
        pe = self.pes[src]
        if pe.halted:
            return  # a dead sender cannot retransmit; drain diagnosis reports it
        cfg = self.config
        # The budget bounds consecutive unacked retries of one message —
        # a head-of-line copy retried this often means a dead or
        # partitioned receiver.  The channel's cumulative retransmit
        # count is reported but never gates: many distinct healed losses
        # on a busy channel are recovery, not livelock.
        if entry[2] >= cfg.retransmit_budget:
            if self.pes[dst].halted:
                raise self._stuck_error(None, halted_pe=dst)
            raise self._stuck_error(
                f"channel PE{src}->PE{dst} exhausted its retransmit "
                f"budget ({cfg.retransmit_budget}) on seq {seq}")
        if self.now - self._last_progress_us > cfg.quiescence_us:
            raise self._stuck_error(
                f"no progress for {cfg.quiescence_us:g} us "
                "(only retransmissions firing)")
        ch.retransmits += 1
        entry[2] += 1
        net.stats.retransmits += 1
        done = self._serve(pe, "RU", T.RU_MSG_COST)
        self.schedule(done, self._net_retransmit, pe, SeqMsg(seq, entry[0]))
        self.schedule(self.now + cfg.retransmit_timeout_us,
                      self._net_check, src, dst, seq)

    def _net_send_ack(self, pe: PE, dst: int, seq: int) -> None:
        """Receipt for one copy; fire-and-forget (acks are never acked)."""
        self._net.stats.acks_sent += 1
        done = self._serve(pe, "RU", T.ACK_COST)
        self.schedule(done, self._net_transmit_ack, pe,
                      AckMsg(pe.pid, dst, seq))

    def _net_transmit_ack(self, pe: PE, ack: AckMsg) -> None:
        if pe.halted:
            return
        net = self._net
        latency = T.message_latency(ack.wire_bytes,
                                    propagation_us=self.mc.avg_hops * 1.0)
        if self._rng is not None:
            latency += self._rng.uniform(0.0, self.config.jitter_max_us)
        pe.stats.messages_sent += 1
        pe.stats.bytes_sent += ack.wire_bytes
        dec = self._injector.decide(pe.pid, ack.dst_pe, "ack")
        if dec.drop:
            net.stats.dropped += 1
        else:
            if dec.extra_us:
                net.stats.delayed += 1
            self.schedule(self.now + latency + dec.extra_us,
                          self._net_ack_receive, ack)
        if dec.dup:
            net.stats.duplicated += 1
            self.schedule(self.now + latency, self._net_ack_receive, ack)

    def _net_ack_receive(self, ack: AckMsg) -> None:
        if self.pes[ack.dst_pe].halted:
            self._net.stats.halt_lost += 1
            return
        # The ack flows receiver -> sender, so the data channel it
        # retires is keyed (ack.dst_pe, ack.src_pe).
        self._net.on_ack(ack.dst_pe, ack.src_pe, ack.seq)

    # -- PE faults + progress guardrails ---------------------------------

    def _pe_halt(self, pe: PE) -> None:
        pe.halted = True
        self._halted.append(pe.pid)
        if self.tracer is not None:
            self.tracer.record(self.now, pe.pid, "pe-halt",
                               f"PE {pe.pid} halted (injected fault)")

    def _pe_degrade(self, pe: PE, factor: float) -> None:
        pe.degrade *= factor
        if self.tracer is not None:
            self.tracer.record(self.now, pe.pid, "pe-degrade",
                               f"PE {pe.pid} degraded x{pe.degrade:g} "
                               "(injected fault)")

    def _stuck_error(self, why: str | None, halted_pe: int | None = None):
        """Build the structured no-progress error for the current state."""
        blocked: list[str] = []
        for p in self.pes:
            blocked.extend(p.describe_blocked())
        channels = (self._net.describe_pending()
                    if self._net is not None else [])
        last = (self._last_progress_us
                if self._net is not None else None)
        if halted_pe is None and self._halted:
            halted_pe = self._halted[0]
        if halted_pe is not None:
            return PEHaltError(halted_pe, blocked, channels, self.now, last)
        return LivelockError(why or "no progress", blocked, channels,
                             self.now, last)

    def _deliver_msg(self, msg) -> None:
        if type(msg) is SeqMsg:
            pe = self.pes[msg.dst_pe]
            if pe.halted:
                self._net.stats.halt_lost += 1
                return
            # Ack every copy we see: a lost ack is healed by the sender
            # retransmitting and this branch re-acking the duplicate.
            self._net_send_ack(pe, msg.src_pe, msg.seq)
            if not self._net.on_deliver(msg.src_pe, msg.dst_pe, msg.seq):
                return  # duplicate copy; already delivered once
            msg = msg.msg
        pe = self.pes[msg.dst_pe]
        if self._halted and pe.halted:
            return
        if isinstance(msg, TokenBatchMsg):
            for token in msg.tokens:
                self._mu_enqueue(pe, token)
        elif isinstance(msg, BroadcastTokensMsg):
            self._bcast_tokens(pe, msg.root, msg.tokens)
        elif isinstance(msg, ReadRequestMsg):
            self._am_remote_read_request(pe, msg)
        elif isinstance(msg, PageResponseMsg):
            self._am_page_response(pe, msg)
        elif isinstance(msg, ValueResponseMsg):
            self._am_value_response(pe, msg)
        elif isinstance(msg, RemoteWriteMsg):
            self._am_write(pe, msg.array_id, msg.offset, msg.value,
                           forwarded=True, writer=msg.src_sp)
        elif isinstance(msg, AllocRequestMsg):
            self._am_install_remote(pe, msg)
        else:
            raise ExecutionError(f"unknown message {type(msg).__name__}")

    # ------------------------------------------------------------------
    # Array Manager
    # ------------------------------------------------------------------

    def _am_alloc(self, pe: PE, dims: tuple, waiter: ReturnAddress) -> None:
        if pe.halted:
            return
        aid = self._next_array_id
        self._next_array_id += 1
        for d in dims:
            if not isinstance(d, int) or d < 1:
                raise ExecutionError(f"bad array dimension {d!r}")
        done = self._serve(pe, "AM", T.am_allocate())
        self.schedule(done, self._install_header, pe, aid, dims)
        self.schedule(done, self._deliver_waiter, waiter, ArrayId(aid))
        for other in self.pes:
            if other.pid != pe.pid:
                msg = AllocRequestMsg(pe.pid, other.pid, aid, dims)
                self.schedule(done, self._send_msg, pe, msg)

    def _am_install_remote(self, pe: PE, msg: AllocRequestMsg) -> None:
        done = self._serve(pe, "AM", T.am_allocate())
        self.schedule(done, self._install_header, pe, msg.array_id, msg.dims)

    def _install_header(self, pe: PE, aid: int, dims: tuple) -> None:
        if pe.halted or aid in pe.headers:
            return
        header = ArrayHeader(aid, tuple(dims), self.mc.page_size,
                             self.mc.num_pes)
        pe.headers[aid] = header
        lo, hi = header.segment_bounds(pe.pid)
        seg = pe.segments[aid] = IStructureSegment(aid, lo, hi)
        if self._restore is not None:
            entry = self._restore.array(aid)
            if entry is not None:
                ck_dims, elements = entry
                if tuple(ck_dims) != tuple(dims):
                    raise ExecutionError(
                        f"checkpoint array {aid} has dims {ck_dims}, "
                        f"this run allocates {tuple(dims)} — program or "
                        "arguments differ from the checkpointed run")
                for off, value in elements.items():
                    if lo <= off < hi:
                        seg.seed(off, value)
        waiters = pe.header_waiters.pop(aid, None)
        if waiters:
            for frame in waiters:
                if frame.status == BLOCKED and frame.waiting_header == aid:
                    if self._waits is not None:
                        self._waits.sps[frame.uid].wake(
                            self.now, "net-queue", None)
                    frame.make_ready()
                    pe.ready.append(frame)
            self._kick_eu(pe)

    def _am_read(self, pe: PE, aid: int, offset: int,
                 waiter: ReturnAddress) -> None:
        if pe.halted:
            return
        seg = pe.segments[aid]
        if seg.lo <= offset < seg.hi:
            pe.stats.array_reads_local += 1
            present, value = seg.read(offset)
            if present:
                done = self._serve(pe, "AM", T.MEM_READ + T.UNIT_SIGNAL)
                self.schedule(done, self._deliver_waiter, waiter, value)
            else:
                self._serve(pe, "AM", T.MEM_READ + T.ENQUEUED_READ)
                seg.defer(offset, waiter)
                pe.stats.deferred_local += 1
            return

        pe.stats.array_reads_remote += 1
        header = pe.headers[aid]
        if self.mc.cache_enabled:
            page = header.page_of(offset)
            hit, value = pe.cache.lookup(aid, page, offset)
            if hit:
                pe.stats.cache_hits += 1
                done = self._serve(pe, "AM", T.am_cached_read(True))
                self.schedule(done, self._deliver_waiter, waiter, value)
                return
            pe.stats.cache_misses += 1
        done = self._serve(pe, "AM", T.am_cached_read(False))
        owner = header.owner_of_offset(offset)
        if self.tracer is not None:
            self.tracer.record(self.now, pe.pid, "remote-read",
                               f"array {aid} off {offset} -> PE{owner}",
                               unit="AM", sp=waiter.frame_uid)
        msg = ReadRequestMsg(pe.pid, owner, aid, offset, waiter)
        self.schedule(done, self._send_msg, pe, msg)
        if not self.mc.split_phase_reads:
            # Ablation / P&R-style behaviour: the PE stalls on this very
            # read (no latency hiding).  The stall is bounded by one full
            # round trip so that reads of not-yet-written elements — true
            # dataflow dependencies — cannot deadlock the whole PE: after
            # the bound the EU yields to other SPs.
            key = (waiter.frame_uid, waiter.slot)
            pe.suspended_on = key
            if self._waits is not None:
                self._waits.pe_stall_begin(pe.pid, self.now)
            bound = 2.0 * T.message_latency(32) + T.message_latency(
                self.mc.page_size * self.mc.element_bytes + 32)
            self.schedule(self.now + bound, self._suspend_timeout, pe, key)

    def _suspend_timeout(self, pe: PE, key: tuple) -> None:
        if pe.suspended_on == key:
            pe.suspended_on = None
            if self._waits is not None:
                self._waits.pe_stall_end(pe.pid, self.now)
            self._resume_eu(pe)

    def _am_remote_read_request(self, pe: PE, msg: ReadRequestMsg) -> None:
        if pe.halted:
            return
        seg = pe.segments.get(msg.array_id)
        if seg is None:
            # The allocate broadcast has not reached this PE yet: retry
            # after it lands (headers install in bounded time).
            self.schedule(self.now + T.ALLOC_ARRAY, self._am_remote_read_request,
                          pe, msg)
            return
        present, _ = seg.read(msg.offset)
        if present:
            header = pe.headers[msg.array_id]
            page = header.page_of(msg.offset)
            page_lo = max(page * header.page_size, seg.lo)
            page_hi = min((page + 1) * header.page_size, seg.hi)
            cells = seg.snapshot_page(page_lo, page_hi)
            done = self._serve(pe, "AM", T.am_send_page(len(cells)))
            pe.stats.pages_sent += 1
            reply = PageResponseMsg(
                pe.pid, msg.src_pe, msg.array_id, page, page_lo,
                tuple(cells), msg.offset, msg.waiter,
                element_bytes=self.mc.element_bytes,
            )
            self.schedule(done, self._send_msg, pe, reply)
        else:
            self._serve(pe, "AM", T.am_remote_read(True))
            seg.defer(msg.offset, msg.waiter)
            pe.stats.deferred_remote += 1

    def _am_page_response(self, pe: PE, msg: PageResponseMsg) -> None:
        done = self._serve(pe, "AM", T.am_receive_page(len(msg.cells)))
        if self.mc.cache_enabled:
            pe.cache.install(msg.array_id, msg.page, msg.page_lo,
                             list(msg.cells))
        value = msg.cells[msg.offset - msg.page_lo]
        if value is CELL_ABSENT:
            raise ExecutionError(
                "page response does not contain the requested element "
                f"(array {msg.array_id} offset {msg.offset})")
        self.schedule(done, self._deliver_waiter, msg.waiter, value,
                      "remote-read", None)

    def _am_value_response(self, pe: PE, msg: ValueResponseMsg) -> None:
        done = self._serve(pe, "AM", T.MEM_WRITE)
        if self.mc.cache_enabled:
            header = pe.headers.get(msg.array_id)
            if header is not None:
                page = header.page_of(msg.offset)
                pe.cache.install_element(
                    msg.array_id, page, page * header.page_size,
                    header.page_size, msg.offset, msg.value,
                )
        self.schedule(done, self._deliver_waiter, msg.waiter, msg.value,
                      "istructure-defer", msg.src_sp)

    def _am_write(self, pe: PE, aid: int, offset: int, value: Any,
                  forwarded: bool = False, writer: int | None = None) -> None:
        if pe.halted:
            return
        header = pe.headers.get(aid)
        if header is None:
            self.schedule(self.now + T.ALLOC_ARRAY, self._am_write, pe, aid,
                          offset, value, forwarded, writer)
            return
        if header.is_local(offset, pe.pid):
            pe.stats.array_writes_local += 1
            if self.obs is not None:
                self.obs.page_touch(aid, header.page_of(offset))
            seg = pe.segments[aid]
            if self._replay and seg.is_present(offset):
                # Resumed run recomputing a checkpointed element: single
                # assignment guarantees the recomputed value is
                # identical; verify so genuine double writes stay
                # detectable even under replay.  Pre-seeded elements
                # never have deferred readers (present from install).
                present, stored = seg.read(offset)
                if stored != value:
                    raise SingleAssignmentViolation(aid, offset)
                self.replayed_present += 1
                self._serve(pe, "AM", T.am_array_write(0))
                return
            woken = seg.write(offset, value)  # may raise single-assignment
            done = self._serve(pe, "AM", T.am_array_write(len(woken)))
            for waiter in woken:
                if waiter.pe == pe.pid:
                    self.schedule(done, self._deliver_waiter, waiter, value,
                                  "istructure-defer", writer)
                else:
                    reply = ValueResponseMsg(pe.pid, waiter.pe, aid, offset,
                                             value, waiter, src_sp=writer)
                    self.schedule(done, self._send_msg, pe, reply)
            return
        # Index-space responsibility differs from data ownership: forward
        # the write to the owner (the remote writes of Section 4.2.3).
        pe.stats.array_writes_remote += 1
        done = self._serve(pe, "AM", T.MEM_WRITE + T.UNIT_SIGNAL)
        owner = header.owner_of_offset(offset)
        msg = RemoteWriteMsg(pe.pid, owner, aid, offset, value,
                             src_sp=writer)
        self.schedule(done, self._send_msg, pe, msg)


    def _ckpt_snapshot(self, final: bool = False) -> None:
        """Persist one event-boundary checkpoint of every array.

        No coordination with in-flight events is needed: presence bits
        are monotone, so the per-PE segment contents at any event
        boundary form a consistent cut.  Segments of one array are
        merged across PEs (each holds its dealt subrange); the array id
        doubles as the allocation ordinal because ids are issued
        sequentially from 1.
        """
        merged: dict[int, dict[int, Any]] = {}
        dims: dict[int, tuple] = {}
        for pe in self.pes:
            for aid, seg in pe.segments.items():
                cells = merged.setdefault(aid, {})
                for off, value in seg.items():
                    cells[off] = value
                if aid not in dims:
                    dims[aid] = pe.headers[aid].dims
        arrays = [(aid, dims[aid], self.mc.page_size, merged[aid])
                  for aid in sorted(merged)]
        done = set(range(self.mc.num_pes)) if final else set()
        try:
            self._ckpt.snapshot(arrays, done, self.mc.num_pes)
        except OSError:  # pragma: no cover - disk trouble
            pass


def run_program(program: isa.PodsProgram, args: tuple = (),
                config: SimConfig | None = None,
                ckpt=None, restore=None) -> RunResult:
    """Convenience: build a machine and run ``program`` once."""
    return Machine(program, config, ckpt=ckpt, restore=restore).run(args)
