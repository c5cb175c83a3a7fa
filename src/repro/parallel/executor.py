"""Real-parallel execution with ``multiprocessing`` workers.

The paper targets physical iPSC/2 nodes; on a modern laptop the GIL rules
out threads, so this backend runs one *process* per PE (the substitution
recorded in DESIGN.md).  The execution model mirrors PODS' Data
Distributed Execution:

* every worker runs the program SPMD-style — replicated scalar/control
  code, deterministic by single assignment;
* distributed loops (as decided by the very same Partitioner — the
  workers read the compiled program's partitioned graph, they never
  partition again) iterate only the worker's Range-Filter subrange,
  under the identical first-element-ownership math (both are the shared
  core, :mod:`repro.runtime.spmd`; this backend supplies the shm store);
* distributed arrays live in shared memory with real presence bits;
  reads of not-yet-written elements spin (I-structure deferred reads),
  which also gives sweep pipelining for free;
* arrays allocated inside a distributed iteration are worker-private.

Process lifecycle is supervised: the parent watches worker sentinels
concurrently with the result queue, so a crashed, lost, or hung worker
surfaces as a structured :class:`WorkerFailure` within one poll interval
— never as a silently truncated result or a full-timeout stall.  Shared
segments are tracked in an append-only manifest
(:mod:`repro.parallel.manifest`) and reclaimed on every exit path —
including ``KeyboardInterrupt``/SIGTERM; the failure paths themselves
are testable through deterministic fault injection
(:mod:`repro.parallel.faults`).

On top of the supervisor sits the *self-healing* layer (policy and log
in :mod:`repro.common.retry`).  Single assignment makes a dead
worker's subrange idempotently re-executable — presence bits turn the
replay's already-done prefix into no-ops — so a retriable failure
(``crash``/``lost``) respawns the worker against the same segments
after deterministic backoff; per-worker retry exhaustion reassigns the
orphaned *identity* to a degraded-mode takeover process (an identity,
not a process, owns a Range-Filter subrange — the replacement re-derives
the exact subrange from the identity via the same first-element-
ownership math).  Ownership epochs on each segment make a half-dead
predecessor's late writes detectable (:class:`WorkerSuperseded`) and
benign.  A deferred-read stall watchdog bounds every spin
(``ParallelConfig.spin_ceiling_s``): spinning workers report *who* they
are blocked on, and when every live worker is provably blocked at one
instant the run aborts as a deadlock immediately — causal, not
timeout-driven.

The backend exists to demonstrate genuine wall-clock speedup of the
partitioning scheme on real cores; the instruction-level simulator
remains the quantitative instrument, as in the paper.
"""

from __future__ import annotations

import logging
import multiprocessing as mp
import os
import queue
import time
from dataclasses import dataclass, replace
from multiprocessing import connection
from typing import Any

from repro.common.config import ParallelConfig
from repro.common.errors import (ParallelExecutionError, RuntimeFault,
                                 WorkerFailure)
from repro.common.retry import RecoveryEvent, RecoveryLog
from repro.runtime.spmd import (SpmdInterpreter, SpmdResult, fold_results,
                                reap, sigterm_as_interrupt, sigterm_default)
from repro.parallel.faults import FaultInjector, FaultPlan
from repro.parallel.manifest import ShmManifest
from repro.parallel.shm_arrays import ShmArray

log = logging.getLogger("repro.parallel")

_RETRIABLE = ("crash", "lost")


@dataclass(frozen=True)
class _WorkerSpec:
    """What one worker process is asked to execute.

    ``identities`` are the PE numbers whose Range-Filter subranges this
    process runs — ``(slot,)`` normally; several after a degraded-mode
    takeover adopts orphans.  ``generation`` counts executions (1 =
    original launch); a replay sets ``replay`` so already-present
    elements are verified instead of re-written.
    """

    slot: int
    identities: tuple[int, ...]
    generation: int = 1
    kind: str = "worker"  # worker | respawn | takeover
    replay: bool = False


class _WorkerInterpreter(SpmdInterpreter):
    """The SPMD core over shared-memory I-structures.

    Supplies the shm store: ``ShmArray`` segments named by run tag and
    allocation ordinal, recorded in the manifest before creation, with
    an ownership epoch claimed per adopted identity.
    """

    shared_cls = ShmArray

    def __init__(self, program, spec: _WorkerSpec, cfg: ParallelConfig,
                 run_tag: str, injector: FaultInjector,
                 manifest: ShmManifest | None = None,
                 stall_fn=None, alloc_fn=None) -> None:
        super().__init__(program, spec.identities, injector)
        self.spec = spec
        self.worker = spec.slot
        self.num_workers = cfg.workers
        self.run_tag = run_tag
        self.page_size = cfg.page_size
        self.manifest = manifest
        self.alloc_fn = alloc_fn
        # How a read of an absent element waits, bound into every handle
        # at allocation (see ShmArray).
        self.read_settings = dict(
            timeout_s=cfg.read_timeout_s, spin_ceiling_s=cfg.spin_ceiling_s,
            on_stall=stall_fn, on_spin=lambda: self.injector.fire("spin"))

    # -- the shm store ----------------------------------------------------

    def alloc_shared(self, seq: int, dims: tuple[int, ...]) -> ShmArray:
        # Every worker derives the same segment name from the shared
        # sequence number; the process running identity 0 creates it.  A
        # replay's create falls back to attach (exist_ok) — its
        # predecessor may already have created it.
        name = f"{self.run_tag}_{seq}"
        create = 0 in self.identities
        if create and self.manifest is not None:
            # Record before creating: a death in the gap costs a no-op
            # unlink, while the reverse order would leak the segment.
            self.manifest.record(name)
        arr = ShmArray(name, dims, create=create,
                       page_size=self.page_size,
                       epoch_slots=self.num_workers,
                       slot=self.worker, generation=self.spec.generation,
                       replay=self.spec.replay, exist_ok=self.spec.replay,
                       **self.read_settings)
        # Claim every adopted identity's epoch slot, so a stale
        # predecessor of any of them self-detects as superseded.
        for ident in self.identities:
            arr.set_epoch(ident, self.spec.generation)
        if create and self.alloc_fn is not None:
            # Checkpointing only: tell the supervisor the segment's name
            # and geometry so it can attach and snapshot.  alloc_fn is
            # None when checkpointing is off — no message, no cost.
            self.alloc_fn(seq, name, dims)
        return arr

    def cleanup(self) -> None:
        for arr in self.shared_arrays:
            arr.close()


def _worker_main(program, spec: _WorkerSpec, cfg: ParallelConfig, run_tag,
                 args, out_queue, manifest_path, plan,
                 report_allocs=False) -> None:
    sigterm_default()
    injector = FaultInjector(plan, spec.slot, generation=spec.generation)
    manifest = ShmManifest(manifest_path, run_tag)

    def emit(tag: str, payload) -> None:
        out_queue.put((tag, spec.slot, spec.generation, payload))

    def stall_fn(info: dict) -> None:
        # Timestamp worker-side with the system-wide monotonic clock so
        # the supervisor can reason about *when* the spin provably
        # covered an instant (queue latency must not widen the
        # interval — the deadlock quorum's soundness depends on it).
        now = time.monotonic()
        info = dict(info)
        info["t_spin_start"] = now - info["waited_s"]
        info["t_report"] = now
        emit("stall", info)

    alloc_fn = None
    if report_allocs:
        def alloc_fn(seq: int, name: str, dims: tuple) -> None:
            emit("alloc", (seq, name, dims))

    interp = _WorkerInterpreter(program, spec, cfg, run_tag, injector,
                                manifest=manifest, stall_fn=stall_fn,
                                alloc_fn=alloc_fn)
    try:
        # An array result is named, not sent: other workers may still be
        # writing; the parent attaches and snapshots only after every
        # worker reports done.
        interp.execute(args, emit, lambda arr: (arr.name, arr.dims))
    finally:
        interp.cleanup()


@dataclass
class _Rec:
    """Supervisor-side record of one live worker process."""

    spec: _WorkerSpec
    proc: Any
    grace_until: float | None = None


def run_parallel(program, args: tuple = (),
                 config: ParallelConfig | None = None,
                 faults=None, ckpt=None, restore=None) -> SpmdResult:
    """Execute a compiled ``program`` (:class:`repro.api.Program`) on
    real, supervised, self-healing processes.

    Retriable worker failures (``crash``/``lost``) are healed by the
    recovery layer when ``config.retry.enabled`` is on (the default):
    respawns with deterministic backoff, then degraded-mode takeover on
    per-worker retry exhaustion (see ``docs/parallel.md``).
    Unrecoverable runs raise :class:`ParallelExecutionError` (an
    :class:`ExecutionError`) carrying one :class:`WorkerFailure` per
    failed worker plus the :class:`RecoveryLog`; a partial result is
    never returned.  ``faults`` takes the parsed :class:`FaultPlan`
    ``Backend.run`` built (``None`` = no faults).  ``KeyboardInterrupt``
    and SIGTERM terminate the workers, reclaim every shared segment via
    the manifest, and re-raise.
    """
    cfg = config or ParallelConfig()
    plan = faults or FaultPlan()
    policy = cfg.retry
    nw = cfg.workers

    run_tag = f"pods{os.getpid()}_{int(time.monotonic_ns() % 1_000_000_000)}"
    manifest = ShmManifest.create(run_tag)
    ctx = mp.get_context("fork")
    out_queue = ctx.Queue()

    rlog = RecoveryLog()
    t0_mono = time.monotonic()

    def t() -> float:
        return time.monotonic() - t0_mono

    active: dict[int, _Rec] = {}
    all_procs: list = []
    pending_spawns: list[tuple[float, _WorkerSpec]] = []
    completed: dict[int, dict] = {}
    remaining: set[int] = set(range(nw))
    retries_used: dict[int, int] = {}
    total_retries = 0
    # slot -> (t_spin_start, t_report, generation, info) latest stall
    stalls: dict[int, tuple] = {}
    failures: list[WorkerFailure] = []
    result_msg: tuple | None = None
    fatal_message: str | None = None
    # Checkpointing only: allocation ordinal -> (segment name, dims),
    # reported by workers so the supervisor can attach and snapshot.
    allocs: dict[int, tuple[str, tuple]] = {}

    def spawn(spec: _WorkerSpec) -> None:
        proc = ctx.Process(
            target=_worker_main,
            args=(program, spec, cfg, run_tag, args, out_queue,
                  manifest.path, plan, ckpt is not None))
        proc.start()
        all_procs.append(proc)
        active[spec.slot] = _Rec(spec=spec, proc=proc)
        stalls.pop(spec.slot, None)

    def fail(rec: _Rec, wf: WorkerFailure) -> None:
        nonlocal total_retries, fatal_message
        rlog.record(RecoveryEvent(
            t(), "failure", wf.worker, wf.generation,
            detail=f"{wf.kind} (exitcode "
                   f"{'?' if wf.exitcode is None else wf.exitcode})"))
        if not policy.enabled or wf.kind not in _RETRIABLE:
            failures.append(wf)
            return
        spec = rec.spec
        total_retries += 1
        if total_retries > policy.max_retries_total:
            fatal_message = (f"recovery budget exhausted "
                             f"({policy.max_retries_total} retries)")
            failures.append(wf)
            return
        slot = spec.slot
        attempt = retries_used.get(slot, 0) + 1
        retries_used[slot] = attempt
        if attempt <= policy.max_retries_per_worker:
            delay = policy.backoff_s(slot, attempt)
            newspec = replace(spec, generation=spec.generation + 1,
                              kind="respawn", replay=True)
            pending_spawns.append((time.monotonic() + delay, newspec))
            rlog.record(RecoveryEvent(
                t(), "respawn", slot, newspec.generation,
                detail=(f"attempt {attempt}/{policy.max_retries_per_worker}"
                        f" after {wf.kind}; backoff {delay * 1e3:.0f} ms"),
                dur_s=delay))
            log.info("pods.parallel: respawning worker %d (generation %d) "
                     "after %s", slot, newspec.generation, wf.kind)
            return
        # Per-worker budget exhausted: reassign the orphaned identities.
        rlog.record(RecoveryEvent(
            t(), "exhausted", slot, spec.generation,
            detail=f"{policy.max_retries_per_worker} retries used"))
        ids = set(spec.identities)
        gens = [spec.generation]
        keep = []
        for due, s in pending_spawns:
            if s.kind == "takeover":
                # Merge not-yet-started takeovers into one.
                ids.update(s.identities)
                gens.append(s.generation)
            else:
                keep.append((due, s))
        pending_spawns[:] = keep
        survivors = sorted(set(active) | set(completed))
        if not survivors and not keep:
            fatal_message = ("all workers exhausted their retry budget; "
                            "no survivor to take over")
            failures.append(wf)
            return
        delay = policy.backoff_s(slot, attempt)
        newspec = _WorkerSpec(slot=min(ids), identities=tuple(sorted(ids)),
                              generation=max(gens) + 1, kind="takeover",
                              replay=True)
        pending_spawns.append((time.monotonic() + delay, newspec))
        rlog.record(RecoveryEvent(
            t(), "takeover", newspec.slot, newspec.generation,
            detail=(f"identities {newspec.identities} reassigned after "
                    f"worker {slot} exhausted retries; survivors "
                    f"{survivors}"),
            dur_s=delay))
        log.warning(
            "pods.parallel: DEGRADED MODE — worker %d exhausted its retry "
            "budget; subrange identities %s reassigned to a recovery "
            "worker (generation %d)", slot, newspec.identities,
            newspec.generation)

    def handle(msg: tuple) -> None:
        nonlocal result_msg
        tag, slot, gen, payload = msg
        if tag == "alloc":
            # Any generation may report: allocation order is
            # deterministic, so ordinal -> segment is stable.
            seq, name, dims = payload
            allocs.setdefault(seq, (name, tuple(dims)))
            return
        if tag == "superseded":
            rlog.record(RecoveryEvent(t(), "superseded", slot, gen,
                                      detail=str(payload)))
            return
        rec = active.get(slot)
        if rec is None or rec.spec.generation != gen:
            return  # stale generation: a zombie predecessor's late message
        if tag == "result":
            result_msg = payload
        elif tag == "done":
            completed[slot] = payload
            remaining.difference_update(rec.spec.identities)
            del active[slot]
            # A completing worker may have satisfied a blocked read
            # *after* a stale stall interval was recorded, so every
            # recorded interval is now invalid as deadlock evidence.
            # Truly blocked workers re-report at the next ceiling
            # crossing, so a real deadlock is still caught one spin
            # ceiling later.
            stalls.clear()
        elif tag == "err":
            del active[slot]
            code, detail = payload
            fail(rec, WorkerFailure(slot, exitcode=None, kind="error",
                                    detail=detail, generation=gen,
                                    code=code))
        elif tag == "stall":
            stalls[slot] = (payload["t_spin_start"], payload["t_report"],
                            gen, payload)
            rlog.record(RecoveryEvent(
                t(), "stall", slot, gen,
                detail=(f"{payload['array']}{payload['indices']} "
                        f"(segment owner: worker {payload['owner']}) "
                        f"waited {payload['waited_s']:.3f}s")))

    def check_deadlock() -> None:
        """Abort when every live worker is provably blocked at once.

        Each stall report carries the interval [spin start, report time]
        during which its worker was certainly inside a deferred-read
        spin (worker-side monotonic timestamps).  If every live worker's
        latest interval shares a common instant, then at that instant no
        process that could ever produce a write was running — only
        workers write, and intervals recorded before the most recent
        completion are discarded in ``handle`` (the completing worker
        may have written the awaited element after the report) — so the
        blocked reads can never be satisfied: deadlock, reported
        causally instead of after ``read_timeout_s``.
        """
        nonlocal fatal_message
        if failures or pending_spawns or not active:
            return
        intervals = []
        for slot, rec in active.items():
            iv = stalls.get(slot)
            if iv is None or iv[2] != rec.spec.generation:
                return  # this worker is not provably blocked
            intervals.append((slot, iv))
        lo = max(iv[0] for _, iv in intervals)
        hi = min(iv[1] for _, iv in intervals)
        if lo > hi:
            return
        for slot, iv in sorted(intervals):
            info = iv[3]
            failures.append(WorkerFailure(
                slot, exitcode=None, kind="stall",
                detail=(f"blocked on {info['array']}{info['indices']} "
                        f"(segment owner: worker {info['owner']}) for "
                        f"{info['waited_s']:.3f}s"),
                generation=active[slot].spec.generation))
        fatal_message = ("every live worker blocked in a deferred-read "
                         "spin (missing write -> deadlock)")

    def do_snapshot(now: float | None = None) -> None:
        """Snapshot every reported segment into the checkpoint store.

        Monotonicity makes this safe with zero coordination: presence
        flags only flip on and the value is stored before the flag, so
        a concurrent dump sees each element either absent or complete.
        """
        arrays = []
        for seq in sorted(allocs):
            name, dims = allocs[seq]
            try:
                arr = ShmArray(name, dims, create=False,
                               page_size=cfg.page_size, epoch_slots=nw,
                               attach_timeout_s=0.5)
            except RuntimeFault:
                continue  # torn down already; skip this snapshot's view
            try:
                arrays.append((seq, dims, cfg.page_size, arr.dump()))
            finally:
                arr.close()
        done = set(range(nw)) - remaining
        try:
            ckpt.snapshot(arrays, done, nw, now=now)
        except OSError as exc:  # pragma: no cover - disk trouble
            log.warning("pods.ckpt: snapshot failed: %s", exc)

    restore_sigterm = sigterm_as_interrupt()
    start = time.perf_counter()
    deadline = time.monotonic() + cfg.timeout_s
    try:
        if restore is not None:
            # Pre-create and seed every checkpointed segment under the
            # names replay allocation will derive (allocation ordinal is
            # deterministic), so workers attach instead of creating and
            # every pre-seeded write becomes a presence-bit verify.
            for ordinal in restore.ordinals():
                dims, elements = restore.array(ordinal)
                name = f"{run_tag}_{ordinal}"
                manifest.record(name)
                arr = ShmArray(name, dims, create=True,
                               page_size=cfg.page_size, epoch_slots=nw)
                try:
                    for off, value in elements.items():
                        arr.seed(off, value)
                finally:
                    arr.close()
                allocs[ordinal] = (name, dims)
        for w in range(nw):
            spawn(_WorkerSpec(slot=w, identities=(w,),
                              replay=restore is not None))
        while remaining and not failures:
            # Drain every message already delivered.
            while True:
                try:
                    handle(out_queue.get_nowait())
                except queue.Empty:
                    break
            if not remaining or failures:
                break
            now = time.monotonic()
            if ckpt is not None and ckpt.due(now):
                do_snapshot(now)
            due = [s for d, s in pending_spawns if d <= now]
            if due:
                pending_spawns[:] = [(d, s) for d, s in pending_spawns
                                     if d > now]
                for s in due:
                    spawn(s)
            if now >= deadline:
                for slot in sorted(active):
                    rec = active.pop(slot)
                    failures.append(WorkerFailure(
                        slot, exitcode=None, kind="hang",
                        detail=f"still running at the {cfg.timeout_s:g}s "
                               "deadline; terminated",
                        generation=rec.spec.generation))
                for _, s in pending_spawns:
                    failures.append(WorkerFailure(
                        s.slot, exitcode=None, kind="hang",
                        detail="recovery respawn still pending at the run "
                               "deadline",
                        generation=s.generation))
                pending_spawns.clear()
                break
            # A worker that exited without reporting gets a short grace
            # for its final queue message to flush, then is declared
            # crashed (nonzero exit) or lost (clean exit, no message).
            for slot in sorted(active):
                rec = active[slot]
                if rec.proc.is_alive():
                    continue
                if rec.grace_until is None:
                    rec.grace_until = now + cfg.grace_s
                elif now >= rec.grace_until:
                    code = rec.proc.exitcode
                    del active[slot]
                    fail(rec, WorkerFailure(
                        slot, exitcode=code,
                        kind="lost" if code == 0 else "crash",
                        detail="exited without reporting a result",
                        generation=rec.spec.generation))
            if failures or not remaining:
                break
            check_deadlock()
            if failures:
                break
            if not active and not pending_spawns:
                fatal_message = ("no live worker or pending respawn covers "
                                 f"identities {sorted(remaining)}")
                failures.append(WorkerFailure(
                    min(remaining), exitcode=None, kind="lost",
                    detail="identity left uncovered (supervisor invariant "
                           "violation)"))
                break
            sentinels = [rec.proc.sentinel for rec in active.values()
                         if rec.proc.is_alive()]
            wait_s = min(cfg.poll_interval_s, max(deadline - now, 0.001))
            if pending_spawns:
                nxt = min(d for d, _ in pending_spawns) - now
                wait_s = min(wait_s, max(nxt, 0.001))
            if sentinels:
                connection.wait(sentinels, timeout=wait_s)
            else:
                time.sleep(min(wait_s, 0.005))
        wall = time.perf_counter() - start

        if failures:
            raise ParallelExecutionError.unrecovered(
                failures, rlog, fatal_message, cfg.timeout_s)

        if result_msg is None:
            raise ParallelExecutionError(
                "worker 0 completed without producing a result",
                [WorkerFailure(0, exitcode=None, kind="lost",
                               detail="no result message received")],
                recovery=rlog)

        status, payload = result_msg
        if status == "array":
            name, dims = payload
            arr = ShmArray(name, tuple(dims), create=False,
                           page_size=cfg.page_size, epoch_slots=nw)
            try:
                payload = arr.to_value()
            finally:
                arr.close()
        if ckpt is not None:
            do_snapshot()  # final cut: the complete run, restartable
        return fold_results(payload, wall, completed, nw, rlog, ckpt,
                            restore)
    except KeyboardInterrupt:
        # SIGTERM/interrupt drain: one last consistent cut before the
        # finally clause reclaims every shared segment.
        if ckpt is not None and allocs:
            do_snapshot()
        raise
    finally:
        # Uniform teardown for success, failure, and interrupt alike:
        # stop every process ever started, drain the queue, reclaim all
        # shared segments via the manifest (plus prefix sweep).
        reap(all_procs)
        while True:
            try:
                out_queue.get_nowait()
            except (queue.Empty, OSError, ValueError):
                break
        out_queue.close()
        manifest.cleanup()
        restore_sigterm()
