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

The parent watches worker sentinels concurrently with the result
queue, so a crashed, lost, or hung worker surfaces as a structured
:class:`WorkerFailure` within one poll interval.  What that means —
respawn, takeover, budgets, deadline, stall-quorum deadlock — is the
supervision core's decision (:mod:`repro.runtime.supervise`); this
module is its shell: processes, the result queue, the exit grace period
and the shm manifest (:mod:`repro.parallel.manifest`), which reclaims
every segment on every exit path, ``KeyboardInterrupt``/SIGTERM too.

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
from dataclasses import dataclass
from multiprocessing import connection
from typing import Any

from repro.common.config import ParallelConfig
from repro.common.errors import ParallelExecutionError, RuntimeFault
from repro.runtime.spmd import (SpmdInterpreter, SpmdResult, fold_results,
                                reap, sigterm_as_interrupt, sigterm_default)
from repro.runtime.supervise import Abort, Finish, Start, Supervision
from repro.parallel.faults import FaultInjector, FaultPlan
from repro.parallel.manifest import ShmManifest
from repro.parallel.shm_arrays import ShmArray

log = logging.getLogger("repro.parallel")


@dataclass(frozen=True)
class _WorkerSpec:
    """What one worker process is asked to execute.

    ``identities`` are the PE numbers whose Range-Filter subranges this
    process runs — ``(slot,)`` normally; several after a degraded-mode
    takeover adopts orphans.  ``generation`` is the run's generation at
    its start (1 = original launch); a replay sets ``replay`` so
    already-present elements are verified instead of re-written.
    """

    slot: int
    identities: tuple[int, ...]
    generation: int = 1
    replay: bool = False


class _WorkerInterpreter(SpmdInterpreter):
    """The SPMD core over shared-memory I-structures.

    Supplies the shm store: ``ShmArray`` segments named by run tag and
    allocation ordinal, recorded in the manifest before creation, with
    an ownership epoch claimed per adopted identity.
    """

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
        arr = ShmArray(name, dims, create=create, ordinal=seq,
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
    """One watched worker process."""

    spec: _WorkerSpec
    proc: Any
    grace_until: float | None = None


def run_parallel(program, args: tuple = (),
                 config: ParallelConfig | None = None,
                 faults=None, ckpt=None, restore=None) -> SpmdResult:
    """Execute a compiled ``program`` (:class:`repro.api.Program`) on
    real, supervised, self-healing processes.

    Retriable failures (``crash``/``lost``) heal when
    ``config.retry.enabled`` (see ``docs/parallel.md``); an unrecovered
    run raises :class:`ParallelExecutionError` carrying its
    :class:`WorkerFailure` records and the :class:`RecoveryLog`; a
    partial result is never returned.
    ``faults`` takes the parsed :class:`FaultPlan` ``Backend.run`` built
    (``None`` = no faults).  ``KeyboardInterrupt`` and SIGTERM terminate
    the workers, reclaim every shared segment via the manifest, and
    re-raise.
    """
    cfg = config or ParallelConfig()
    plan = faults or FaultPlan()
    nw = cfg.workers

    run_tag = f"pods{os.getpid()}_{int(time.monotonic_ns() % 1_000_000_000)}"
    manifest = ShmManifest.create(run_tag)
    ctx = mp.get_context("fork")
    out_queue = ctx.Queue()

    core = Supervision(nw, cfg.retry,
                       respawns=cfg.retry.max_retries_per_worker,
                       hosted=False, timeout_s=cfg.timeout_s, unit="worker",
                       now=time.monotonic())
    # slot -> its newest process, until that reports its end or dies
    watched: dict[int, _Rec] = {}
    all_procs: list = []
    outcome: Abort | Finish | None = None
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
        watched[spec.slot] = _Rec(spec=spec, proc=proc)

    def apply(actions: list) -> None:
        # A Fence needs nothing here: a superseded zombie finds its
        # generation stale in the segment epochs and exits by itself.
        nonlocal outcome
        for act in actions:
            if isinstance(act, Start):
                spawn(_WorkerSpec(act.slot, act.identities, act.generation,
                                  replay=True))
            elif isinstance(act, (Abort, Finish)):
                outcome = act

    def handle(msg: tuple) -> None:
        tag, slot, gen, payload = msg
        if tag == "alloc":
            # Any generation may report: allocation order is
            # deterministic, so ordinal -> segment is stable.
            seq, name, dims = payload
            allocs.setdefault(seq, (name, tuple(dims)))
            return
        rec = watched.get(slot)
        if tag in ("done", "err") and rec is not None \
                and rec.spec.generation == gen:
            del watched[slot]  # it reported its end: no exit to wait for
        apply(core.report(time.monotonic(), slot, slot, gen, tag, payload))

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
                arr = ShmArray(name, dims, create=False, ordinal=seq,
                               page_size=cfg.page_size, epoch_slots=nw,
                               attach_timeout_s=0.5)
            except RuntimeFault:
                continue  # torn down already; skip this snapshot's view
            try:
                arrays.append((seq, dims, cfg.page_size, arr.dump()))
            finally:
                arr.close()
        done = set(range(nw)) - core.remaining
        try:
            ckpt.snapshot(arrays, done, nw, now=now)
        except OSError as exc:  # pragma: no cover - disk trouble
            log.warning("pods.ckpt: snapshot failed: %s", exc)

    restore_sigterm = sigterm_as_interrupt()
    start = time.perf_counter()
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
                arr = ShmArray(name, dims, create=True, ordinal=ordinal,
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
            apply(core.started(time.monotonic(), w, w, (w,), 1))
        while outcome is None:
            # Drain every message already delivered.
            while outcome is None:
                try:
                    handle(out_queue.get_nowait())
                except queue.Empty:
                    break
            if outcome is not None:
                break
            now = time.monotonic()
            if ckpt is not None and ckpt.due(now):
                do_snapshot(now)
            apply(core.tick(now))
            # A worker that exited without reporting gets a short grace
            # for its final queue message to flush, then is declared
            # crashed (nonzero exit) or lost (clean exit, no message).
            for slot in sorted(watched):
                rec = watched[slot]
                if outcome is not None or rec.proc.is_alive():
                    continue
                if rec.grace_until is None:
                    rec.grace_until = now + cfg.grace_s
                elif now >= rec.grace_until:
                    del watched[slot]
                    code = rec.proc.exitcode
                    apply(core.lost(now, slot,
                                    "lost" if code == 0 else "crash", code,
                                    "exited without reporting a result"))
            if outcome is not None:
                break
            sentinels = [rec.proc.sentinel for rec in watched.values()
                         if rec.proc.is_alive()]
            wait_s = min(cfg.poll_interval_s, max(core.due() - now, 0.001))
            if sentinels:
                connection.wait(sentinels, timeout=wait_s)
            else:
                time.sleep(min(wait_s, 0.005))
        wall = time.perf_counter() - start

        if isinstance(outcome, Abort):
            raise ParallelExecutionError.unrecovered(
                list(outcome.failures), core.log, outcome.message,
                cfg.timeout_s)

        status, payload = outcome.result
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
        return fold_results(payload, wall, core.completed, nw, core.log,
                            ckpt, restore)
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
