"""The SPMD execution core shared by the ``parallel`` and ``dist`` backends.

The paper has one execution model for distributed loops: every PE runs
the same program, and a Range Filter keeps only the subrange whose first
element the PE owns.  :class:`SpmdInterpreter` is that model, once:
replicated scalar/control code (deterministic by single assignment),
replicated array allocation under a shared sequence number, Range-Filter
subranges per *identity* under the first-element-ownership math of
:class:`repro.runtime.arrays.ArrayHeader`, and private ``SeqArray``
temporaries inside a distributed iteration.

**The location rule.**  Every shared-array write has exactly one
location.  Inside a distributed loop that is the identity whose
Range-Filter subrange holds the iteration.  Outside one the code is
replicated — every identity computes the same values — so the write is
performed by the identity that owns the element and skipped by every
other (:meth:`SpmdInterpreter.on_array_write`); a value another identity
needs crosses through the store as an ordinary I-structure read.  A
serial ``next``-carried loop filling an array, or a top-level element
write, therefore writes each element once at any width.

The interpreter executes the compiled :class:`repro.api.Program` it is
handed — its decorated AST against its already-partitioned graph — and
never derives a partition of its own, so ``distribute``,
``rf_placement``, ``aggressive`` and ``optimize`` mean here what they
mean on the simulator.

What varies between substrates is the *location* of a shared array's
elements — a shared-memory segment, a node's element store — never the
statement semantics, so the store is the parameter.  A substrate
supplies :meth:`alloc_shared`, which builds its handle of the array of
one allocation ordinal: a :class:`~repro.runtime.arrays.SharedHandle`
(the ordinal, the identity-space ``header`` and the access counters)
with ``read(indices)`` and ``write(indices, value)``, and whatever a
read needs bound into it.  The generated code probes the handle's list
of elements seen present, under its extents, and counts a hit in its
``reads``; ``read`` is the miss path, which counts the read itself.

The base interpreter is compile-once (:mod:`repro.baseline.sequential`):
each function is written out as the source of one Python function over
locals on its first *call*, each loop a Python ``for`` — except a loop
with a Range Filter, which crosses the seam overridden here,
``run_for(loop, frame)``: it takes the
:class:`~repro.baseline.sequential.Loop` and a seam frame holding the
loop's bounds and the values its generated body reads.  The generated
code calls the ``on_*`` hooks through globals bound when ``run`` first
starts, so a substrate may finish its own ``__init__`` after
``super().__init__`` returns, but must not rebind a hook once ``run``
has started.

A worker runs the program, not the cost model: both substrates report
measured wall time only, so the core passes no clock and its code is
generated without the charges ``seq`` and ``static`` write in.  The
``iter`` fault trigger is likewise written into every ``for`` iteration
only when the process's plan holds a clause
(:meth:`SpmdInterpreter.iteration_hook`); an iteration is otherwise the
generated loop's own code.

The telemetry record, its registry fold and its table live here too
(both backends report the same fields about the same model), as do the
one result both launchers return (:class:`SpmdResult`) and the process
plumbing they share.
"""

from __future__ import annotations

import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from repro.baseline.sequential import Loop, PartitionedInterpreter, SeqArray
from repro.common.errors import WorkerSuperseded, classify_error
from repro.runtime.arrays import SharedHandle


class SpmdInterpreter(PartitionedInterpreter):
    """One SPMD process: same program, own Range-Filter subranges.

    A normal process executes one identity; a takeover executes several.
    Identities run lowest-first for ascending distributed loops and
    highest-first for descending ones, matching the global iteration
    order so sweep-style adjacent-range dependencies between two adopted
    identities resolve against this process's own earlier writes instead
    of self-deadlocking.  (Pathological cross-range dependencies can
    still deadlock a degraded run — the substrate's watchdog or read
    timeout then aborts it with a structured diagnosis rather than
    hanging.)  ``injector`` is the substrate's
    :class:`repro.common.faultplan.EventTrigger`.
    """

    def __init__(self, program, identities: tuple[int, ...],
                 injector) -> None:
        super().__init__(program.ast, program.graph, None, program.entry)
        self.identities = identities
        self.injector = injector
        self.shared_arrays: list[SharedHandle] = []
        self.in_distributed = 0
        self.rf_counts: dict[tuple[str, int, int, int], int] = {}

    def alloc_shared(self, seq: int, dims: tuple[int, ...]) -> SharedHandle:
        """Create (or attach) the shared array of allocation ordinal ``seq``."""
        raise NotImplementedError

    # -- allocation -------------------------------------------------------

    def on_alloc(self, dims: tuple[int, ...]):
        if self.in_distributed:
            # Private temporary of this iteration's executor: no
            # ordinal every process agrees on, so none (0).
            return SeqArray(0, dims)
        # Replicated allocation: every process computes the same
        # sequence number, so they agree on the array's identity without
        # any coordination.
        self.alloc_seq += 1
        arr = self.alloc_shared(self.alloc_seq, tuple(dims))
        self.shared_arrays.append(arr)
        return arr

    # -- element access ---------------------------------------------------

    def on_array_write(self, arr, indices: tuple, value) -> None:
        if isinstance(arr, SharedHandle):
            # The location rule: replicated code writes at the owner only.
            if not self.in_distributed and \
                    arr.header.owner_of(indices) not in self.identities:
                return
            self.injector.fire("write")
        arr.write(indices, value)

    # -- loops ------------------------------------------------------------

    def iteration_hook(self, block):
        if not self.injector.planned:
            return None
        # A clause of any generation: a takeover re-arms the trigger
        # under a running executor, whose loops are already generated.
        fire = self.injector.fire
        return lambda index: fire("iter")

    def run_for(self, loop: Loop, frame: list) -> None:
        init, limit = frame[0], frame[1]
        step = -1 if loop.descending else 1
        found = (None if self.in_distributed
                 else self.range_filter_of(loop, frame))
        if found is None or not isinstance(found[1], SharedHandle):
            # Not distributed — or the RF array is process-private
            # (shouldn't happen): run it all.
            self.run_for_range(loop, frame, init, limit, step)
            return
        block, arr, fixed = found
        rf = block.range_filter
        header = arr.header
        idents = (tuple(reversed(self.identities)) if loop.descending
                  else self.identities)
        self.in_distributed += 1
        try:
            for ident in idents:
                first, last = header.filtered_range(
                    ident, init, limit, descending=loop.descending,
                    fixed=fixed, dim=rf.dim)
                items = max(0, (last - first) * step + 1)
                key = (block.name, first, last, items)
                self.rf_counts[key] = self.rf_counts.get(key, 0) + 1
                self.run_for_range(loop, frame, first, last, step)
        finally:
            self.in_distributed -= 1

    # -- reporting --------------------------------------------------------

    def execute(self, args: tuple, emit, array_ref) -> None:
        """Run to completion, reporting through ``emit(tag, payload)``.

        The process running identity 0 emits ``result`` — ``("ok",
        value)``, or ``("array", array_ref(handle))`` while other
        processes may still be writing it — and every process then emits
        ``done`` with its telemetry; a failed one emits ``err`` —
        ``(code, detail)``: the exception's taxonomy code, declared by
        its class, beside its traceback — or ``superseded`` instead.
        """
        t0 = time.perf_counter()
        try:
            value = self.run(tuple(args), materialize=False).value
            self.injector.fire("result")
            if 0 in self.identities:
                emit("result", ("array", array_ref(value))
                     if isinstance(value, SharedHandle) else ("ok", value))
            emit("done", self.telemetry(time.perf_counter() - t0))
        except WorkerSuperseded as exc:
            # A successor generation owns this subrange now; exit quietly.
            emit("superseded", str(exc))
        except BaseException as exc:  # noqa: BLE001 - must leave the process
            emit("err", (classify_error(exc),
                         f"{type(exc).__name__}: {exc}\n"
                         f"{traceback.format_exc()}"))

    def telemetry(self, wall_time_s: float) -> dict:
        return {"wall_time_s": wall_time_s,
                "rf_subranges": [(name, first, last, items, count)
                                 for (name, first, last, items), count
                                 in self.rf_counts.items()],
                **SharedHandle.totals(self.shared_arrays)}


@dataclass
class WorkerTelemetry:
    """One worker's (or node's) self-reported execution profile: its
    shared handles' counters (:meth:`SharedHandle.totals`) and the
    Range-Filter subranges it ran."""

    worker: int
    wall_time_s: float = 0.0
    shared_reads: int = 0
    shared_writes: int = 0
    deferred_reads: int = 0
    spin_wait_s: float = 0.0
    max_spin_wait_s: float = 0.0
    replayed_present: int = 0
    stall_reports: int = 0
    # (loop block, first, last, iteration items, times executed) — an
    # inner-loop RF runs once per enclosing iteration, hence the count.
    rf_subranges: list[tuple[str, int, int, int, int]] = field(
        default_factory=list)
    # allocation ordinal -> page indices this worker wrote at least one
    # element of (page grain as in MachineConfig.page_size)
    pages_touched: dict[int, list[int]] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, worker: int, d: dict) -> "WorkerTelemetry":
        # A JSON frame turned the tuples into lists, the ordinals into
        # strings.
        return cls(worker, **{
            **d, "rf_subranges": [tuple(r)
                                  for r in d.get("rf_subranges", ())],
            "pages_touched": {int(a): pages for a, pages
                              in d.get("pages_touched", {}).items()}})


def telemetry_registry(worker_stats: list[WorkerTelemetry],
                       spin_cause: str = "istructure-defer") -> "MetricsRegistry":
    """Fold per-worker telemetry into one :class:`MetricsRegistry`.

    The semantic metric families (``rf.*``, ``array.*``) use the same
    names and label shapes as the simulator's registry (see
    :func:`repro.obs.spanlog.build_registry`), so a
    differential test can assert that e.g. Range-Filter subranges agree
    between backends by comparing registry rows directly.  Workers map
    onto the ``pe`` label — the backend's wall-clock counterpart.

    ``spin_cause`` labels the blocked-read wait rows: the parallel
    backend's spins are I-structure defers on shared memory; the
    distributed backend passes ``remote-read`` (its blocked reads are
    split-phase network reads — see the WAIT vocabulary in ObsConfig).
    """
    from repro.obs.registry import MetricsRegistry

    reg = MetricsRegistry()
    pages: dict[int, set[int]] = {}
    for t in worker_stats:
        pe = str(t.worker)
        reg.set_gauge("par.wall_time_s", t.wall_time_s, pe=pe)
        reg.inc("array.element_reads", t.shared_reads, pe=pe, scope="shared")
        reg.inc("array.element_writes", t.shared_writes, pe=pe)
        reg.inc("array.deferred_reads", t.deferred_reads, pe=pe)
        reg.observe("par.spin_wait_s", t.spin_wait_s, pe=pe)
        reg.set_gauge("par.max_spin_wait_s", t.max_spin_wait_s, pe=pe)
        # Same metric family as the simulator's wait-state attribution
        # (see repro.obs.spanlog.build_registry): a worker spinning on an
        # absent shared-array element is the wall-clock counterpart of
        # the simulator's istructure-defer wait.
        reg.set_gauge("wait.us", t.spin_wait_s * 1e6, pe=pe,
                      cause=spin_cause)
        for name, first, last, items, count in t.rf_subranges:
            reg.inc("rf.subrange", count, pe=pe, block=name,
                    first=first, last=last)
            reg.inc("rf.items", items * count, pe=pe)
        for ordinal, touched in t.pages_touched.items():
            pages.setdefault(ordinal, set()).update(touched)
    for ordinal, touched in sorted(pages.items()):
        reg.set_gauge("array.pages_touched", len(touched), array=ordinal)
    return reg


def telemetry_table(worker_stats: list[WorkerTelemetry],
                    who: str = "worker") -> str:
    """Per-worker (``who="node"``: per-node) profile as an aligned text block."""
    lines = [f"{who:<6}  wall(s)  sh-reads  sh-writes  deferred  "
             "max-spin(ms)  rf-subranges"]
    for t in worker_stats:
        ranges = " ".join(
            f"{name}[{first}..{last}]" + (f"*{count}" if count > 1 else "")
            for name, first, last, _items, count in t.rf_subranges)
        lines.append(f"{t.worker:>6}  {t.wall_time_s:>7.3f}  "
                     f"{t.shared_reads:>8}  {t.shared_writes:>9}  "
                     f"{t.deferred_reads:>8}  "
                     f"{t.max_spin_wait_s * 1e3:>12.2f}  "
                     f"{ranges or '-'}")
    return "\n".join(lines)


@dataclass
class SpmdResult:
    """What a run on either wall-clock SPMD substrate produced."""

    value: Any
    wall_time_s: float
    width: int  # workers / nodes
    who: str  # what one unit of ``width`` is: "worker" | "node"
    worker_stats: list[WorkerTelemetry]
    registry: Any  # MetricsRegistry over the telemetry
    recovery: Any  # the run's RecoveryLog
    # Reliable-delivery counters summed over the nodes; None on
    # ``parallel``, which has no network.
    netstats: Any
    # Checkpoint/restore summary (None unless the run wrote or consumed
    # a pods-ckpt/v2 document): snapshots, elements, restored_elements,
    # resumed_from — the run record's ``ckpt`` provenance section.
    ckpt: dict | None

    def telemetry_table(self) -> str:
        """Per-worker (per-node) profile as an aligned text block."""
        return telemetry_table(self.worker_stats, self.who)


def fold_results(value, wall_time_s: float, completed: dict[int, dict],
                 width: int, rlog, ckpt, restore, who: str = "worker",
                 spin_cause: str = "istructure-defer",
                 netstats=None) -> SpmdResult:
    """What a supervisor makes of the workers' ``done`` payloads: the
    telemetry records, the metrics registry with the run's
    ``recovery.*`` and ``ckpt.*`` rows folded in, and the
    checkpoint/restore summary (None when durable execution was off).
    """
    stats = [WorkerTelemetry.from_dict(w, completed.get(w, {}))
             for w in range(width)]
    rlog.replayed_elements = sum(s.replayed_present for s in stats)
    registry = telemetry_registry(stats, spin_cause)
    rlog.to_registry(registry)
    summary = None
    if ckpt is not None or restore is not None:
        # Only then: a dist coordinator is forked fresh for each run, so
        # it would pay the checkpoint package's import on every one.
        from repro.ckpt.format import run_summary

        summary = run_summary(ckpt, restore, registry)
    return SpmdResult(value=value, wall_time_s=wall_time_s, width=width,
                      who=who, worker_stats=stats, registry=registry,
                      recovery=rlog, netstats=netstats, ckpt=summary)


# -- supervision plumbing both launchers share --------------------------


def sigterm_as_interrupt():
    """Make SIGTERM raise ``KeyboardInterrupt`` in the calling (main)
    thread, so one teardown path serves interrupt and termination alike.
    Returns the callable that restores the previous handler."""
    def _sigterm(signum, frame):  # pragma: no cover - signal path
        raise KeyboardInterrupt("SIGTERM")

    try:
        prev_handler = signal.signal(signal.SIGTERM, _sigterm)
    except ValueError:  # not the main thread
        return lambda: None

    def restore() -> None:
        try:
            signal.signal(signal.SIGTERM, prev_handler)
        except ValueError:  # pragma: no cover
            pass
    return restore


def sigterm_default() -> None:
    """In a forked child: drop the inherited SIGTERM→KeyboardInterrupt
    handler — a terminated child should just die, not unwind through it."""
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover
        pass


def reap(procs: list) -> None:
    """Stop every process ever started: terminate, join, kill stragglers."""
    for p in procs:
        if p.is_alive():
            p.terminate()
    for p in procs:
        p.join(timeout=5.0)
        if p.is_alive():  # pragma: no cover - terminate was refused
            p.kill()
            p.join()
