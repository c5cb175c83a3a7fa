"""The uniform execution-backend surface.

The paper's central claim is that one partitioned dataflow program runs
unchanged across execution substrates.  This module is where the
reproduction states that claim as an interface: every way of executing a
compiled program — the instruction-level PODS simulator, the real
multiprocessing backend, the sequential reference interpreter and the
Pingali & Rogers static baseline — is a :class:`Backend` with the same
two-verb surface:

* :meth:`Backend.compile` — source text to a
  :class:`repro.api.Program` (the ``CompiledProgram`` every backend
  accepts);
* :meth:`Backend.run` — program + arguments to a
  :class:`BackendResult` with a uniform result/registry/error surface.

Backends register themselves in a name registry
(:func:`get_backend` / :func:`backend_names`), which is what
``repro.api.Program.run`` and the ``pods run --backend`` CLI dispatch
through; there are no per-backend code paths above this module.

Uniformity has three concrete faces:

**Results.**  :class:`BackendResult` declares what a run produced.
``value`` is the program's answer, ``time_us`` the modeled execution
time (``None`` for the wall-clock backends), ``wall_time_s`` the
measured wall time (``None`` for modeled backends), ``registry`` the
:class:`repro.obs.registry.MetricsRegistry` when the backend publishes
one; ``stats``, ``worker_stats``, ``recovery`` and ``netstats`` are the
simulator's :class:`~repro.sim.stats.RunStats`, the SPMD substrates'
per-worker telemetry and recovery log, and the reliable-delivery
counters — each ``None`` on a substrate that has none.  Everything
under ``src/repro`` reads those fields; ``raw`` (the backend-native
result object) is kept for the frozen benchmark harness alone.

**Metrics.**  Backends with the ``metrics`` capability emit the *same
semantic metric families* (``rf.subrange``, ``rf.items``,
``array.element_writes``, ``array.pages_touched``, ``wait.us{pe,cause}``)
into their registries, so observers can compare executions of one
program across substrates row by row.  The conformance suite
(``tests/conformance/``) holds every backend to this.

**Errors.**  Every failure surfaces as a
:class:`repro.common.errors.PodsError` subclass whose ``code`` names
its place in one substrate-independent taxonomy
(:data:`~repro.common.errors.ERROR_TAXONOMY`, re-exported here with
:func:`classify_error`); the conformance suite asserts that the same
program defect lands on the same code on every backend.
:func:`render_error` is the matching one-line rendering the CLI prints.
"""

from __future__ import annotations

import dataclasses
from abc import ABC, abstractmethod
from dataclasses import dataclass, replace
from typing import Any

from repro.common.errors import (ERROR_TAXONOMY,  # noqa: F401 - re-export
                                 ParallelExecutionError, PodsError,
                                 classify_error)

# -- capabilities -------------------------------------------------------
# Advertised per backend; the conformance harness and the CLI gate
# behaviour (fault plans, metric differentials, time rendering) on these
# instead of on backend names.

MODELED_TIME = "modeled-time"    # time_us is a modeled execution time
WALL_TIME = "wall-time"          # wall_time_s is a measured wall time
PARALLEL = "parallel"            # parallelism > 1 actually parallelizes
METRICS = "metrics"              # publishes a MetricsRegistry
WAITS = "waits"                  # attributes wait time (wait.us family)
TRACE = "trace"                  # structured event trace / Perfetto
FAULTS = "faults"                # accepts a fault-injection plan
RECOVERY = "recovery"            # self-heals injected failures
CHECKPOINT = "checkpoint"        # writes and restores pods-ckpt/v2


class UnknownBackendError(PodsError, ValueError):
    """``get_backend`` was asked for a name nothing registered."""

    def __init__(self, name: str) -> None:
        self.name = name
        known = ", ".join(backend_names(aliases=True))
        super().__init__(f"unknown backend {name!r} (known: {known})")


class BackendConfigError(PodsError, ValueError):
    """A backend was handed arguments it cannot honour."""


@dataclass
class BackendResult:
    """Uniform outcome of one run on any backend.

    ``raw`` is the backend-native result object
    (:class:`repro.sim.machine.RunResult`,
    :class:`repro.runtime.spmd.SpmdResult`,
    :class:`repro.baseline.sequential.SeqResult`,
    :class:`repro.baseline.static_pr.StaticResult`).  It stays because
    the frozen benchmark harness reads it; nothing under ``src/repro``
    outside this module may (``tests/test_layering.py``).
    """

    backend: str
    value: Any
    parallelism: int
    time_us: float | None = None
    wall_time_s: float | None = None
    registry: Any = None
    raw: Any = None
    # What the substrate holds beyond the value, each None where it has
    # none: the simulator's RunStats (unit busy times, timelines, waits,
    # trace); one WorkerTelemetry per worker / node and the RecoveryLog
    # of the two SPMD substrates; the reliable-delivery NetStats of a
    # sim run under a fault plan and of every dist run.
    stats: Any = None
    worker_stats: list | None = None
    recovery: Any = None
    netstats: Any = None
    # Full config fingerprint — backend name, effective parallelism and
    # every config knob flattened to scalars — filled in uniformly by
    # :meth:`Backend.run`.  This is the ``config`` section of a
    # ``pods-run/v1`` record (see :mod:`repro.obs.runrecord`); two runs
    # with equal fingerprints claim to be comparable point for point.
    fingerprint: dict | None = None
    # Checkpoint/restore summary (snapshots, elements, restored_elements,
    # resumed_from) when durable execution was on for the run; None
    # otherwise.  Deliberately NOT part of the fingerprint: a resumed
    # run claims comparability with an uninterrupted one.
    ckpt: dict | None = None

    @property
    def time_s(self) -> float | None:
        """Modeled execution time in seconds (None on wall-clock backends)."""
        return None if self.time_us is None else self.time_us / 1e6

    def to_run_record(self, program=None, args: tuple = ()) -> dict:
        """This result as a self-describing ``pods-run/v1`` record."""
        from repro.obs.runrecord import build_record

        return build_record(self, program=program, args=args)


class Backend(ABC):
    """One execution substrate for compiled IdLite programs.

    Subclasses set ``name`` (the canonical registry key), optional
    ``aliases``, ``capabilities``, and ``noun`` (what a unit of
    parallelism is called in human-facing output), and implement
    :meth:`_run`; one that takes a config object also names the class
    (:meth:`_config_type`), where its width lives (:meth:`_width`,
    :meth:`_with_width`) and, with the ``faults`` capability, its
    dialect's plan class (:meth:`_plan_type`).  The public :meth:`run`
    validates and reconciles arguments uniformly before dispatching.
    """

    name: str = ""
    aliases: tuple[str, ...] = ()
    noun: str = "PEs"
    capabilities: frozenset = frozenset()

    # -- compile ---------------------------------------------------------

    def compile(self, source: str, **kwargs):
        """Compile IdLite source into the shared ``CompiledProgram``.

        Every backend consumes the same :class:`repro.api.Program` (the
        simulator and static baseline read its translated SP templates
        and partitioned graph; the interpreters read its decorated AST),
        so compilation is backend-independent by construction.
        """
        from repro.api import compile_source

        return compile_source(source, **kwargs)

    # -- run -------------------------------------------------------------

    def run(self, program, args: tuple = (), *,
            parallelism: int | None = None, config=None, faults=None,
            ckpt=None, restore=None, **unknown) -> BackendResult:
        """Execute ``program`` and return a :class:`BackendResult`.

        ``parallelism`` is the PE/worker count; ``None`` defers to
        ``config`` (or 1), and an explicit value — ``1`` included — wins
        over a conflicting ``config``.  ``faults`` takes a fault-plan
        spec (or parsed plan) on backends with the ``faults``
        capability, and is the only way a plan enters a run: it is
        parsed here (:meth:`fault_plan`) and recorded in the result's
        fingerprint.  ``ckpt`` / ``restore`` take a
        :class:`repro.ckpt.format.CkptWriter` / ``CkptRestore`` on
        backends with the ``checkpoint`` capability.
        """
        if unknown:
            raise BackendConfigError(
                f"backend {self.name!r} got unknown arguments "
                f"{sorted(unknown)}")
        if parallelism is not None:
            if isinstance(parallelism, bool) or not isinstance(parallelism, int):
                raise BackendConfigError(
                    f"parallelism must be an int, got {parallelism!r}")
            if parallelism < 1:
                raise BackendConfigError(
                    f"parallelism must be >= 1, got {parallelism}")
        if (ckpt is not None or restore is not None) \
                and CHECKPOINT not in self.capabilities:
            raise BackendConfigError(
                f"backend {self.name!r} does not support checkpointing")
        self._check_config(config)
        self._validate_config(config)
        # The one place width is reconciled: _run gets the effective
        # config (None only on config-less backends) and the parsed plan.
        effective = config
        config_type = self._config_type()
        if config is not None:
            if parallelism is not None \
                    and self._width(config) != parallelism:
                effective = self._with_width(config, parallelism)
        elif config_type is not None:
            effective = self._with_width(config_type(), parallelism or 1)
        plan = self.fault_plan(
            faults, 1 if effective is None else self._width(effective))
        result = self._run(program, tuple(args), config=effective,
                           faults=plan, ckpt=ckpt, restore=restore)
        # Uniform capture hook: every result leaves with its full config
        # fingerprint attached, so any caller can turn it into a durable
        # pods-run/v1 record without re-deriving what ran.  Building the
        # dict is a few dozen scalar copies — it never touches modeled
        # time, traces or metrics, keeping the disabled-observability
        # path byte-identical.
        result.fingerprint = config_fingerprint(
            self.name, result.parallelism, config, faults=faults)
        return result

    def fault_plan(self, faults, width: int):
        """Parse ``faults`` (``None`` / spec string / plan) with this
        backend's dialect for a run ``width`` PEs / workers / nodes
        wide; returns the plan (``None`` for none).

        A malformed spec, a value that is no spec, and a clause
        addressed to an identity the run does not have are each a
        :class:`BackendConfigError` naming the clause.
        """
        if faults is None:
            return None
        if FAULTS not in self.capabilities:
            raise BackendConfigError(
                f"backend {self.name!r} does not support fault injection "
                f"(faults={faults!r})")
        from repro.common.faultplan import resolve

        try:
            plan = resolve(faults, self._plan_type())
            plan.check_width(width)
        except ValueError as exc:
            raise BackendConfigError(
                f"backend {self.name!r} cannot run under "
                f"faults={faults!r}: {exc}") from None
        return plan

    def _plan_type(self):
        """This backend's fault-plan class (``faults`` capability)."""
        raise NotImplementedError

    def _check_config(self, config) -> None:
        """Reject a config object meant for a different backend."""
        if config is None:
            return
        expected = self._config_type()
        if expected is None:
            raise BackendConfigError(
                f"backend {self.name!r} takes no config object, got "
                f"{type(config).__name__}")
        if not isinstance(config, expected):
            raise BackendConfigError(
                f"backend {self.name!r} takes a {expected.__name__}, got "
                f"{type(config).__name__}")

    def _config_type(self):
        """The config class this backend accepts (None = no config)."""
        return None

    def _width(self, config) -> int:
        """The PE/worker count ``config`` asks for."""
        raise NotImplementedError

    def _with_width(self, config, width: int):
        """A copy of ``config`` at another PE/worker count."""
        raise NotImplementedError

    def _validate_config(self, config) -> None:
        """Reject config field values this backend cannot run with.

        The config dataclasses validate at construction, but a config
        mutated afterwards (or built around ``__post_init__``) would
        otherwise turn a NaN ``poll_interval_s`` or ``spin_ceiling_s``
        into a supervisor hang instead of an error — so the class's own
        validation runs again here.  Raises :class:`BackendConfigError`
        naming the offending field — never a raw ``ValueError``, never a
        hang.
        """
        if config is None:
            return
        try:
            config.__post_init__()
        except ValueError as exc:
            raise BackendConfigError(
                f"backend {self.name!r}: {exc}") from None

    @abstractmethod
    def _run(self, program, args: tuple, *, config, faults, ckpt,
             restore) -> BackendResult:
        ...

    # -- CLI hooks -------------------------------------------------------

    def cli_config(self, args):
        """Build this backend's config object from ``pods run`` flags."""
        return None

    def cli_parallelism(self, args):
        """The effective width for this backend from ``pods run`` flags."""
        return args.pes

    def render(self, result: BackendResult, args) -> list[str]:
        """Human-facing run summary for ``pods run`` (one line per entry)."""
        lines = [f"value: {result.value}"]
        if result.time_us is not None:
            line = f"modeled time: {result.time_s:.6f} s"
            if PARALLEL in self.capabilities:
                line += f" on {result.parallelism} {self.noun}"
            lines.append(line)
        if result.wall_time_s is not None:
            lines.append(f"wall time: {result.wall_time_s:.3f} s on "
                         f"{result.parallelism} {self.noun}")
        return lines


# -- config fingerprinting ----------------------------------------------


def _flatten_config(obj, prefix: str, out: dict) -> None:
    """Flatten a (possibly nested) config dataclass to dotted scalars."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            sub = f"{prefix}.{f.name}" if prefix else f.name
            _flatten_config(getattr(obj, f.name), sub, out)
        return
    if isinstance(obj, (int, float, str, bool, type(None))):
        out[prefix] = obj
    elif isinstance(obj, (list, tuple)):
        out[prefix] = ",".join(str(v) for v in obj)
    else:
        out[prefix] = str(obj)


def config_fingerprint(backend_name: str, parallelism: int, config=None,
                       faults=None) -> dict:
    """The scalar-only description of *what ran*: backend, effective
    parallelism, every knob of the config object (nested dataclasses
    flattened to dotted keys, non-scalars stringified) and the fault
    plan the run was given (``None`` for none).  Deterministic by
    construction — dataclass field order is fixed and values are
    scalars — so identical runs fingerprint to identical dicts."""
    fp: dict = {"backend": backend_name, "parallelism": parallelism}
    if config is not None:
        fp["config_type"] = type(config).__name__
        flat: dict = {}
        _flatten_config(config, "", flat)
        fp.update(flat)
    fp["faults"] = None if faults is None else str(faults)
    return fp


# -- registry -----------------------------------------------------------

_REGISTRY: dict[str, Backend] = {}
_CANONICAL: list[Backend] = []


def register(backend: Backend) -> Backend:
    """Add ``backend`` to the name registry (canonical name + aliases)."""
    for name in (backend.name, *backend.aliases):
        if name in _REGISTRY:
            raise ValueError(f"backend name {name!r} registered twice")
        _REGISTRY[name] = backend
    _CANONICAL.append(backend)
    return backend


def get_backend(name: str) -> Backend:
    """Resolve a backend by canonical name or alias."""
    backend = _REGISTRY.get(name)
    if backend is None:
        raise UnknownBackendError(name)
    return backend


def backend_names(aliases: bool = False,
                  capability: str | None = None) -> list[str]:
    """Registered canonical names (plus aliases when asked), optionally
    only of the backends advertising ``capability``."""
    return [name for b in _CANONICAL
            if capability is None or capability in b.capabilities
            for name in ((b.name, *b.aliases) if aliases else (b.name,))]


def backends() -> list[Backend]:
    """Every registered backend, in registration order."""
    return list(_CANONICAL)


# -- error rendering ---------------------------------------------------


def render_error(exc: BaseException) -> str:
    """The uniform one-line error rendering (CLI / logs).

    ``error[<ExceptionType>/<taxonomy-code>]: <first message line>`` —
    one line regardless of how much diagnostic tail the structured
    exception carries (blocked-waiter lists, worker tracebacks, ...);
    the full detail stays available on the exception object.
    """
    text = str(exc).strip()
    first = text.splitlines()[0] if text else type(exc).__name__
    if isinstance(exc, ParallelExecutionError) and exc.failures:
        kinds = ",".join(f"worker{f.worker}={f.kind}" for f in exc.failures)
        first += f" [{kinds}]"
    return f"error[{type(exc).__name__}/{classify_error(exc)}]: {first}"


# -- concrete backends --------------------------------------------------


def _net_table(result: BackendResult) -> list[str]:
    """The network fault/recovery summary, when the run met a fault."""
    ns = result.netstats
    return [ns.table()] if ns is not None and ns.any_faults() else []


class _SimConfigBackend(Backend):
    """The two modeled-machine substrates: both take a ``SimConfig``,
    whose width is ``machine.num_pes``."""

    def _config_type(self):
        from repro.common.config import SimConfig

        return SimConfig

    def _width(self, config) -> int:
        return config.machine.num_pes

    def _with_width(self, config, width: int):
        return config.with_pes(width)


class SimBackend(_SimConfigBackend):
    """The instruction-level PODS simulator (the paper's machine)."""

    name = "sim"
    aliases = ("pods",)
    noun = "PEs"
    capabilities = frozenset({MODELED_TIME, PARALLEL, METRICS, WAITS,
                              TRACE, FAULTS, CHECKPOINT})

    def _plan_type(self):
        from repro.sim.netfaults import SimFaultPlan

        return SimFaultPlan

    def _run(self, program, args, *, config, faults, ckpt,
             restore) -> BackendResult:
        from repro.sim.machine import Machine

        # Accept either the shared CompiledProgram or a bare translated
        # PodsProgram (the .pods files of Figure 3).
        pods = getattr(program, "pods", program)
        result = Machine(pods, config, ckpt=ckpt, restore=restore,
                         faults=faults).run(args)
        stats = result.stats
        return BackendResult(backend=self.name, value=result.value,
                             parallelism=config.machine.num_pes,
                             time_us=result.finish_time_us,
                             registry=stats.registry, raw=result,
                             stats=stats, netstats=stats.netstats,
                             ckpt=result.ckpt)

    def cli_config(self, args):
        from repro.common.config import MachineConfig, SimConfig

        return SimConfig(machine=MachineConfig(num_pes=args.pes),
                         max_sim_time_us=args.max_sim_time_us)

    def render(self, result, args) -> list[str]:
        lines = [f"value: {result.value}",
                 f"modeled time: {result.time_s:.6f} s on "
                 f"{result.parallelism} {self.noun}"]
        if getattr(args, "stats", False):
            lines.append(result.stats.report())
        else:
            lines += _net_table(result)
        return lines


class _SpmdBackend(Backend):
    """What the two wall-clock SPMD substrates share at this surface.

    Both execute the compiled :class:`repro.api.Program` they are
    handed — its AST against its already-partitioned graph — under a
    config whose width lives in ``width_field`` (``workers`` /
    ``nodes``), and return a :class:`repro.runtime.spmd.SpmdResult`.
    """

    width_field = ""

    def _width(self, config) -> int:
        return getattr(config, self.width_field)

    def _with_width(self, config, width: int):
        return replace(config, **{self.width_field: width})

    def _launch(self, program, args, **kwargs):
        """Run on the substrate; returns its ``SpmdResult``."""
        raise NotImplementedError

    def _run(self, program, args, *, config, faults, ckpt,
             restore) -> BackendResult:
        from repro.api import Program

        if not isinstance(program, Program):
            raise BackendConfigError(
                f"backend {self.name!r} runs a compiled Program "
                f"(compile_source), got {type(program).__name__}")
        result = self._launch(program, args, config=config, faults=faults,
                              ckpt=ckpt, restore=restore)
        return BackendResult(backend=self.name, value=result.value,
                             parallelism=result.width,
                             wall_time_s=result.wall_time_s,
                             registry=result.registry, raw=result,
                             worker_stats=result.worker_stats,
                             recovery=result.recovery,
                             netstats=result.netstats, ckpt=result.ckpt)

    def render(self, result, args) -> list[str]:
        lines = [f"value: {result.value}",
                 f"wall time: {result.wall_time_s:.3f} s on "
                 f"{result.parallelism} {self.noun}"]
        if result.recovery.events:
            lines.append(result.recovery.table())
        return lines + _net_table(result)


class ParallelBackend(_SpmdBackend):
    """Supervised, self-healing multiprocessing execution (real time)."""

    name = "parallel"
    noun = "workers"
    capabilities = frozenset({WALL_TIME, PARALLEL, METRICS, WAITS, TRACE,
                              FAULTS, RECOVERY, CHECKPOINT})
    width_field = "workers"

    def _config_type(self):
        from repro.common.config import ParallelConfig

        return ParallelConfig

    def _plan_type(self):
        from repro.parallel.faults import FaultPlan

        return FaultPlan

    def _launch(self, program, args, **kwargs):
        from repro.parallel.executor import run_parallel

        return run_parallel(program, args, **kwargs)

    def cli_config(self, args):
        from repro.common.config import ParallelConfig
        from repro.common.retry import RetryPolicy

        return ParallelConfig(
            workers=args.pes,
            retry=RetryPolicy(enabled=not args.no_recovery,
                              max_retries_per_worker=args.retries))

    def render(self, result, args) -> list[str]:
        lines = super().render(result, args)
        trace_json = getattr(args, "trace_json", None)
        if trace_json:
            from repro.obs.export import parallel_trace_json

            with open(trace_json, "w") as fh:
                fh.write(parallel_trace_json(result) + "\n")
            lines.append(f"wrote {trace_json}")
        return lines


class SequentialBackend(Backend):
    """The sequential reference interpreter (the 'compiled C' proxy).

    Inherently serial: ``parallelism`` is accepted for surface
    uniformity and ignored (the conformance matrix runs it at every PE
    count as the oracle).
    """

    name = "seq"
    aliases = ("sequential",)
    noun = "PE"
    capabilities = frozenset({MODELED_TIME})

    def _run(self, program, args, *, config, faults, ckpt,
             restore) -> BackendResult:
        from repro.baseline.sequential import run_sequential

        result = run_sequential(getattr(program, "ast", program), args,
                                entry=getattr(program, "entry", "main"))
        return BackendResult(backend=self.name, value=result.value,
                             parallelism=1, time_us=result.time_us,
                             raw=result)

    def render(self, result, args) -> list[str]:
        return [f"value: {result.value}",
                f"modeled time: {result.time_s:.6f} s"]


class StaticBackend(_SimConfigBackend):
    """The Pingali & Rogers-style static-compilation baseline."""

    name = "static"
    noun = "PEs"
    capabilities = frozenset({MODELED_TIME, PARALLEL})

    def _run(self, program, args, *, config, faults, ckpt,
             restore) -> BackendResult:
        from repro.baseline.static_pr import run_static

        result = run_static(program, args, config=config)
        return BackendResult(backend=self.name, value=result.value,
                             parallelism=config.machine.num_pes,
                             time_us=result.time_us, raw=result)


class DistBackend(_SpmdBackend):
    """Multi-node execution over a fault-tolerant TCP message layer.

    The paper's target deployment: node processes connected by a real
    network, remote I-structure reads as actual split-phase message
    exchanges, page-grain remote caching, and first-element ownership
    deciding which node answers for which subrange.  The spawn helper
    runs the nodes on localhost; the wire protocol itself
    (:mod:`repro.dist.transport`) is host-agnostic.
    """

    name = "dist"
    aliases = ("distributed",)
    noun = "nodes"
    capabilities = frozenset({WALL_TIME, PARALLEL, METRICS, WAITS,
                              FAULTS, RECOVERY, CHECKPOINT})
    width_field = "nodes"

    def _config_type(self):
        from repro.common.config import DistConfig

        return DistConfig

    def _plan_type(self):
        from repro.dist.faults import DistFaultPlan

        return DistFaultPlan

    def _launch(self, program, args, **kwargs):
        from repro.dist.coordinator import run_distributed

        return run_distributed(program, args, **kwargs)

    def cli_config(self, args):
        from repro.common.config import DistConfig
        from repro.common.retry import RetryPolicy

        return DistConfig(nodes=self.cli_parallelism(args),
                          retry=RetryPolicy(enabled=not args.no_recovery))

    def cli_parallelism(self, args):
        # --nodes wins over --pes; without it the two flags agree, so
        # run()'s config-vs-parallelism consistency rule stays inert.
        return getattr(args, "nodes", None) or args.pes


register(SimBackend())
register(ParallelBackend())
register(SequentialBackend())
register(StaticBackend())
register(DistBackend())
