"""Machine and simulation configuration.

The defaults reproduce the target architecture of the paper's Section 5.1:
an Intel iPSC/2 hypercube of 16 MHz 80386/80387 nodes with Direct-Connect
communication, simulated at the instruction level.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.common.retry import RetryPolicy
from repro.common.validate import require_nonneg, require_positive_finite


@dataclass(frozen=True)
class MachineConfig:
    """Static description of the simulated multiprocessor.

    Attributes:
        num_pes: Number of processing elements (the paper sweeps 1..32).
        page_size: Elements per array page.  The paper determined 32
            elements (~2 KB) to be the best size for the iPSC/2 and found
            the parameter non-critical (Section 4.1).
        token_batch: Tokens batched per network message by the Routing
            Unit (Section 5.1 uses groups of 20).
        avg_hops: Average network hop count modeled (2.5 in the paper).
        element_bytes: Bytes per array element, used to size page messages.
        cache_enabled: Whether remote reads fill the page-grain software
            cache (Section 4's remote data caching; disable for ablation).
        split_phase_reads: Whether remote reads are split-phase
            (issue-and-continue) as in the paper, or blocking (ablation /
            the P&R-style baseline behaviour).
        function_placement: Where non-distributed function-call spawns
            instantiate.  ``"local"`` keeps them on the calling PE (data
            parallelism only); ``"round_robin"`` spreads them over the
            machine — the *functional parallelism* PODS also supports
            (Section 4: "PODS supports both functional and data
            parallelism"), profitable for divide-and-conquer call trees.
    """

    num_pes: int = 1
    page_size: int = 32
    token_batch: int = 20
    avg_hops: float = 2.5
    element_bytes: int = 8
    cache_enabled: bool = True
    split_phase_reads: bool = True
    function_placement: str = "local"
    spawn_budget: int | None = None

    def __post_init__(self) -> None:
        if self.num_pes < 1:
            raise ValueError(f"num_pes must be >= 1, got {self.num_pes}")
        if self.page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {self.page_size}")
        if self.token_batch < 1:
            raise ValueError(f"token_batch must be >= 1, got {self.token_batch}")
        if self.function_placement not in ("local", "round_robin"):
            raise ValueError(
                f"unknown function_placement {self.function_placement!r}")
        if self.spawn_budget is not None and self.spawn_budget < 1:
            raise ValueError("spawn_budget must be >= 1")

    def with_pes(self, num_pes: int) -> "MachineConfig":
        """Return a copy of this config with a different PE count."""
        return replace(self, num_pes=num_pes)


@dataclass(frozen=True)
class ParallelConfig:
    """Knobs for the real-parallel (multiprocessing) backend.

    Attributes:
        workers: Worker processes (the wall-clock counterpart of
            ``num_pes``).
        page_size: Elements per array page, as in :class:`MachineConfig`.
        timeout_s: Overall run deadline; workers still alive at the
            deadline are terminated and reported as hung.
        poll_interval_s: Supervisor poll granularity — a dead or hung
            worker is detected within roughly this bound rather than at
            the full ``timeout_s``.
        grace_s: After a worker's process exits, how long the supervisor
            keeps draining the result queue for the worker's final
            message before declaring the worker crashed/lost (the queue
            feeder thread flushes asynchronously with process exit).
        read_timeout_s: Deferred-read spin bound inside workers; a read
            of a never-written element raises a structured
            :class:`repro.common.errors.DeferredReadTimeout` after this
            long.
        spin_ceiling_s: Per-spin escalation bound, distinct from (and
            normally much smaller than) ``read_timeout_s``: a deferred
            read that has spun this long reports a *stall* to the
            supervisor (naming the array, element and owning worker) and
            keeps spinning.  The supervisor uses the reports to detect
            deadlocks causally — when every live worker is provably
            blocked, the run aborts immediately instead of waiting out
            ``read_timeout_s``.
        retry: The :class:`repro.common.retry.RetryPolicy` the
            supervisor heals with: ``enabled`` turns the self-healing
            layer on (crashed or lost workers are re-executed,
            idempotently thanks to presence bits; ``False`` restores the
            fail-fast behaviour of the bare supervisor), the two
            ``max_retries_*`` budgets bound respawns per worker subrange
            and per run, and the backoff schedule is deterministic in
            ``seed``.
    """

    workers: int = 2
    page_size: int = 32
    timeout_s: float = 120.0
    poll_interval_s: float = 0.05
    grace_s: float = 0.5
    read_timeout_s: float = 30.0
    spin_ceiling_s: float = 1.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {self.page_size}")
        require_positive_finite(self, (
            "timeout_s", "poll_interval_s", "grace_s", "read_timeout_s",
            "spin_ceiling_s"))
        self.retry.__post_init__()


@dataclass(frozen=True)
class ObsConfig:
    """Observability knobs (see :mod:`repro.obs`).

    Everything defaults to off; a run with the default ObsConfig pays
    one ``is None`` check per simulator event and nothing else.

    Attributes:
        metrics: Publish a :class:`repro.obs.MetricsRegistry` on the
            run's :class:`repro.sim.stats.RunStats`.
        timelines: Record per-(PE, unit) busy-interval timelines, from
            which unit utilization (Figures 8/9) is derived and which
            the Perfetto exporter renders one track per PE x unit.
        trace: Record the structured event trace
            (:mod:`repro.sim.trace`).
        trace_limit: Maximum retained trace events.
        trace_mode: What happens at the limit — ``"drop"`` stops
            recording (keeps the oldest events), ``"ring"`` keeps the
            newest by evicting the oldest.  Both count ``dropped``.
        waits: Record per-SP wait-state spans (blocked intervals tagged
            with a cause category — token-wait, istructure-defer,
            remote-read, net-queue, sched-queue) from which the
            blocked-time breakdown and the critical path are derived
            (see :mod:`repro.obs.waits` / :mod:`repro.obs.critpath`).
    """

    metrics: bool = False
    timelines: bool = False
    trace: bool = False
    trace_limit: int = 200_000
    trace_mode: str = "drop"
    waits: bool = False

    def __post_init__(self) -> None:
        if self.trace_limit < 1:
            raise ValueError(
                f"trace_limit must be >= 1, got {self.trace_limit}")
        if self.trace_mode not in ("drop", "ring"):
            raise ValueError(f"unknown trace_mode {self.trace_mode!r}")

    @property
    def enabled(self) -> bool:
        return self.metrics or self.timelines or self.trace or self.waits


@dataclass(frozen=True)
class SimConfig:
    """Dynamic knobs for one simulation run.

    Attributes:
        machine: The machine being simulated.
        max_events: Safety valve against runaway programs; the simulator
            aborts with a diagnostic once this many events have fired.
        obs: Observability configuration (metrics registry, busy
            timelines, trace buffer policy) — see :class:`ObsConfig`.
        jitter_seed: When not None, adds deterministic pseudo-random delays
            to message deliveries.  Used by the Church-Rosser property
            tests: results must not change, only timings.
        jitter_max_us: Upper bound of the injected delay in microseconds.
        reliable: Force the reliable-delivery protocol on (True) or off
            (False) regardless of the fault plan; ``None`` (the default)
            arms it exactly when the run was given a fault plan
            (``Backend.run(faults=...)``).  With the protocol off and
            no faults the simulator is byte-identical to the
            pre-fault-model machine.
        max_sim_time_us: Progress wall in *modeled* time, next to
            ``max_events``: a run whose clock crosses this raises a
            structured :class:`repro.common.errors.LivelockError`
            (or ``PEHaltError`` when a halted PE is the cause) instead
            of simulating forever.  ``None`` = no wall.
        retransmit_timeout_us: How long a reliably-sent message waits
            for its ack before the sender retransmits.
        retransmit_budget: Retransmissions allowed per (src, dst)
            channel before the run aborts with a structured error — the
            guardrail that turns a dead PE or a 100%-lossy link into a
            diagnosis instead of infinite retries.
        quiescence_us: Livelock/partition detector window: when nothing
            but retransmissions has happened for this much modeled time,
            the run aborts with the appropriate structured error.
    """

    machine: MachineConfig = field(default_factory=MachineConfig)
    max_events: int = 200_000_000
    obs: ObsConfig = field(default_factory=ObsConfig)
    jitter_seed: int | None = None
    jitter_max_us: float = 50.0
    reliable: bool | None = None
    max_sim_time_us: float | None = None
    retransmit_timeout_us: float = 5_000.0
    retransmit_budget: int = 8
    quiescence_us: float = 50_000.0

    def __post_init__(self) -> None:
        if self.max_events < 1:
            raise ValueError("max_events must be >= 1")
        if self.max_sim_time_us is not None:
            require_positive_finite(self, ("max_sim_time_us",))
        if self.retransmit_budget < 1:
            raise ValueError("retransmit_budget must be >= 1")
        require_positive_finite(self, ("retransmit_timeout_us",
                                       "quiescence_us"))

    def with_pes(self, num_pes: int) -> "SimConfig":
        """Return a copy of this config with a different PE count."""
        return replace(self, machine=self.machine.with_pes(num_pes))


@dataclass(frozen=True)
class DistConfig:
    """Knobs for the distributed (TCP multi-node) backend.

    Attributes:
        nodes: Node processes (each owns one initial RF identity, like a
            simulated PE; the wire between them is real TCP).
        page_size: Elements per array page; remote reads fill a
            page-grain element cache, as in the paper's Section 4.
        host: Interface the coordinator and nodes bind.  The built-in
            spawn helper forks nodes locally, so the default loopback
            is the supported deployment; the transport itself is
            host-agnostic.
        timeout_s: Overall run deadline; nodes still running at the
            deadline are terminated and the run aborts structurally.
        poll_interval_s: Coordinator supervision granularity (heartbeat
            deadline scans, run-deadline checks).
        connect_timeout_s: How long node registration and peer dialing
            may take before the run aborts.
        read_timeout_s: Split-phase remote-read bound; a read whose
            reply (or local deferred wake) never arrives raises a
            structured :class:`repro.common.errors.DeferredReadTimeout`
            after this long — the distributed face of ``deadlock``.
        heartbeat_interval_s: How often each node heartbeats the
            coordinator.
        heartbeat_timeout_s: Silence threshold after which the
            coordinator declares a node lost (its process may still be
            running — e.g. a partition — so the node is fenced before
            its subranges are reassigned).
        retransmit_timeout_s: How long a reliably-sent frame waits for
            its ack before the sender retransmits (the wall-clock twin
            of ``SimConfig.retransmit_timeout_us``).
        retransmit_budget: Retransmissions allowed per (src, dst)
            channel before the link is declared dead.
        reconnect_attempts: Redials allowed per peer connection before
            the link is declared dead (backoff from the shared
            :class:`repro.common.retry.RetryPolicy`).
        retry: The shared :class:`repro.common.retry.RetryPolicy`:
            ``enabled`` turns node-loss takeover on (a dead node's RF
            subranges are re-executed by a survivor, idempotently via
            presence-bit replay, instead of aborting the run);
            ``max_retries_total`` is the budget of takeovers, past which
            the run aborts with :class:`repro.common.errors.NodeLossError`
            (a node is never respawned, so ``max_retries_per_worker``
            does not apply); its backoff schedule paces both reconnects
            and takeovers.
    """

    nodes: int = 2
    page_size: int = 32
    host: str = "127.0.0.1"
    timeout_s: float = 120.0
    poll_interval_s: float = 0.05
    connect_timeout_s: float = 10.0
    read_timeout_s: float = 30.0
    heartbeat_interval_s: float = 0.2
    heartbeat_timeout_s: float = 2.0
    retransmit_timeout_s: float = 0.25
    retransmit_budget: int = 16
    reconnect_attempts: int = 3
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if self.page_size < 1:
            raise ValueError(f"page_size must be >= 1, got {self.page_size}")
        require_positive_finite(self, (
            "timeout_s", "poll_interval_s", "connect_timeout_s",
            "read_timeout_s", "heartbeat_interval_s", "heartbeat_timeout_s",
            "retransmit_timeout_s"))
        if self.retransmit_budget < 1:
            raise ValueError("retransmit_budget must be >= 1")
        require_nonneg(self, ("reconnect_attempts",))
        self.retry.__post_init__()

