"""The shared retry budget, backoff schedule and recovery log.

One :class:`RetryPolicy` implementation serves every layer that retries
anything: the real-parallel supervisor's worker respawns and takeovers
(:mod:`repro.parallel.executor`), and the distributed backend's
transport reconnects and node-loss takeovers (:mod:`repro.dist`).
Both configs (:class:`repro.common.config.ParallelConfig`,
:class:`repro.common.config.DistConfig`) carry the policy itself as
their ``retry`` field, so its knobs are declared here and nowhere else.
:class:`RecoveryLog` — what a run's healing layer actually did — sits
next to the policy for the same reason: both supervisors record into it.

Determinism discipline: the only "randomness" is backoff jitter, and it
is derived by hashing ``(seed, worker, attempt)`` with blake2b — the
schedule is reproducible run to run, yet de-synchronised across workers
so correlated failures do not produce a thundering herd.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.common.validate import require_nonneg, require_positive_finite

# Growth of the respawn backoff per attempt, before the cap and jitter.
BACKOFF_FACTOR = 2.0


@dataclass(frozen=True)
class RetryPolicy:
    """Respawn limits and backoff schedule for failure recovery.

    ``backoff_s(worker, attempt)`` grows exponentially with ``attempt``
    (1-based), capped at ``backoff_max_s``, then widened by up to
    ``jitter`` fraction.  The jitter term hashes ``(seed, worker,
    attempt)`` — deterministic, but de-synchronised across workers so a
    correlated failure (e.g. the machine paging) does not produce a
    thundering herd of simultaneous respawns.  ``enabled=False`` turns
    healing off altogether (fail fast on the first failure).
    """

    max_retries_per_worker: int = 2
    max_retries_total: int = 8
    backoff_base_s: float = 0.05
    backoff_max_s: float = 2.0
    jitter: float = 0.25
    seed: int = 0
    enabled: bool = True

    def __post_init__(self) -> None:
        require_positive_finite(self, ("backoff_base_s", "backoff_max_s"))
        require_nonneg(self, ("max_retries_per_worker",
                              "max_retries_total", "jitter"))

    def backoff_s(self, worker: int, attempt: int) -> float:
        """Delay before the ``attempt``-th respawn (1-based) of ``worker``."""
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = min(self.backoff_max_s,
                   self.backoff_base_s * BACKOFF_FACTOR ** (attempt - 1))
        return base * (1.0 + self.jitter * self._unit(worker, attempt))

    def _unit(self, worker: int, attempt: int) -> float:
        """Deterministic uniform-ish value in [0, 1) from the run seed."""
        h = hashlib.blake2b(f"{self.seed}:{worker}:{attempt}".encode(),
                            digest_size=8).digest()
        return int.from_bytes(h, "big") / 2 ** 64


# Event kinds recorded by the supervisor, in the order they typically
# appear.  ``failure`` covers every WorkerFailure observed (including
# the ones recovery then heals); ``respawn``/``takeover`` are the two
# healing actions; ``stall`` is a deferred-read watchdog report;
# ``superseded`` is a zombie generation exiting on its own; ``exhausted``
# marks a worker whose per-identity retry budget ran out; ``reissue`` a
# takeover a promoted standby starts again because no node began it.
EVENT_KINDS = ("failure", "respawn", "takeover", "stall", "superseded",
               "exhausted", "failover", "reissue")


@dataclass(frozen=True)
class RecoveryEvent:
    """One entry in the recovery timeline.

    ``t_s`` is seconds since the run started (supervisor clock),
    ``worker`` the slot the event concerns, ``generation`` the execution
    generation involved, ``detail`` a short human-readable qualifier and
    ``dur_s`` an optional span length (backoff waits, takeover spans).
    """

    t_s: float
    kind: str
    worker: int
    generation: int = 1
    detail: str = ""
    dur_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(f"unknown recovery event kind {self.kind!r}")

    def describe(self) -> str:
        line = (f"[{self.t_s:8.3f}s] {self.kind:<10} worker {self.worker} "
                f"gen {self.generation}")
        if self.detail:
            line += f"  {self.detail}"
        return line


@dataclass
class RecoveryLog:
    """Ordered record of everything the recovery layer did in one run."""

    events: list[RecoveryEvent] = field(default_factory=list)
    respawns: int = 0
    takeovers: int = 0
    failovers: int = 0
    stall_reports: int = 0
    supersessions: int = 0
    failures_seen: int = 0
    backoff_total_s: float = 0.0
    replayed_elements: int = 0

    def record(self, event: RecoveryEvent) -> None:
        self.events.append(event)
        if event.kind == "respawn":
            self.respawns += 1
            self.backoff_total_s += event.dur_s
        elif event.kind == "takeover":
            self.takeovers += 1
            self.backoff_total_s += event.dur_s
        elif event.kind == "failover":
            self.failovers += 1
        elif event.kind == "stall":
            self.stall_reports += 1
        elif event.kind == "superseded":
            self.supersessions += 1
        elif event.kind == "failure":
            self.failures_seen += 1

    @property
    def healed(self) -> bool:
        """Whether any healing action (respawn/takeover) happened."""
        return bool(self.respawns or self.takeovers)

    def to_registry(self, registry) -> None:
        """Fold into a :class:`repro.obs.MetricsRegistry`.

        Rows are emitted only for nonzero values so a zero-fault run's
        registry is byte-identical with recovery enabled or disabled —
        the cross-backend differential and bench goldens depend on it.
        """
        pairs = (
            ("recovery.respawns", self.respawns),
            ("recovery.takeovers", self.takeovers),
            ("recovery.stall_reports", self.stall_reports),
            ("recovery.supersessions", self.supersessions),
            ("recovery.failures_seen", self.failures_seen),
            ("recovery.replayed_elements", self.replayed_elements),
        )
        for name, value in pairs:
            if value:
                registry.inc(name, value)
        if self.backoff_total_s > 0:
            registry.observe("recovery.backoff_s", self.backoff_total_s)

    def table(self) -> str:
        """Render the recovery timeline for ``pods profile``."""
        lines = ["recovery", "--------"]
        if not self.events:
            lines.append("(no recovery activity)")
            return "\n".join(lines)
        lines.extend(e.describe() for e in self.events)
        lines.append("")
        lines.append(self.summary())
        return "\n".join(lines)

    def summary(self) -> str:
        parts = [f"failures={self.failures_seen}",
                 f"respawns={self.respawns}",
                 f"takeovers={self.takeovers}"]
        if self.stall_reports:
            parts.append(f"stall_reports={self.stall_reports}")
        if self.supersessions:
            parts.append(f"supersessions={self.supersessions}")
        if self.replayed_elements:
            parts.append(f"replayed_elements={self.replayed_elements}")
        if self.backoff_total_s > 0:
            parts.append(f"backoff_s={self.backoff_total_s:.3f}")
        return " ".join(parts)


def recovery_table(log: RecoveryLog | None) -> str:
    """A result's recovery timeline (``None`` = recovery was disabled)."""
    if log is None:
        return "recovery\n--------\n(recovery disabled)"
    return log.table()
