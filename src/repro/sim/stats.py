"""Per-PE and machine-wide statistics.

The utilization figures reproduce the paper's measurements: "the fraction
of the time a given facility is busy" (Section 5.3.1) over the five
logical units of Figure 7 — Execution Unit (EU), Matching Unit (MU, the
"MS" series of Figure 8), Routing Unit (RU), Array Manager (AM) and
Memory Manager (MM).

With observability enabled (:class:`repro.common.config.ObsConfig`) a
run additionally carries per-unit busy-interval *timelines* and a
:class:`repro.obs.MetricsRegistry`; utilization can then be derived from
the recorded intervals (``timeline_utilization``) instead of the running
accumulators — the derivation the bench figures use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # no runtime dependency on repro.obs
    from repro.obs.registry import MetricsRegistry
    from repro.obs.timeline import TimelineStore
    from repro.obs.waits import WaitStore
    from repro.sim.reliable import NetStats
    from repro.sim.trace import Tracer

UNITS = ("EU", "MU", "RU", "AM", "MM")


@dataclass
class PEStats:
    """Counters and busy time for one processing element."""

    busy: dict[str, float] = field(
        default_factory=lambda: {u: 0.0 for u in UNITS})
    instructions: int = 0
    context_switches: int = 0
    frames_created: int = 0
    frames_destroyed: int = 0
    tokens_matched: int = 0
    tokens_sent_local: int = 0
    tokens_sent_remote: int = 0
    array_reads_local: int = 0
    array_reads_remote: int = 0
    array_writes_local: int = 0
    array_writes_remote: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    pages_sent: int = 0
    deferred_local: int = 0
    deferred_remote: int = 0
    messages_sent: int = 0
    bytes_sent: int = 0

    def add_busy(self, unit: str, amount: float) -> None:
        self.busy[unit] += amount


@dataclass
class RunStats:
    """Aggregated outcome of one simulation run."""

    num_pes: int
    finish_time_us: float
    pe_stats: list[PEStats]
    events_processed: int = 0
    max_live_frames: int = 0  # high-water mark of live SPs on any one PE
    timelines: "TimelineStore | None" = None
    registry: "MetricsRegistry | None" = None
    waits: "WaitStore | None" = None
    # ``repro.obs.critpath.pe_wait_breakdown`` of ``waits``, derived once
    # when the run ends; None unless waits were recorded.
    wait_breakdown: "list[dict[str, float]] | None" = None
    # Reliable-delivery counters; None unless the fault-tolerant network
    # layer was armed (see repro.sim.reliable).
    netstats: "NetStats | None" = None
    # The run's event trace; None unless ObsConfig(trace=True).
    trace: "Tracer | None" = None
    # ``PE.describe_blocked`` lines of a run that returned: deferred
    # reads no write ever satisfied, left by SPs that ended without
    # using the value they asked for.
    still_blocked: list[str] = field(default_factory=list)

    # -- utilizations ---------------------------------------------------

    def utilization(self, unit: str, pe: int | None = None) -> float:
        """Busy fraction of ``unit`` (averaged over PEs when pe is None)."""
        if self.finish_time_us <= 0:
            return 0.0
        if pe is not None:
            return self.pe_stats[pe].busy[unit] / self.finish_time_us
        total = sum(s.busy[unit] for s in self.pe_stats)
        return total / (self.finish_time_us * self.num_pes)

    def utilizations(self) -> dict[str, float]:
        """Average utilization of every unit (the Figure 8 bars)."""
        return {u: self.utilization(u) for u in UNITS}

    def timeline_utilization(self, unit: str, pe: int | None = None) -> float:
        """Utilization *derived* from recorded busy intervals.

        Falls back to the accumulator-based number when the run was not
        observed with ``ObsConfig(timelines=True)``.
        """
        if self.timelines is None:
            return self.utilization(unit, pe)
        return self.timelines.utilization(unit, self.finish_time_us, pe=pe)

    # -- convenience aggregates ------------------------------------------

    def total(self, attr: str) -> int:
        return sum(getattr(s, attr) for s in self.pe_stats)

    @property
    def instructions(self) -> int:
        return self.total("instructions")

    @property
    def context_switches(self) -> int:
        return self.total("context_switches")

    @property
    def remote_reads(self) -> int:
        return self.total("array_reads_remote")

    @property
    def cache_hit_rate(self) -> float:
        hits = self.total("cache_hits")
        misses = self.total("cache_misses")
        if hits + misses == 0:
            return 0.0
        return hits / (hits + misses)

    def to_dict(self) -> dict:
        """JSON-ready summary (for external tooling / saved runs)."""
        return {
            "num_pes": self.num_pes,
            "finish_time_us": self.finish_time_us,
            "events": self.events_processed,
            "instructions": self.instructions,
            "context_switches": self.context_switches,
            "max_live_frames": self.max_live_frames,
            "utilization": self.utilizations(),
            "tokens_local": self.total("tokens_sent_local"),
            "tokens_remote": self.total("tokens_sent_remote"),
            "array_reads_local": self.total("array_reads_local"),
            "array_reads_remote": self.remote_reads,
            "array_writes_remote": self.total("array_writes_remote"),
            "cache_hit_rate": self.cache_hit_rate,
            "pages_sent": self.total("pages_sent"),
            "frames_created": self.total("frames_created"),
        }

    def report(self) -> str:
        """Human-readable run summary."""
        util = self.utilizations()
        lines = [
            f"PEs: {self.num_pes}",
            f"finish time: {self.finish_time_us / 1e6:.6f} s",
            f"events: {self.events_processed}",
            f"instructions: {self.instructions}",
            f"context switches: {self.context_switches}",
            "utilization: " + "  ".join(
                f"{u}={util[u] * 100:.1f}%" for u in UNITS),
            f"tokens: local={self.total('tokens_sent_local')} "
            f"remote={self.total('tokens_sent_remote')}",
            f"array reads: local={self.total('array_reads_local')} "
            f"remote={self.remote_reads} "
            f"(cache hit rate {self.cache_hit_rate * 100:.1f}%)",
            f"array writes: local={self.total('array_writes_local')} "
            f"remote={self.total('array_writes_remote')}",
            f"pages shipped: {self.total('pages_sent')}",
            f"frames: {self.total('frames_created')} "
            f"(peak live on one PE: {self.max_live_frames})",
        ]
        if self.netstats is not None and self.netstats.any_faults():
            lines.append(self.netstats.table())
        return "\n".join(lines)
