"""The ``pods profile`` report: breakdown + critical path + what-ifs.

Builds on :mod:`repro.obs.waits` / :mod:`repro.obs.critpath` and renders
the three tables the CLI prints:

* per-PE blocked-time breakdown (busy + each wait category + idle,
  summing to the makespan per PE);
* the critical path: total length (= makespan), per-kind contribution,
  and the top-N SPs by path share;
* the Coz-style what-if table ("zeroing remote-read latency predicts
  N x speed-up").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.retry import recovery_table
from repro.obs.critpath import CriticalPath, critical_path, sp_names
from repro.obs.waits import IDLE, RUN, WAIT_CATEGORIES
from repro.runtime.spmd import telemetry_table


def blocked_cause_table(breakdown: list[dict[str, float]], num_pes: int,
                        *, busy_us: list[float] | None = None,
                        finish_us: float | None = None) -> str:
    """The per-PE wait-category table every consumer renders.

    One shared shape for ``pods profile``, ``pods trace --format
    summary`` and ``pods runs show``: a row per PE, a column per wait
    category (plus idle).  Without ``busy_us`` the cells are raw
    microseconds ("blocked causes"); with ``busy_us`` and ``finish_us``
    the cells are percentages of the makespan and a leading busy column
    is added ("blocked-time breakdown").
    """
    cats = list(WAIT_CATEGORIES) + [IDLE]
    if busy_us is None:
        lines = ["blocked causes (us per PE):",
                 "  PE  " + "".join(f"{c:>18s}" for c in cats)]
        for pe in range(num_pes):
            row = f"  {pe:<4d}"
            for cat in cats:
                row += f"{breakdown[pe].get(cat, 0.0):>18.1f}"
            lines.append(row)
        return "\n".join(lines)

    def pct(us: float) -> str:
        if finish_us is None or finish_us <= 0:
            return "0.0%"
        return f"{us / finish_us * 100:.1f}%"

    lines = ["blocked-time breakdown (% of makespan per PE):",
             "  PE   busy  " + "".join(f"{c:>18s}" for c in cats)]
    for pe in range(num_pes):
        row = f"  {pe:<4d}{pct(busy_us[pe]):>6s} "
        for cat in cats:
            row += f"{pct(breakdown[pe].get(cat, 0.0)):>18s}"
        lines.append(row)
    return "\n".join(lines)


@dataclass
class Profile:
    """Everything ``pods profile`` reports, derived from one RunStats."""

    finish_us: float
    num_pes: int
    busy_us: list[float]                  # per-PE EU busy time
    breakdown: list[dict[str, float]]     # per-PE wait category -> us
    path: CriticalPath
    names: dict[int, str]
    # Reliable-delivery counters when the run was executed under a fault
    # plan (RunStats.netstats); None for fault-free runs.
    netstats: object = None

    @classmethod
    def from_stats(cls, stats) -> "Profile":
        """Derive the profile from a RunStats observed with waits on."""
        if stats.wait_breakdown is None:
            raise ValueError(
                "profiling needs a run observed with ObsConfig(waits=True)")
        finish = stats.finish_time_us
        num_pes = stats.num_pes
        # Clamp to the makespan: chunked EU execution can record a span
        # that runs past the result's arrival, and the breakdown only
        # tiles the idle complement of [0, finish].
        busy = [stats.timelines.line(pe, "EU").busy_between(0.0, finish)
                for pe in range(num_pes)]
        path = critical_path(stats.waits, finish)
        return cls(finish_us=finish, num_pes=num_pes, busy_us=busy,
                   breakdown=stats.wait_breakdown, path=path,
                   names=sp_names(stats.waits),
                   netstats=getattr(stats, "netstats", None))

    # -- invariants -----------------------------------------------------

    def accounted_fraction(self, pe: int) -> float:
        """(busy + attributed waits) / makespan for one PE.

        1.0 by construction (the breakdown tiles the idle complement);
        the acceptance tests assert >= 0.99."""
        if self.finish_us <= 0:
            return 1.0
        total = self.busy_us[pe] + sum(self.breakdown[pe].values())
        return total / self.finish_us

    def wait_totals(self) -> dict[str, float]:
        """Machine-wide wait time per category (summed over PEs)."""
        out: dict[str, float] = {}
        for per_pe in self.breakdown:
            for cat, us in per_pe.items():
                out[cat] = out.get(cat, 0.0) + us
        return out

    # -- rendering ------------------------------------------------------

    def render(self, top: int = 10) -> str:
        lines: list[str] = []
        cats = list(WAIT_CATEGORIES) + [IDLE]
        ms = self.finish_us
        lines.append(f"makespan: {ms / 1e6:.6f} s on {self.num_pes} PE(s)")
        lines.append("")
        lines.append(blocked_cause_table(self.breakdown, self.num_pes,
                                         busy_us=self.busy_us,
                                         finish_us=self.finish_us))
        totals = self.wait_totals()
        if totals:
            worst = max(totals, key=lambda c: (totals[c], c))
            lines.append(
                f"  dominant wait: {worst} "
                f"({totals[worst] / 1e6:.6f} s summed over PEs)")
        lines.append("")

        contrib = self.path.contributions()
        lines.append(
            f"critical path: {self.path.total_us / 1e6:.6f} s "
            f"({len(self.path.steps)} segments)")
        for kind in [RUN] + cats + ["unattributed"]:
            us = contrib.get(kind, 0.0)
            if us <= 0:
                continue
            lines.append(f"  {kind:<18s}{us / 1e6:12.6f} s"
                         f"  ({self._pct(us)} of path)")
        lines.append("")

        rows = self.path.top_sps(top, self.names)
        if rows:
            lines.append(f"top {len(rows)} SPs by critical-path share:")
            for label, us, share in rows:
                lines.append(f"  {label:<32s}{us / 1e6:12.6f} s"
                             f"  ({share * 100:5.1f}%)")
            lines.append("")

        what_if = self.path.what_if()
        if what_if:
            lines.append("what-if (zeroing one category's critical-path "
                         "contribution):")
            for cat, predicted, speedup in what_if:
                lines.append(
                    f"  no {cat:<18s}-> {predicted / 1e6:.6f} s "
                    f"({speedup:.2f}x)")
        else:
            lines.append("what-if: critical path is pure compute - no "
                         "wait category to zero")
        if self.netstats is not None and self.netstats.any_faults():
            lines.append("")
            lines.append(self.netstats.table())
        return "\n".join(lines)

    def _pct(self, us: float) -> str:
        if self.finish_us <= 0:
            return "0.0%"
        return f"{us / self.finish_us * 100:.1f}%"


def parallel_profile(result) -> str:
    """The ``pods profile --backend parallel`` report of a
    :class:`repro.backend.BackendResult`.

    The wall-clock counterpart of :class:`Profile`: the per-worker
    telemetry table (reads/writes/deferred spins), the spin-wait share
    of each worker's wall time (istructure-defer in simulator terms),
    and the recovery timeline — respawns, takeovers, stalls — from the
    run's :class:`repro.common.retry.RecoveryLog`.
    """
    lines = [f"parallel run: {result.wall_time_s:.3f} s wall on "
             f"{result.parallelism} worker(s)", ""]
    lines.append(telemetry_table(result.worker_stats))
    lines.append("")
    spins = [(t.worker, t.spin_wait_s, t.wall_time_s)
             for t in result.worker_stats if t.wall_time_s > 0]
    if spins:
        worst = max(spins, key=lambda r: r[1])
        if worst[1] > 0:
            lines.append(
                f"dominant wait: istructure-defer on worker {worst[0]} "
                f"({worst[1]:.3f} s, {worst[1] / worst[2] * 100:.1f}% of "
                "its wall time)")
            lines.append("")
    lines.append(recovery_table(result.recovery))
    return "\n".join(lines)
