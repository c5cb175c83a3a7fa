"""Blocked-time breakdown and critical-path extraction.

Two derivations over a run's span log (:mod:`repro.obs.spanlog`):

* :func:`pe_wait_breakdown` — for each PE, how its *idle* time (the
  complement of the EU busy line) splits across the wait categories.
  Concurrent waits are resolved by :data:`repro.obs.spanlog.CATEGORY_PRIORITY`
  (a dependency stall outranks a mere scheduling wait), and idle time no
  SP was waiting through is reported as ``idle`` (starvation).  Per PE,
  ``EU busy + sum(breakdown)`` equals the makespan *exactly*.

* :func:`critical_path` — the longest weighted dependency chain of the
  run, reconstructed by walking backward from the result through run
  segments, wake edges (token producers, I-structure writers, budget
  releases) and spawn edges.  The path's segments tile ``[0, makespan]``,
  so its total length equals the makespan by construction, and its
  per-category contributions answer the Coz-style what-if questions
  ("what if remote reads were free?") directly: zeroing a category's
  contribution is the first-order bound on the achievable makespan.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from repro.obs.spanlog import (
    CATEGORY_PRIORITY,
    IDLE,
    RUN,
    WAIT_CATEGORIES,
    SpanLog,
    final_sp,
    wait_spans_by_pe,
)

UNATTRIBUTED = "unattributed"

_EPS = 1e-9
_MAX_STEPS = 1_000_000
_MAX_STALLED = 10_000


# ---------------------------------------------------------------------
# per-PE blocked-time breakdown
# ---------------------------------------------------------------------


def pe_wait_breakdown(log: SpanLog, finish_us: float,
                      ) -> list[dict[str, float]]:
    """Attribute each PE's idle time to wait categories.

    Returns one ``{category: us}`` dict per PE (zero categories omitted;
    unexplained idle appears under ``"idle"``), the sums of
    :func:`pe_wait_intervals`.  The invariant checked by the acceptance
    tests: for every PE, the EU's busy time up to ``finish_us`` plus
    ``sum(breakdown[pe].values())`` equals ``finish_us`` exactly.
    """
    out: list[dict[str, float]] = []
    for intervals in pe_wait_intervals(log, finish_us):
        breakdown: dict[str, float] = {}
        for s, e, cat in intervals:
            breakdown[cat] = breakdown.get(cat, 0.0) + (e - s)
        out.append({k: v for k, v in breakdown.items() if v > _EPS})
    return out


def pe_wait_intervals(log: SpanLog, finish_us: float,
                      ) -> list[list[tuple[float, float, str]]]:
    """Per PE, the non-overlapping attributed idle intervals,
    time-ordered, from one walk of the SP lanes.

    Each PE's list exactly tiles the complement of its EU busy line over
    ``[0, finish_us]``; the Perfetto exporter renders these on the
    per-PE wait track."""
    spans = wait_spans_by_pe(log)
    out = []
    for pe in range(log.num_pes):
        merged: dict[str, list[tuple[float, float]]] = {}
        for s, e, cat in spans.get(pe, ()):
            if e > s:
                merged.setdefault(cat, []).append((s, e))
        for cat, cat_spans in merged.items():
            merged[cat] = _merge(cat_spans)
        intervals: list[tuple[float, float, str]] = []
        for lo, hi in log.line(pe, "EU").gaps(0.0, finish_us):
            _attribute_gap(lo, hi, merged, intervals)
        out.append(intervals)
    return out


def _merge(spans: list[tuple[float, float]]) -> list[tuple[float, float]]:
    spans.sort()
    merged: list[tuple[float, float]] = []
    for s, e in spans:
        if merged and s <= merged[-1][1] + _EPS:
            if e > merged[-1][1]:
                merged[-1] = (merged[-1][0], e)
        else:
            merged.append((s, e))
    return merged


def _attribute_gap(lo: float, hi: float,
                   merged: dict[str, list[tuple[float, float]]],
                   out: list[tuple[float, float, str]]) -> None:
    """Split one idle interval by the highest-priority category covering
    each elementary sub-interval, appending (start, end, category)."""
    # Elementary boundaries: the gap ends plus every span edge inside.
    bounds = {lo, hi}
    for spans in merged.values():
        bounds.update(_edges_inside(lo, hi, spans))
    cuts = sorted(bounds)
    for a, b in zip(cuts, cuts[1:]):
        if b - a <= _EPS:
            continue
        mid = (a + b) / 2.0
        cat = IDLE
        for candidate in CATEGORY_PRIORITY:
            if _covers(merged.get(candidate), mid):
                cat = candidate
                break
        if out and out[-1][2] == cat and a - out[-1][1] <= _EPS:
            out[-1] = (out[-1][0], b, cat)
        else:
            out.append((a, b, cat))


def _edges_inside(lo: float, hi: float,
                  spans: list[tuple[float, float]]) -> list[float]:
    """Span edges strictly inside ``(lo, hi)``.  A merged list is sorted
    and disjoint, so only the span that may straddle ``lo`` and those
    starting before ``hi`` can have one."""
    edges = []
    for k in range(max(bisect_left(spans, (lo,)) - 1, 0), len(spans)):
        s, e = spans[k]
        if s >= hi:
            break
        if lo < s:
            edges.append(s)
        if lo < e < hi:
            edges.append(e)
    return edges


def _covers(spans: list[tuple[float, float]] | None, point: float) -> bool:
    if not spans:
        return False
    i = bisect_left(spans, (point, float("inf")))
    return i > 0 and spans[i - 1][1] > point


# ---------------------------------------------------------------------
# critical path
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class PathStep:
    """One interval of the critical path."""

    start: float
    end: float
    kind: str  # "run", a wait category, or "unattributed"
    sp: int | None  # the SP the interval belongs to (None once lost)

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class CriticalPath:
    """The longest weighted dependency chain of one run.

    ``steps`` tile ``[0, total_us]`` in chronological order, so
    ``sum(step.duration) == total_us == makespan``.
    """

    total_us: float
    steps: list[PathStep] = field(default_factory=list)

    def contributions(self) -> dict[str, float]:
        """Total path time per kind (run + each wait category)."""
        out: dict[str, float] = {}
        for step in self.steps:
            out[step.kind] = out.get(step.kind, 0.0) + step.duration
        return out

    def what_if(self) -> list[tuple[str, float, float]]:
        """Coz-style first-order estimates, most valuable first.

        Returns ``(category, predicted_makespan_us, predicted_speedup)``
        for every wait category on the path: the makespan if that
        category's critical-path contribution were zero.
        """
        contrib = self.contributions()
        rows = []
        for cat in WAIT_CATEGORIES:
            us = contrib.get(cat, 0.0)
            if us <= _EPS:
                continue
            predicted = self.total_us - us
            speedup = (self.total_us / predicted
                       if predicted > _EPS else float("inf"))
            rows.append((cat, predicted, speedup))
        rows.sort(key=lambda r: r[1])
        return rows

    def top_sps(self, n: int = 10,
                names: dict[int, str] | None = None,
                ) -> list[tuple[str, float, float]]:
        """The SPs carrying the most critical-path time.

        Returns ``(label, path_us, share)`` rows, largest first; run and
        wait time both count toward the SP they belong to.
        """
        per_sp: dict[int, float] = {}
        for step in self.steps:
            if step.sp is not None:
                per_sp[step.sp] = per_sp.get(step.sp, 0.0) + step.duration
        rows = sorted(per_sp.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
        out = []
        for uid, us in rows:
            label = (names or {}).get(uid, f"sp-{uid}")
            share = us / self.total_us if self.total_us > 0 else 0.0
            out.append((f"{label} (uid {uid})", us, share))
        return out


def critical_path(log: SpanLog, makespan_us: float) -> CriticalPath:
    """Walk backward from the result to t=0, following the binding edge
    at every point.

    At a wait whose resolver is known, the walk jumps *to the resolver at
    the wake time*: if the resolver was computing straight through, the
    wait contributes nothing (the compute was binding — Coz semantics);
    if the resolver's own activity ended earlier, the gap up to the wake
    is the dependency's latency and is charged to the wait's category.
    Waits without a resolver (network round trips, header installs,
    environment tokens) are charged wholly to their category.
    """
    cp = CriticalPath(total_us=makespan_us)
    if makespan_us <= _EPS:
        return cp
    sps = log.sps
    uid = final_sp(log)
    if uid is None:
        cp.steps.append(PathStep(0.0, makespan_us, UNATTRIBUTED, None))
        return cp

    steps: list[PathStep] = []
    t = makespan_us
    # Category charged to a gap found in the current SP's history: the
    # result token's MU/network delivery for the initial jump.
    link_cat = "net-queue"
    starts_cache: dict[int, list[float]] = {}
    stalled = 0

    def emit(lo: float, kind: str, sp: int | None) -> float:
        nonlocal stalled
        if t - lo > _EPS:
            steps.append(PathStep(lo, t, kind, sp))
            stalled = 0
        else:
            stalled += 1
        return max(lo, 0.0)

    for _ in range(_MAX_STEPS):
        if t <= _EPS or stalled > _MAX_STALLED:
            break
        rec = sps.get(uid) if uid is not None else None
        if rec is None:
            t = emit(0.0, UNATTRIBUTED, None)
            break
        starts = starts_cache.get(rec.uid)
        if starts is None:
            starts = starts_cache[rec.uid] = [s for s, _, _, _ in rec.segments]
        i = bisect_left(starts, t) - 1
        if i < 0:
            # Before the SP's first recorded activity: follow the spawn
            # edge to the parent; the remaining gap at the parent is
            # token-delivery latency.
            t = min(t, rec.created_at) if rec.created_at < t else t
            if rec.parent is not None and rec.parent in sps:
                uid = rec.parent
                link_cat = "net-queue"
                stalled += 1
                continue
            t = emit(0.0, "net-queue", rec.uid)
            break
        s, e, kind, resolver = rec.segments[i]
        if e < t - _EPS:
            # The SP was inactive between e and t (it had already ended,
            # or the store lost the interval): charge the link category.
            t = emit(e, link_cat, rec.uid)
            continue
        if kind == RUN:
            t = emit(s, RUN, rec.uid)
            link_cat = "net-queue"
            continue
        # A wait segment.  Follow the resolver when known: the binding
        # activity is the resolver's most recent *run* segment finishing
        # by the wake; everything between that and the wake is the
        # dependency's latency and belongs to the wait's category.
        # (Jumping to the resolver "at the wake time" instead would land
        # inside whatever the resolver was doing *after* producing the
        # value — including a wait resolved by us, an infinite
        # oscillation for mutually-dependent loop SPs.)
        wake = min(t, e)
        if resolver is not None and resolver in sps:
            rrec = sps[resolver]
            rstarts = starts_cache.get(rrec.uid)
            if rstarts is None:
                rstarts = starts_cache[rrec.uid] = [
                    rs for rs, _, _, _ in rrec.segments]
            j = bisect_left(rstarts, wake) - 1
            while j >= 0:
                rseg = rrec.segments[j]
                if rseg[2] == RUN and rseg[1] <= wake + _EPS:
                    break
                j -= 1
            if j >= 0:
                t = emit(min(rrec.segments[j][1], wake), kind, rec.uid)
                uid = resolver
                link_cat = kind
                continue
        t = emit(s, kind, rec.uid)
        link_cat = kind
    if t > _EPS:
        steps.append(PathStep(0.0, t, UNATTRIBUTED, None))
    steps.reverse()
    cp.steps = steps
    return cp


def sp_names(log: SpanLog) -> dict[int, str]:
    """uid -> template name map for labelling path steps."""
    return {sp.uid: sp.name for sp in log.records()}
