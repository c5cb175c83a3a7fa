"""The one record of a simulated run: an append-only span log.

The simulator writes what it observes about a run into one
:class:`SpanLog` (``Machine.log``; ``RunStats.log`` once the run ends).
An entry is an *interval* or an *instant*:

* a busy interval of one unit on one PE — ``lines[(pe, unit)]``, the
  EU/MU/RU/AM/MM of Figure 7.  Adjacent intervals coalesce as they are
  written, so a saturated unit costs one span, not one per service;
* a run or wait segment of one SP — ``sps[uid].segments``, tuples
  ``(start, end, kind, resolver)``: ``kind`` is ``"run"`` or one of
  :data:`WAIT_CATEGORIES`, ``resolver`` the uid of the SP whose action
  ended a wait, when known (the edge the critical-path walk follows);
* a whole-PE stall of the blocking-read ablation — ``stalls[pe]``;
* an instant of the event trace — ``events``, each an :class:`Instant`
  with its global causal ``seq``.

The machine makes one hook call per site: frame-create, block and
frame-end each write the trace instant and the SP's segment in the same
call.  The :class:`repro.common.config.ObsConfig` fields filter what the
hooks keep: ``timelines`` (or ``waits``) the busy lines, ``waits`` the SP
segments and stalls, ``trace`` the instants (bounded by ``trace_limit``
under ``trace_mode``), ``metrics`` the Range-Filter and page-touch
counters that :func:`build_registry` folds into the run's registry.

Every observability view of a ``sim`` run is a function of the log:
unit utilization (:func:`utilization`), the per-PE wait breakdown and
the critical path (:mod:`repro.obs.critpath`), the Perfetto export
(:mod:`repro.obs.export`), ``pods profile`` (:mod:`repro.obs.profile`)
and ``pods trace``'s listing and summary (:func:`summary`,
:func:`activity`).

Wait categories:

* ``token-wait`` — blocked on an operand produced by another SP;
* ``istructure-defer`` — blocked on an I-structure element not yet
  written (a true dataflow dependency), local or via a deferred remote
  read;
* ``remote-read`` — a split-phase round trip for a *present* element, or
  the whole-PE stall of the blocking-read ablation;
* ``net-queue`` — unit or network queue service: local Array Manager
  reads and allocates, header installation, result delivery;
* ``sched-queue`` — ready but waiting for the Execution Unit (the ready
  queue, or the k-bounded spawn-budget stall).
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from repro.obs.registry import MetricsRegistry
from repro.sim.stats import UNITS

WAIT_CATEGORIES = ("token-wait", "istructure-defer", "remote-read",
                   "net-queue", "sched-queue")
RUN = "run"
IDLE = "idle"

# Attribution priority for concurrent waits (most causal first): a PE
# idle while one SP awaits a missing element and another merely sits in
# the ready queue is blocked *by the dependency*, not by scheduling.
CATEGORY_PRIORITY = ("istructure-defer", "remote-read", "token-wait",
                     "net-queue", "sched-queue")

_EPS = 1e-9

# An SP's open segment: what it is doing since ``open_start``.
_OPEN_RUN = 0
_OPEN_SCHED = 1
_OPEN_BLOCKED = 2


class Line:
    """The busy intervals of one unit on one PE, in time order.

    The sequential-server model writes them start-ordered and
    non-overlapping; a span that starts at or before the frontier
    (within ``_EPS``) extends the last one, clamped to the frontier so
    busy time is never counted twice, and an empty or inverted span is
    ignored.  ``busy_us`` sums the written pieces in write order.
    """

    __slots__ = ("starts", "ends", "busy_us")

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.busy_us = 0.0

    def add(self, start: float, end: float) -> None:
        if end <= start:
            return
        ends = self.ends
        if ends:
            frontier = ends[-1]
            if start - frontier <= _EPS:
                if end > frontier:
                    self.busy_us += end - frontier
                    ends[-1] = end
                return
        self.busy_us += end - start
        self.starts.append(start)
        ends.append(end)

    def __len__(self) -> int:
        return len(self.starts)

    def gaps(self, since: float, until: float) -> list[tuple[float, float]]:
        """Idle intervals: the complement of the spans over a window."""
        out: list[tuple[float, float]] = []
        cursor = since
        for s, e in zip(self.starts, self.ends):
            if e <= since:
                continue
            if s >= until:
                break
            if s > cursor:
                out.append((cursor, min(s, until)))
            cursor = max(cursor, e)
            if cursor >= until:
                return out
        if cursor < until:
            out.append((cursor, until))
        return out


def _skip(start: float, end: float) -> None:
    """The busy hook of a log that keeps no busy lines."""


_SKIP = dict.fromkeys(UNITS, _skip)


class SpLane:
    """One SP's lifetime: who it is and its ``segments``."""

    __slots__ = ("uid", "name", "pe", "created_at", "ended_at", "parent",
                 "segments", "open_kind", "open_start")

    def __init__(self, uid: int, name: str, pe: int, created_at: float,
                 parent: int | None) -> None:
        self.uid = uid
        self.name = name
        self.pe = pe
        self.created_at = created_at
        self.ended_at: float | None = None
        self.parent = parent
        self.segments: list[tuple[float, float, str, int | None]] = []
        # A new SP is ready-queued at once: its first segment is a
        # sched-queue wait until the EU picks it up.
        self.open_kind: int | None = _OPEN_SCHED
        self.open_start = created_at


def _close(sp: SpLane, end: float, kind: str, resolver: int | None) -> None:
    """Close ``sp``'s open segment at ``end``.  A zero-length segment is
    dropped; one that continues the last segment's kind and resolver
    from where it ended extends it."""
    start = sp.open_start
    sp.open_kind = None
    if end <= start + _EPS:
        return
    segments = sp.segments
    if segments:
        ps, pe_, pk, pr = segments[-1]
        if pk == kind and pr == resolver and start - pe_ <= _EPS:
            segments[-1] = (ps, end, pk, pr)
            return
    segments.append((start, end, kind, resolver))


class Instant(NamedTuple):
    """One event of the trace.  ``seq``, ``pe``, ``unit``, ``kind`` and
    ``sp`` are the stable fields the golden trace pins and the Perfetto
    exporter keys its tracks and flows off."""

    time_us: float
    pe: int
    kind: str
    detail: str
    unit: str = ""
    sp: int | None = None
    seq: int = 0

    def format(self) -> str:
        return (f"{self.time_us:12.1f}us  PE{self.pe:<3d} "
                f"{self.kind:<14s} {self.detail}")

    def golden_line(self) -> str:
        """``seq pe unit kind sp``: no times or details, so a golden
        fixture fails only when the scheduling drifts."""
        sp = "-" if self.sp is None else str(self.sp)
        return f"{self.seq} {self.pe} {self.unit or '-'} {self.kind} {sp}"


class SpanLog:
    """Everything one simulated run records (see the module docstring)."""

    def __init__(self, num_pes: int, obs) -> None:
        self.num_pes = num_pes
        self.metrics = obs.metrics
        # Busy lines.  Wait attribution derives idle time from the EU
        # lines, so ``waits`` keeps them too.  ``busy[pe][unit]`` is the
        # hook, bound once: a line's ``add``, or ``_skip``.
        self.lines: dict[tuple[int, str], Line] | None = None
        if obs.timelines or obs.waits:
            self.lines = {(pe, unit): Line() for pe in range(num_pes)
                          for unit in UNITS}
            self.busy = [{unit: self.lines[pe, unit].add for unit in UNITS}
                         for pe in range(num_pes)]
        else:
            self.busy = [_SKIP] * num_pes
        # SP segments and PE stalls.
        self.sps: dict[int, SpLane] | None = {} if obs.waits else None
        self.stalls: dict[int, list[tuple[float, float]]] = {}
        self._open_stall: dict[int, float] = {}
        # The SP whose token carried the program's result.
        self.result_src: int | None = None
        # Instants: the oldest ``trace_limit`` ("drop") or the newest
        # ("ring"); ``seq`` counts every one, kept or not.
        self.events: list[Instant] | deque | None = None
        self.trace_limit = obs.trace_limit
        self.trace_mode = obs.trace_mode
        if obs.trace:
            self.events = (deque(maxlen=obs.trace_limit)
                           if obs.trace_mode == "ring" else [])
        self.seq = 0
        self.dropped = 0
        # Metrics counters: (pe, block, first, last, items) -> count, and
        # the (array id, page) pairs with an element written.
        self.rf_spans: dict[tuple, int] = {}
        self.pages_touched: set[tuple[int, int]] = set()

    # -- hooks (called by the machine) ----------------------------------

    def instant(self, t: float, pe: int, kind: str, detail: str,
                unit: str = "", sp: int | None = None) -> None:
        events = self.events
        if events is None:
            return
        self.seq = seq = self.seq + 1
        if len(events) >= self.trace_limit:
            self.dropped += 1
            if self.trace_mode == "drop":
                return
        events.append(Instant(t, pe, kind, detail, unit, sp, seq))

    def token_match(self, t: float, pe: int, token) -> None:
        if self.events is not None:
            self.instant(t, pe, "token-match", repr(token), "MU")

    def message(self, t: float, pe: int, msg, latency: float,
                smsg=None, dec=None, retransmit: bool = False) -> None:
        """A message put on the wire; ``smsg`` and ``dec`` on the reliable
        path (its sequenced copy and the fault injector's decision)."""
        if self.events is None:
            return
        if smsg is None:
            detail = (f"{type(msg).__name__} -> PE{msg.dst_pe} "
                      f"({msg.wire_bytes}B, +{latency:.0f}us)")
        else:
            flags = " retransmit" if retransmit else ""
            if dec.drop:
                flags += " DROPPED"
            if dec.dup:
                flags += " duplicated"
            if dec.extra_us:
                flags += f" delayed+{dec.extra_us:.0f}us"
            detail = (f"{type(msg).__name__}[seq {smsg.seq}] -> "
                      f"PE{msg.dst_pe} ({smsg.wire_bytes}B, "
                      f"+{latency:.0f}us){flags}")
        self.instant(t, pe, "message", detail, "RU")

    def remote_read(self, t: float, pe: int, aid: int, offset: int,
                    owner: int, sp: int) -> None:
        if self.events is not None:
            self.instant(t, pe, "remote-read",
                         f"array {aid} off {offset} -> PE{owner}", "AM", sp)

    def rf(self, t: float, pe: int, frame, instr, argvals, first: int,
           last: int) -> None:
        """A Range-Filter decision: the trace's ``rf-range`` instant and
        the ``rf.*`` counters."""
        step = -1 if instr.descending else 1
        if self.events is not None:
            span = (f"{first}..{last}" if (last - first) * step >= 0
                    else "empty")
            self.instant(t, pe, "rf-range",
                         f"{frame.name} dim={instr.dim} "
                         f"fixed={list(argvals)} -> {span}", "EU", frame.uid)
        if self.metrics:
            key = (pe, frame.name, first, last,
                   max(0, (last - first) * step + 1))
            self.rf_spans[key] = self.rf_spans.get(key, 0) + 1

    def page_touch(self, aid: int, page: int) -> None:
        if self.metrics:
            self.pages_touched.add((aid, page))

    def sp_create(self, t: float, pe: int, frame) -> None:
        uid = frame.uid
        if self.events is not None:
            self.instant(t, pe, "frame-create",
                         f"{frame.name} uid={uid} ctx={frame.ctx}", "MM",
                         uid)
        if self.sps is not None:
            ctx = frame.ctx
            parent = ctx[0] if ctx and isinstance(ctx[0], int) else None
            self.sps[uid] = SpLane(uid, frame.name, pe, t, parent)

    def run_begin(self, uid: int, t: float) -> None:
        """The EU picked the SP up (its context switch runs on its time)."""
        sp = self.sps[uid]
        kind = sp.open_kind
        if kind == _OPEN_RUN:
            return
        if kind is not None:
            # A sched-queue wait ends; so does a block the machine never
            # saw woken (defensive).
            _close(sp, t, "sched-queue", None)
        sp.open_kind = _OPEN_RUN
        sp.open_start = t

    def run_end(self, uid: int, t: float) -> None:
        sp = self.sps[uid]
        if sp.open_kind == _OPEN_RUN:
            _close(sp, t, RUN, None)

    def block(self, t: float, pe: int, frame, slot: int | None = None) -> None:
        """The SP stopped: on an absent operand ``slot`` (a traced
        ``block``), or on an array header or its spawn budget."""
        if slot is not None and self.events is not None:
            self.instant(t, pe, "block",
                         f"{frame.name} uid={frame.uid} slot={slot}", "EU",
                         frame.uid)
        if self.sps is not None:
            sp = self.sps[frame.uid]
            if sp.open_kind == _OPEN_RUN:
                _close(sp, t, RUN, None)
            sp.open_kind = _OPEN_BLOCKED
            sp.open_start = t

    def wake(self, t: float, uid: int, cause: str,
             resolver: int | None) -> None:
        if self.sps is None:
            return
        sp = self.sps[uid]
        if sp.open_kind != _OPEN_BLOCKED:
            return
        if t < sp.open_start:
            t = sp.open_start
        _close(sp, t, cause, resolver)
        sp.open_kind = _OPEN_SCHED
        sp.open_start = t

    def sp_end(self, t: float, pe: int, frame) -> None:
        if self.events is not None:
            self.instant(t, pe, "frame-end",
                         f"{frame.name} uid={frame.uid}", "EU", frame.uid)
        if self.sps is not None:
            sp = self.sps[frame.uid]
            if sp.open_kind == _OPEN_RUN:
                _close(sp, t, RUN, None)
            sp.open_kind = None
            sp.ended_at = t

    def stall_begin(self, pe: int, t: float) -> None:
        if self.sps is not None:
            self._open_stall[pe] = t

    def stall_end(self, pe: int, t: float) -> None:
        start = self._open_stall.pop(pe, None)
        if start is not None and t > start:
            self.stalls.setdefault(pe, []).append((start, t))

    def result(self, src: int | None) -> None:
        self.result_src = src

    # -- what it holds ---------------------------------------------------

    def busy_lines(self) -> list[tuple[int, str, Line]]:
        """(pe, unit, line) of every line holding a span, in that order."""
        if self.lines is None:
            return []
        return [(pe, unit, line)
                for (pe, unit), line in sorted(self.lines.items()) if line]

    def line(self, pe: int, unit: str) -> Line:
        return self.lines[pe, unit] if self.lines is not None else Line()

    def records(self) -> list[SpLane]:
        """The SP lanes in uid order."""
        return [self.sps[uid] for uid in sorted(self.sps or ())]


# -- views -------------------------------------------------------------


def busy(log: SpanLog, unit: str, pe: int | None = None) -> float:
    """Busy time of ``unit`` on one PE, or summed over all in PE order."""
    if pe is not None:
        return log.line(pe, unit).busy_us
    return sum(log.line(p, unit).busy_us for p in range(log.num_pes))


def utilization(log: SpanLog, unit: str, finish_us: float,
                pe: int | None = None) -> float:
    """Busy fraction derived from the spans (the Figure 8/9 numbers)."""
    if finish_us <= 0:
        return 0.0
    if pe is not None:
        return busy(log, unit, pe) / finish_us
    return busy(log, unit) / (finish_us * log.num_pes)


def wait_spans_by_pe(log: SpanLog,
                     ) -> dict[int, list[tuple[float, float, str]]]:
    """Every SP wait segment plus the PE stalls as (start, end, category),
    grouped by PE; per PE unsorted and possibly overlapping."""
    out: dict[int, list[tuple[float, float, str]]] = {}
    for sp in log.records():
        spans = out.setdefault(sp.pe, [])
        for s, e, kind, _ in sp.segments:
            if kind != RUN:
                spans.append((s, e, kind))
    for pe, stalls in log.stalls.items():
        out.setdefault(pe, []).extend((s, e, "remote-read") for s, e in stalls)
    return out


def final_sp(log: SpanLog) -> int | None:
    """The SP the critical-path walk starts from: the result's producer,
    else the last SP to end."""
    sps = log.sps or {}
    if log.result_src is not None and log.result_src in sps:
        return log.result_src
    best, best_t = None, -1.0
    for sp in log.records():
        t = sp.ended_at
        if t is not None and t > best_t:
            best, best_t = sp.uid, t
    return best


def drop_warning(log: SpanLog) -> str:
    """The banner every human-facing trace output leads with when the
    trace lost events ('' when it is complete)."""
    if not log.dropped:
        return ""
    kept = ("newest kept, oldest evicted" if log.trace_mode == "ring"
            else "oldest kept, recording stopped")
    return (f"WARNING: trace truncated - {log.dropped} of {log.seq} events "
            f"dropped at the {log.trace_limit}-event limit ({kept})")


def listing(events, limit: int | None = None) -> list[str]:
    """One formatted line per instant: the first ``limit``, then a count
    of the rest."""
    events = list(events)
    rows = events if limit is None else events[:limit]
    lines = [e.format() for e in rows]
    if limit is not None and len(events) > limit:
        lines.append(f"... {len(events) - limit} more events")
    return lines


def summary(log: SpanLog) -> str:
    """The trace's event counts by kind, most frequent first."""
    counts: dict[str, int] = {}
    for e in log.events:
        counts[e.kind] = counts.get(e.kind, 0) + 1
    rows = [f"  {kind:<14s} {count}" for kind, count in
            sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
    head = "trace summary:\n"
    warning = drop_warning(log)
    if warning:
        head = warning + "\n" + head
    return head + "\n".join(rows)


def activity(log: SpanLog, finish_us: float, buckets: int = 64) -> str:
    """ASCII activity chart of the trace: a row per PE, a column per time
    bucket, darker where more events fell."""
    if finish_us <= 0 or not log.events:
        return "(no events)"
    num_pes = log.num_pes
    shades = " .:-=+*#%@"
    counts = [[0] * buckets for _ in range(num_pes)]
    for event in log.events:
        if not 0 <= event.pe < num_pes:
            continue
        bucket = min(int(event.time_us / finish_us * buckets), buckets - 1)
        counts[event.pe][bucket] += 1
    peak = max((c for row in counts for c in row), default=1) or 1
    lines = []
    for pe in range(num_pes):
        row = "".join(
            shades[min(int(c / peak * (len(shades) - 1) + (0.999 if c else 0)),
                       len(shades) - 1)]
            for c in counts[pe]
        )
        lines.append(f"PE{pe:<3d}|{row}|")
    lines.append(f"     0{'us':<{buckets - 8}}{finish_us:.0f}us")
    return "\n".join(lines)


def build_registry(log: SpanLog, pe_stats: list, units: tuple,
                   finish_us: float, net=None,
                   wait_breakdown: list | None = None) -> MetricsRegistry:
    """Fold the per-PE counters and the log's counters into one registry.

    Names prefixed ``sim.`` are simulator-model quantities; the
    un-prefixed ``rf.*`` / ``array.*`` families are *semantic* (they
    depend only on the program) and the real backends publish them
    under the same names.  ``wait_breakdown`` (``RunStats.
    wait_breakdown``) publishes as the shared ``wait.us`` family.
    ``net`` is the run's :class:`repro.sim.reliable.ReliableNet` when the
    reliable layer was armed; its non-zero counters publish as
    ``net.*``, so a fault-free run adds no row.
    """
    reg = MetricsRegistry()
    reg.set_gauge("sim.finish_time_us", finish_us)
    for pid, s in enumerate(pe_stats):
        pe = str(pid)
        reg.inc("sim.instructions", s.instructions, pe=pe)
        reg.inc("sim.context_switches", s.context_switches, pe=pe)
        reg.inc("sim.tokens_matched", s.tokens_matched, pe=pe)
        reg.inc("sim.tokens_sent", s.tokens_sent_local, pe=pe,
                scope="local")
        reg.inc("sim.tokens_sent", s.tokens_sent_remote, pe=pe,
                scope="remote")
        reg.inc("sim.frames", s.frames_created, pe=pe, op="create")
        reg.inc("sim.frames", s.frames_destroyed, pe=pe, op="destroy")
        reg.inc("sim.cache", s.cache_hits, pe=pe, outcome="hit")
        reg.inc("sim.cache", s.cache_misses, pe=pe, outcome="miss")
        reg.inc("sim.pages_sent", s.pages_sent, pe=pe)
        reg.inc("sim.messages_sent", s.messages_sent, pe=pe)
        reg.inc("sim.bytes_sent", s.bytes_sent, pe=pe)
        reg.inc("array.element_reads", s.array_reads_local, pe=pe,
                scope="local")
        reg.inc("array.element_reads", s.array_reads_remote, pe=pe,
                scope="remote")
        # A forwarded remote write lands as a local write at the owner,
        # so the local counter alone is the semantic element-write count.
        reg.inc("array.element_writes", s.array_writes_local, pe=pe)
        reg.inc("array.write_forwards", s.array_writes_remote, pe=pe)
        reg.inc("array.deferred_reads",
                s.deferred_local + s.deferred_remote, pe=pe)
        for unit in units:
            reg.set_gauge("sim.unit_busy_us", s.busy[unit], pe=pe,
                          unit=unit)
            if finish_us > 0:
                reg.set_gauge("sim.unit_utilization",
                              s.busy[unit] / finish_us, pe=pe, unit=unit)
    for (pe, block, first, last, items), count in sorted(log.rf_spans.items()):
        reg.inc("rf.subrange", count, pe=pe, block=block, first=first,
                last=last)
        reg.inc("rf.items", items * count, pe=pe)
    pages: dict[int, int] = {}
    for aid, _ in log.pages_touched:
        pages[aid] = pages.get(aid, 0) + 1
    for aid, count in sorted(pages.items()):
        reg.set_gauge("array.pages_touched", count, array=aid)
    if wait_breakdown is not None:
        for pid, per_cause in enumerate(wait_breakdown):
            for cause, us in sorted(per_cause.items()):
                reg.set_gauge("wait.us", us, pe=str(pid), cause=cause)
    if net is not None:
        # ``acks_sent`` has always been published as ``net.acks``.
        for name, value in net.stats.counters().items():
            if value:
                reg.inc("net.acks" if name == "acks_sent"
                        else f"net.{name}", value)
    return reg
