"""Event tracing for the PODS simulator.

With ``SimConfig(obs=ObsConfig(trace=True))`` the machine records a
timeline of scheduling-relevant events (SP life cycle, token matching,
array traffic, messages).  Useful for debugging programs ("why is this
SP blocked?") and for teaching — the trace of the paper's
Figure 2 example shows the LD replication and Range-Filter exits PE by
PE.

Each event carries, besides the human-readable ``detail``:

* ``seq`` — its global causal sequence number (assigned in recording
  order, which the deterministic event queue makes a pure function of
  the run configuration);
* ``unit`` — the functional unit it belongs to (EU/MU/MM/AM/RU);
* ``sp`` — the frame uid of the SP involved, when there is one.

Those are the *stable* fields: the golden-trace tests pin them down
(``tests/obs/test_golden_trace.py``) and the Perfetto exporter keys its
tracks and flow arrows off them.

Two overflow policies exist.  ``mode="drop"`` (default) stops recording
at the limit and keeps the oldest events; ``mode="ring"`` keeps the
*newest* events by evicting the oldest.  Either way ``dropped`` counts
what was lost and every summary/format output leads with a warning —
a truncated trace must never look complete.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TraceEvent:
    time_us: float
    pe: int
    kind: str
    detail: str
    unit: str = ""
    sp: int | None = None
    seq: int = 0

    def format(self) -> str:
        return f"{self.time_us:12.1f}us  PE{self.pe:<3d} {self.kind:<14s} {self.detail}"

    def golden_line(self) -> str:
        """Stable-field projection: ``seq pe unit kind sp``.

        Excludes times (jitter/model-sensitive) and detail strings
        (formatting-sensitive) so golden fixtures only fail when the
        *scheduling behavior* drifts.
        """
        sp = "-" if self.sp is None else str(self.sp)
        return f"{self.seq} {self.pe} {self.unit or '-'} {self.kind} {sp}"


@dataclass
class Tracer:
    """Bounded in-memory event recorder (drop or ring overflow)."""

    limit: int = 200_000
    mode: str = "drop"
    events: list[TraceEvent] = field(default_factory=list)
    dropped: int = 0
    seq: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("drop", "ring"):
            raise ValueError(f"unknown trace mode {self.mode!r}")
        if self.mode == "ring":
            self.events = deque(self.events, maxlen=self.limit)

    def record(self, time_us: float, pe: int, kind: str, detail: str,
               unit: str = "", sp: int | None = None) -> None:
        self.seq += 1
        if len(self.events) >= self.limit:
            self.dropped += 1
            if self.mode == "drop":
                return
            # ring: the deque evicts the oldest on append
        self.events.append(
            TraceEvent(time_us, pe, kind, detail, unit, sp, self.seq))

    @property
    def truncated(self) -> bool:
        return self.dropped > 0

    def drop_warning(self) -> str:
        """One-line banner for any human-facing output; '' if complete."""
        if not self.dropped:
            return ""
        kept = ("newest kept, oldest evicted" if self.mode == "ring"
                else "oldest kept, recording stopped")
        return (f"WARNING: trace truncated - {self.dropped} of "
                f"{self.seq} events dropped at the {self.limit}-event "
                f"limit ({kept})")

    # -- queries ----------------------------------------------------------

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def format(self, limit: int | None = None) -> str:
        events = list(self.events)
        rows = events if limit is None else events[:limit]
        lines = [e.format() for e in rows]
        if limit is not None and len(events) > limit:
            lines.append(f"... {len(events) - limit} more events")
        if self.dropped:
            lines.append(f"... {self.dropped} events dropped (limit)")
        return "\n".join(lines)

    def summary(self) -> str:
        counts = self.counts()
        rows = [f"  {kind:<14s} {count}" for kind, count in
                sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
        head = "trace summary:\n"
        warning = self.drop_warning()
        if warning:
            head = warning + "\n" + head
        return head + "\n".join(rows)


def timeline(tracer: Tracer, num_pes: int, finish_us: float,
             buckets: int = 64) -> str:
    """ASCII activity timeline: one row per PE, one column per time
    bucket, darkness by event density.  A quick visual answer to "which
    PEs were doing anything, when?"."""
    if finish_us <= 0 or not tracer.events:
        return "(no events)"
    shades = " .:-=+*#%@"
    counts = [[0] * buckets for _ in range(num_pes)]
    for event in tracer.events:
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
