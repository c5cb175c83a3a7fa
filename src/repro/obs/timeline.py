"""Per-unit busy-interval timelines.

The simulator's event loop reports every interval a functional unit is
occupied (through each line's bound ``TimelineStore.adder``); adjacent
intervals coalesce, so a saturated unit costs one span, not one per
service.  Utilization — the paper's "fraction of the time a given
facility is busy" — is then a *derivation* over the spans rather than a
separately maintained accumulator, and the same spans feed the Perfetto
exporter one track per PE x unit.

Spans arrive in nondecreasing start order and never overlap within one
(pe, unit) — both properties fall out of the sequential-server model
(each unit's next span starts at or after its previous one finished).
The store is nevertheless defensive about malformed input: zero-length
and inverted spans are ignored, and a span that starts before the
current frontier (an out-of-order end) is *clamped* to begin at the
frontier, so busy time is never double-counted and the derived
utilizations stay consistent with the coalesced span list.

With ``span_limit`` set, a timeline that reaches the limit stops
retaining new distinct spans (``truncated``/``dropped`` expose the loss)
but keeps accumulating ``busy_us`` and keeps coalescing against its last
retained span — utilization derived across a truncation stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass

# Two spans closer than this (us) are the same busy interval.
_COALESCE_EPS = 1e-9


@dataclass(frozen=True)
class Span:
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class UnitTimeline:
    """Busy intervals of one unit on one PE, coalesced, in time order."""

    __slots__ = ("starts", "ends", "busy_us", "limit", "dropped",
                 "_listing")

    def __init__(self, limit: int | None = None,
                 listing: tuple | None = None) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.busy_us = 0.0
        self.limit = limit
        self.dropped = 0
        # ``(lines, key)`` of a store line bound before it held a span
        # (TimelineStore.adder): its first span lists it there.
        self._listing = listing

    def add(self, start: float, end: float) -> None:
        if end <= start:
            return
        ends = self.ends
        if ends:
            frontier = ends[-1]
            if start - frontier <= _COALESCE_EPS:
                # Adjacent, overlapping, or out-of-order: clamp to the
                # frontier so overlapping time is counted exactly once.
                if end > frontier:
                    self.busy_us += end - frontier
                    ends[-1] = end
                return
        elif self._listing is not None:
            lines, key = self._listing
            lines[key] = self
            self._listing = None
        self.busy_us += end - start
        if self.limit is not None and len(self.starts) >= self.limit:
            # Overflow: the busy accumulator stays exact, the span list
            # stops growing, and the loss is counted — a truncated
            # timeline must never silently read as complete.
            self.dropped += 1
            return
        self.starts.append(start)
        ends.append(end)

    @property
    def truncated(self) -> bool:
        return self.dropped > 0

    def spans(self) -> list[Span]:
        return [Span(s, e) for s, e in zip(self.starts, self.ends)]

    def __len__(self) -> int:
        return len(self.starts)

    def busy_between(self, since: float, until: float) -> float:
        """Busy time overlapping the window [since, until].

        Computed over the *retained* spans, so it undercounts after a
        truncation (check ``truncated``); total ``busy_us`` stays exact.
        """
        total = 0.0
        for s, e in zip(self.starts, self.ends):
            lo = max(s, since)
            hi = min(e, until)
            if hi > lo:
                total += hi - lo
        return total

    def gaps(self, since: float, until: float) -> list[Span]:
        """Idle intervals: the complement of the spans over a window."""
        out: list[Span] = []
        cursor = since
        for s, e in zip(self.starts, self.ends):
            if e <= since:
                continue
            if s >= until:
                break
            if s > cursor:
                out.append(Span(cursor, min(s, until)))
            cursor = max(cursor, e)
            if cursor >= until:
                return out
        if cursor < until:
            out.append(Span(cursor, until))
        return out


class TimelineStore:
    """All (pe, unit) timelines of one run."""

    def __init__(self, num_pes: int, span_limit: int | None = None) -> None:
        self.num_pes = num_pes
        self.span_limit = span_limit
        # Lines that hold a span, in the order their first span landed.
        self._lines: dict[tuple[int, str], UnitTimeline] = {}

    def adder(self, pe: int, unit: str):
        """The (pe, unit) line's ``add(start, end)``, bound once for a
        hot path.  A line is listed — in ``items``, ``units``, ``busy`` —
        only once its first span lands, however early it was bound (so
        bind a line once: two binds before its first span are two
        lines)."""
        key = (pe, unit)
        line = self._lines.get(key)
        if line is None:
            line = UnitTimeline(self.span_limit, listing=(self._lines, key))
        return line.add

    def span(self, pe: int, unit: str, start: float, end: float) -> None:
        self.adder(pe, unit)(start, end)

    def line(self, pe: int, unit: str) -> UnitTimeline:
        return self._lines.get((pe, unit)) or UnitTimeline()

    def units(self) -> list[str]:
        return sorted({unit for _, unit in self._lines})

    def items(self) -> list[tuple[int, str, UnitTimeline]]:
        """Deterministic (pe, unit, timeline) iteration."""
        return [(pe, unit, line)
                for (pe, unit), line in sorted(self._lines.items())]

    @property
    def truncated(self) -> bool:
        return any(line.truncated for line in self._lines.values())

    @property
    def dropped(self) -> int:
        return sum(line.dropped for line in self._lines.values())

    # -- derivations ----------------------------------------------------

    def busy(self, unit: str, pe: int | None = None) -> float:
        """Total busy time of ``unit`` (one PE, or summed over all)."""
        if pe is not None:
            return self.line(pe, unit).busy_us
        return sum(line.busy_us for (p, u), line in self._lines.items()
                   if u == unit)

    def utilization(self, unit: str, finish_us: float,
                    pe: int | None = None) -> float:
        """Busy fraction derived from the spans (Figure 8/9 numbers)."""
        if finish_us <= 0:
            return 0.0
        if pe is not None:
            return self.busy(unit, pe) / finish_us
        return self.busy(unit) / (finish_us * self.num_pes)
