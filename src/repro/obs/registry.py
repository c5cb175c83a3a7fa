"""A labelled metrics registry shared by every backend.

The registry is a deliberately small, dependency-free take on the
Prometheus data model: three instrument kinds (counter, gauge,
histogram), explicit string labels (``pe``, ``unit``, ``worker``, ...),
and deterministic iteration — rows always come back sorted by
(kind, name, labels), so two identical runs dump byte-identical CSV and
JSONL.  That determinism is what lets metric dumps double as golden test
fixtures.

Label values are stringified on the way in; a metric's identity is the
pair ``(name, frozen labels)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

# Geometric histogram bounds: decades split 1/2/5, wide enough for both
# microsecond timings and element counts.
DEFAULT_BOUNDS = tuple(
    m * 10.0 ** e for e in range(-3, 7) for m in (1.0, 2.0, 5.0)
)


def _labelkey(labels: dict) -> tuple:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Histogram:
    """Counts per bucket plus the usual summary moments."""

    bounds: tuple = DEFAULT_BOUNDS
    counts: list[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }


@dataclass(frozen=True)
class MetricRow:
    """One (kind, name, labels) -> value row of a registry dump."""

    kind: str
    name: str
    labels: tuple
    value: object

    def labels_dict(self) -> dict:
        return dict(self.labels)


class MetricsRegistry:
    """Counters, gauges and histograms with explicit labels."""

    def __init__(self) -> None:
        self._counters: dict[tuple, float] = {}
        self._gauges: dict[tuple, float] = {}
        self._hists: dict[tuple, Histogram] = {}

    # -- writing --------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels) -> None:
        key = (name, _labelkey(labels))
        self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        self._gauges[(name, _labelkey(labels))] = value

    def observe(self, name: str, value: float, **labels) -> None:
        key = (name, _labelkey(labels))
        hist = self._hists.get(key)
        if hist is None:
            hist = self._hists[key] = Histogram()
        hist.observe(value)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (counters add, gauges
        overwrite, histograms accumulate)."""
        for (name, lk), v in other._counters.items():
            self._counters[(name, lk)] = self._counters.get((name, lk), 0) + v
        self._gauges.update(other._gauges)
        for (name, lk), hist in other._hists.items():
            mine = self._hists.get((name, lk))
            if mine is None:
                self._hists[(name, lk)] = hist
            else:
                mine.count += hist.count
                mine.total += hist.total
                mine.min = min(mine.min, hist.min)
                mine.max = max(mine.max, hist.max)
                for i, c in enumerate(hist.counts):
                    mine.counts[i] += c

    # -- reading --------------------------------------------------------

    def value(self, name: str, **labels):
        """Counter or gauge value for an exact label set (0 if absent)."""
        key = (name, _labelkey(labels))
        if key in self._counters:
            return self._counters[key]
        return self._gauges.get(key, 0)

    def total(self, name: str) -> float:
        """Sum of a counter over every label combination."""
        return sum(v for (n, _), v in self._counters.items() if n == name)

    def select(self, name: str) -> list[MetricRow]:
        """Every row of one metric, deterministically ordered."""
        return [row for row in self.rows() if row.name == name]

    def rows(self) -> list[MetricRow]:
        """Every row of the registry, sorted by (kind, name, labels)."""
        return [MetricRow(kind, name, lk, value.summary()
                          if kind == "histogram" else value)
                for kind, name, lk, value in self._entries()]

    def _entries(self) -> list[tuple]:
        """``(kind, name, labels, value)`` of every row, sorted by
        (kind, name, labels); a histogram's value is the live one."""
        out = [("counter", *key, v) for key, v in self._counters.items()]
        out += [("gauge", *key, v) for key, v in self._gauges.items()]
        out += [("histogram", *key, h) for key, h in self._hists.items()]
        out.sort(key=lambda r: r[:3])
        return out

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._hists)

    # -- dumps ----------------------------------------------------------

    def to_jsonl(self) -> str:
        """One JSON object per row; byte-stable across identical runs."""
        lines = []
        for row in self.rows():
            lines.append(json.dumps(
                {"kind": row.kind, "name": row.name,
                 "labels": dict(row.labels), "value": row.value},
                sort_keys=True, separators=(",", ":")))
        return "\n".join(lines)

    def to_openmetrics(self, prefix: str = "pods") -> str:
        """OpenMetrics / Prometheus text exposition of the registry.

        Metric names are sanitized (``rf.subrange`` ->
        ``pods_rf_subrange``), counters get the ``_total`` sample
        suffix, histograms expose cumulative ``_bucket{le=...}`` series
        plus ``_count``/``_sum``.  Output order is the registry's
        deterministic (kind, name, labels) order and the text ends with
        the spec's ``# EOF`` terminator, so identical runs expose
        byte-identical pages.
        """
        return openmetrics(self._entries(), prefix)


# -- OpenMetrics encoding -------------------------------------------------


def openmetrics(entries, prefix: str) -> str:
    """The OpenMetrics page of ``entries``: ``(kind, name, labels,
    value)`` in (kind, name, labels) order, one ``# TYPE`` line per
    family.  A histogram's value is a live :class:`Histogram`, exposed
    with its cumulative buckets, or a stored summary, exposed as
    ``_count`` / ``_sum`` alone."""
    lines: list[str] = []
    typed: set[str] = set()
    for kind, name, lk, value in entries:
        mname = _om_name(prefix, name)
        if mname not in typed:
            typed.add(mname)
            lines.append(f"# TYPE {mname} {kind}")
        labels = _om_labels(lk)
        if kind == "counter":
            lines.append(f"{mname}_total{labels} {_om_num(value)}")
        elif kind == "gauge":
            lines.append(f"{mname}{labels} {_om_num(value)}")
        else:
            if isinstance(value, Histogram):
                cumulative = 0
                for bound, count in zip(value.bounds, value.counts):
                    cumulative += count
                    lines.append(
                        f"{mname}_bucket{_om_labels(lk, le=_om_num(bound))} "
                        f"{cumulative}")
                lines.append(f"{mname}_bucket{_om_labels(lk, le='+Inf')} "
                             f"{value.count}")
                value = value.summary()
            lines.append(f"{mname}_count{labels} "
                         f"{_om_num(value.get('count', 0))}")
            lines.append(f"{mname}_sum{labels} "
                         f"{_om_num(value.get('sum', 0.0))}")
    lines.append("# EOF")
    return "\n".join(lines)


def _om_name(prefix: str, name: str) -> str:
    """``<prefix>_<name>`` with every illegal character folded to _."""
    raw = f"{prefix}_{name}" if prefix else name
    out = "".join(c if c.isascii() and (c.isalnum() or c in "_:") else "_"
                  for c in raw)
    if out and out[0].isdigit():
        out = "_" + out
    return out


def _om_escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _om_labels(labelkey: tuple, **extra: str) -> str:
    pairs = [(k, str(v)) for k, v in labelkey]
    pairs += [(k, str(v)) for k, v in extra.items()]
    if not pairs:
        return ""
    body = ",".join(f'{_om_name("", k)}="{_om_escape(v)}"'
                    for k, v in pairs)
    return "{" + body + "}"


def _om_num(v: float) -> str:
    """Deterministic sample formatting: ints bare, floats via repr."""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, int) or (isinstance(v, float) and v.is_integer()):
        return str(int(v))
    return repr(float(v))
