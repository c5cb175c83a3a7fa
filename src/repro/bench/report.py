"""Plain-text tables and charts for the benchmark harness.

The paper's figures are bar/line charts; these helpers render the same
series as aligned ASCII so a terminal run of the bench suite reproduces
each one at a glance, and the text lands verbatim in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def render_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Fixed-width table; floats get 3 significant decimals."""
    def fmt(cell) -> str:
        if isinstance(cell, float):
            return f"{cell:.3f}"
        return str(cell)

    str_rows = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in str_rows)
    return "\n".join(out)


def render_series_chart(x_values: Sequence, series: dict[str, Sequence[float]],
                        height: int = 16, width: int = 64,
                        y_label: str = "") -> str:
    """Multi-series scatter in ASCII (the Figure 10 style plot).

    Each series gets a distinct mark; x positions are spread uniformly
    over the x_values (which is how the paper's PE-count axis reads).
    """
    marks = "*o+x@%&"
    flat = [v for vals in series.values() for v in vals if v is not None]
    peak = max(flat) if flat else 1.0
    peak = peak or 1.0
    grid = [[" "] * width for _ in range(height)]
    for si, (name, vals) in enumerate(series.items()):
        mark = marks[si % len(marks)]
        for xi, value in enumerate(vals):
            if value is None:
                continue
            col = round(xi * (width - 1) / max(1, len(x_values) - 1))
            row = height - 1 - round((height - 1) * value / peak)
            row = min(max(row, 0), height - 1)
            grid[row][col] = mark
    lines = []
    for r, row in enumerate(grid):
        y_val = peak * (height - 1 - r) / (height - 1)
        lines.append(f"{y_val:7.1f} |" + "".join(row))
    lines.append(" " * 8 + "+" + "-" * width)
    x_marks = "  ".join(str(x) for x in x_values)
    lines.append(" " * 10 + x_marks)
    legend = "   ".join(f"{marks[i % len(marks)]} {name}"
                        for i, name in enumerate(series))
    lines.append("legend: " + legend)
    if y_label:
        lines.insert(0, y_label)
    return "\n".join(lines)


def render_metrics_table(registry) -> str:
    """Render a :class:`repro.obs.MetricsRegistry` as an aligned table.

    Rows come out in the registry's deterministic order (kind, name,
    labels); histograms render their summary statistics inline.
    """
    rows = []
    for row in registry.rows():
        labels = ";".join(f"{k}={v}" for k, v in row.labels)
        if row.kind == "histogram":
            value = ("count={count} sum={sum:g} min={min:g} "
                     "max={max:g} mean={mean:g}").format(**row.value)
        elif isinstance(row.value, float) and not row.value.is_integer():
            value = f"{row.value:.6g}"
        else:
            value = f"{row.value:g}" if isinstance(row.value, float) \
                else str(row.value)
        rows.append([row.kind, row.name, labels, value])
    return render_table(["kind", "metric", "labels", "value"], rows)


def percent(value: float) -> str:
    return f"{value * 100:.1f}%"
