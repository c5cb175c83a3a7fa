"""Plain-text tables and charts for the benchmark harness.

The paper's figures are bar/line charts; these helpers render the same
series as aligned ASCII so a terminal run of the bench suite reproduces
each one at a glance, and the text lands verbatim in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def render_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Fixed-width, right-aligned table; floats get 3 decimals."""
    lines = [list(headers)] + [
        [f"{c:.3f}" if isinstance(c, float) else str(c) for c in row]
        for row in rows]
    widths = [max(len(line[i]) for line in lines if i < len(line))
              for i in range(len(headers))]
    lines.insert(1, ["-" * w for w in widths])
    return "\n".join("  ".join(c.rjust(w) for c, w in zip(line, widths))
                     for line in lines)


def render_series_chart(x_values: Sequence, series: dict[str, Sequence[float]],
                        height: int = 16, width: int = 64,
                        y_label: str = "") -> str:
    """Multi-series scatter in ASCII (the Figure 10 style plot).

    Each series gets a distinct mark; x positions are spread uniformly
    over the x_values (which is how the paper's PE-count axis reads).
    """
    marks = "*o+x@%&"
    peak = max((v for vals in series.values() for v in vals if v is not None),
               default=0.0) or 1.0
    grid = [[" "] * width for _ in range(height)]
    for si, vals in enumerate(series.values()):
        for xi, value in enumerate(vals):
            if value is not None:
                col = round(xi * (width - 1) / max(1, len(x_values) - 1))
                row = height - 1 - round((height - 1) * value / peak)
                grid[min(max(row, 0), height - 1)][col] = marks[si % len(marks)]
    lines = [y_label] if y_label else []
    lines += [f"{peak * (height - 1 - r) / (height - 1):7.1f} |" + "".join(row)
              for r, row in enumerate(grid)]
    lines += [" " * 8 + "+" + "-" * width,
              " " * 10 + "  ".join(str(x) for x in x_values),
              "legend: " + "   ".join(f"{marks[i % len(marks)]} {name}"
                                      for i, name in enumerate(series))]
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

