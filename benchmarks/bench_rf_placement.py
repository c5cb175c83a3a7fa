"""Range-Filter placement ablation (paper Section 4.2.3): the paper
places one RF at the outermost LCD-free level; pushing the LD a level
down (per-iteration broadcast of the inner loop) multiplies spawn
traffic by the outer trip count."""

from __future__ import annotations

import pytest

from conftest import save_report

from repro.api import compile_source
from repro.bench.report import render_table

SRC = """
function main(n) {
    A = matrix(n, n);
    for i = 1 to n {
        for j = 1 to n {
            A[i, j] = sqrt(1.0 * i * j) + sqrt(2.0 * i + j) + 1.0;
        }
    }
    s = 0.0;
    for i = 1 to n {
        r = 0.0;
        for j = 1 to n { next r = r + A[i, j]; }
        next s = s + r;
    }
    return s;
}
"""

N, PES = 24, 8


def test_rf_placement(benchmark):
    outer = compile_source(SRC)
    inner = compile_source(SRC, rf_placement="inner")
    a = outer.run((N,), backend="sim", parallelism=PES)
    b = inner.run((N,), backend="sim", parallelism=PES)
    assert a.value == pytest.approx(b.value)

    rows = [
        ["outer (paper §4.2.4)", a.time_us / 1e3,
         a.stats.total("tokens_sent_remote"), a.stats.total("frames_created")],
        ["inner (LD pushed down)", b.time_us / 1e3,
         b.stats.total("tokens_sent_remote"), b.stats.total("frames_created")],
    ]
    table = render_table(
        ["RF placement", "time (ms)", "remote tokens", "frames"], rows)
    report = (f"Range-Filter placement ablation ({N}x{N} fill+reduce, "
              f"{PES} PEs)\n\n" + table
              + "\n\nOuter placement spawns each nest once per PE; inner"
              "\nplacement broadcasts a spawn per outer iteration - the"
              "\npaper's choice of the outermost LCD-free level wins.")
    save_report("ablation_rf_placement.txt", report)
    print("\n" + report)

    assert b.time_us > a.time_us
    assert (b.stats.total("frames_created")
            > a.stats.total("frames_created"))

    benchmark.pedantic(lambda: outer.run((8,), backend="sim", parallelism=2),
                       rounds=1, iterations=1)
