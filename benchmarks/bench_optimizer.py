"""Optimizer ablation (our extension): CSE + loop-invariant hoisting +
DCE, versus the paper's "no optimization techniques" configuration."""

from __future__ import annotations

import pytest

from conftest import save_report

from repro.api import compile_source
from repro.apps.simple_app import simple_source
from repro.bench.report import render_table

PES = 4
ARGS = (16, 1)


def test_optimizer_on_simple(benchmark):
    src = simple_source()
    plain = compile_source(src)
    opt = compile_source(src, optimize=True)

    r_plain = plain.run(ARGS, backend="sim", parallelism=PES)
    r_opt = opt.run(ARGS, backend="sim", parallelism=PES)
    assert r_opt.value == pytest.approx(r_plain.value)

    rows = [
        ["paper config (no opts)", r_plain.stats.instructions,
         r_plain.time_us / 1e3],
        ["CSE + hoist + DCE", r_opt.stats.instructions,
         r_opt.time_us / 1e3],
    ]
    table = render_table(["configuration", "instructions", "time (ms)"], rows)
    report = (f"Optimizer ablation - SIMPLE {ARGS[0]}x{ARGS[0]}, "
              f"{PES} PEs\n\n" + table
              + "\n\nResults are bit-identical; the instruction count is"
              "\nthe honest metric (hoisting trades per-iteration compute"
              "\nfor one extra spawn token, so time moves less than"
              "\ninstructions).")
    save_report("ablation_optimizer.txt", report)
    print("\n" + report)

    assert r_opt.stats.instructions <= r_plain.stats.instructions

    benchmark.pedantic(lambda: opt.run((8, 1), backend="sim", parallelism=2),
                       rounds=1, iterations=1)
