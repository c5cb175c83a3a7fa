"""Livermore-style kernels: the three partitioning regimes of the
distribution algorithm, measured.  Flop-heavy parallel loops profit;
one-flop loops are communication-bound; dependence chains stay serial —
all with identical results at any PE count."""

from __future__ import annotations

import pytest

from conftest import save_report

from repro.apps.livermore import compile_kernel, kernel_names
from repro.bench.report import render_table

N = 96
PES = 8


def test_livermore_kernels(benchmark):
    rows = []
    measured = {}
    for name in kernel_names():
        program = compile_kernel(name)
        oracle = program.run((N,), backend="seq").value
        r1 = program.run((N,), backend="sim", parallelism=1)
        r8 = program.run((N,), backend="sim", parallelism=PES)
        assert r1.value == pytest.approx(oracle, rel=1e-12)
        assert r8.value == pytest.approx(oracle, rel=1e-12)
        speedup = r1.time_us / r8.time_us
        measured[name] = speedup
        regime = ("distributed" if any(
            b.distributed for b in program.graph.loop_blocks()
            if b.has_lcd is False) else "local")
        rows.append([name, regime, r1.time_us / 1e3,
                     r8.time_us / 1e3, speedup])

    table = render_table(
        ["kernel", "compute loops", "1 PE (ms)", f"{PES} PEs (ms)",
         "speed-up"], rows)
    report = (f"Livermore-style kernels, n={N}\n\n" + table
              + "\n\nRegimes: eos/hydro amortize distribution;"
              " first_diff is\ncommunication-bound (1 flop/element);"
              " inner/tridiag/first_sum\nare dependence chains the"
              " Partitioner correctly leaves local.")
    save_report("livermore_kernels.txt", report)
    print("\n" + report)

    assert measured["eos"] > 1.4
    assert measured["first_sum"] < 1.5

    benchmark.pedantic(
        lambda: compile_kernel("inner").run((32,), backend="sim",
                                            parallelism=2),
        rounds=1, iterations=1)
