"""Functional parallelism (paper Section 4: PODS supports both
functional and data parallelism): a recursive call tree spread over PEs
by round-robin spawn placement."""

from __future__ import annotations

from conftest import save_report

from repro import MachineConfig, SimConfig, compile_source
from repro.bench.report import render_table

FIB = """
function fib(n) { return if n < 2 then n else fib(n - 1) + fib(n - 2); }
function main(n) { return fib(n); }
"""

N = 15


def test_functional_parallelism(benchmark):
    program = compile_source(FIB)
    base = program.run((N,), backend="sim", parallelism=1)

    rows = []
    speedups = {}
    for pes in (1, 2, 4, 8, 16):
        config = SimConfig(machine=MachineConfig(
            num_pes=pes, function_placement="round_robin"))
        result = program.run((N,), backend="sim", parallelism=pes,
                             config=config)
        assert result.value == base.value
        speedups[pes] = base.time_us / result.time_us
        rows.append([pes, result.time_us / 1e3, speedups[pes]])

    local8 = program.run((N,), backend="sim", parallelism=8)
    rows.append(["8 (local)", local8.time_us / 1e3,
                 base.time_us / local8.time_us])

    table = render_table(["PEs", "time (ms)", "speed-up"], rows)
    report = (f"Functional parallelism - fib({N}) call tree\n\n" + table
              + "\n\nRound-robin call placement exploits the call tree;"
              "\nlocal placement leaves every call SP on PE0.")
    save_report("functional_parallelism.txt", report)
    print("\n" + report)

    assert speedups[8] > 2.0
    assert base.time_us / local8.time_us < 1.2

    benchmark.pedantic(lambda: program.run((10,), backend="sim",
                                           parallelism=2),
                       rounds=1, iterations=1)
