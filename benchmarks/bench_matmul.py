"""The paper's generic example (Section 5.2): matrix multiply speedup
plus backend agreement."""

from __future__ import annotations

from repro.bench.harness import save_report
from repro.bench.report import render_table

PE_COUNTS = [1, 2, 4, 8, 16]
N = 24


def test_matmul_speedup(benchmark, sweeper, matmul_program):
    seq = matmul_program.run((N,), backend="seq")
    rows = []
    base = None
    values = set()
    for pes in PE_COUNTS:
        point = sweeper.run(matmul_program, (N,), pes, key="matmul")
        if base is None:
            base = point.time_us
        rows.append([pes, point.time_us / 1e3, base / point.time_us])
        values.add(round(point.value, 9))

    table = render_table(["PEs", "time (ms)", "speed-up"], rows)
    report = (f"Matrix multiply {N}x{N} (generic example of Section 5.2)\n\n"
              + table)
    save_report("matmul_speedup.txt", report)
    print("\n" + report)

    assert len(values) == 1, "checksum must not depend on PE count"
    assert round(seq.value, 9) in values
    point8 = sweeper.run(matmul_program, (N,), 8, key="matmul")
    assert base / point8.time_us > 3.0

    benchmark.pedantic(
        lambda: sweeper.run(matmul_program, (N,), 4, key="matmul"),
        rounds=1, iterations=1,
    )
