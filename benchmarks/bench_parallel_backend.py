"""Real-parallel backend: wall-clock behaviour of the supervised
multiprocessing executor on this host.  Speedup requires physical cores
(the container CI host may have one); correctness — and the per-worker
telemetry the supervisor returns — must hold regardless."""

from __future__ import annotations

import os
from dataclasses import dataclass

import pytest

from conftest import save_report

from repro.api import Program
from repro.apps.matmul import compile_matmul
from repro.bench.report import render_table

N = 20


@dataclass
class WallPoint:
    """One real-parallel configuration (wall clock + worker telemetry)."""

    workers: int
    wall_time_s: float
    speedup: float
    value: float
    shared_reads: int
    shared_writes: int
    deferred_reads: int
    max_spin_wait_s: float


def parallel_sweep(program: Program, args: tuple,
                   worker_counts: tuple[int, ...] = (1, 2, 4),
                   **run_kwargs) -> list[WallPoint]:
    """Sweep the supervised real-parallel backend over worker counts.

    Telemetry columns are summed over workers (max-spin is the max);
    speedup is relative to the 1-worker point (or the first count run).
    """
    points: list[WallPoint] = []
    base: float | None = None
    for workers in worker_counts:
        result = program.run(args, backend="parallel", parallelism=workers,
                             **run_kwargs)
        if base is None:
            base = result.wall_time_s
        stats = result.worker_stats
        points.append(WallPoint(
            workers=workers,
            wall_time_s=result.wall_time_s,
            speedup=base / result.wall_time_s,
            value=result.value if isinstance(result.value, (int, float))
            else 0.0,
            shared_reads=sum(t.shared_reads for t in stats),
            shared_writes=sum(t.shared_writes for t in stats),
            deferred_reads=sum(t.deferred_reads for t in stats),
            max_spin_wait_s=max((t.max_spin_wait_s for t in stats),
                                default=0.0),
        ))
    return points


def test_parallel_backend_wall_clock(benchmark):
    program = compile_matmul(checksum=True)
    seq = program.run((N,), backend="seq")

    points = parallel_sweep(program, (N,), worker_counts=(1, 2, 4))
    rows = []
    for pt in points:
        assert pt.value == pytest.approx(seq.value, rel=1e-12)
        rows.append([pt.workers, pt.wall_time_s, pt.speedup,
                     pt.shared_reads, pt.shared_writes, pt.deferred_reads,
                     pt.max_spin_wait_s * 1e3])

    cores = os.cpu_count() or 1
    table = render_table(
        ["workers", "wall (s)", "speed-up", "sh-reads", "sh-writes",
         "deferred", "max-spin (ms)"], rows)
    report = (f"Real-parallel backend - matmul {N}x{N} checksum "
              f"(host has {cores} core(s))\n\n" + table + "\n\n"
              "Telemetry columns come from the per-worker counters the\n"
              "supervisor gathers (summed; max-spin is the worst single\n"
              "deferred-read wait).  Speed-up needs physical cores; on a\n"
              "single-core host the backend demonstrates correctness of\n"
              "the shared-I-structure execution only.")
    save_report("parallel_backend.txt", report)
    print("\n" + report)

    wall = {pt.workers: pt.wall_time_s for pt in points}
    if cores >= 4:
        assert wall[4] < wall[1] * 1.1  # some benefit or at least no harm

    benchmark.pedantic(lambda: program.run((10,), backend="parallel",
                                           parallelism=2),
                       rounds=1, iterations=1)
