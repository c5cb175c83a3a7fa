"""Sweep runner shared by the per-figure benchmark modules.

Caches simulation results per (program, args, pe-count, config fields)
within a process so the figure modules — which overlap heavily in the
points they need — never run the same configuration twice.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.api import Program
from repro.common.config import MachineConfig, ObsConfig, SimConfig
from repro.sim.stats import UNITS

# Full paper scale is opt-in: the default grid keeps `pytest benchmarks/`
# in a few minutes on a laptop.
FULL_SCALE = bool(os.environ.get("PODS_BENCH_FULL"))

PE_COUNTS = [1, 2, 4, 8, 16, 32]


@dataclass
class Point:
    """One simulated configuration (everything the figures consume)."""

    n: int
    pes: int
    time_us: float
    utilization: dict[str, float]
    value: float
    instructions: int
    remote_reads: int
    context_switches: int
    extras: dict = field(default_factory=dict)


class Sweeper:
    """Runs and memoizes PODS simulations for the bench modules.

    With ``observe=True`` every simulation runs with the observability
    layer on (metrics registry + busy-interval timelines) and each
    Point's ``utilization`` is *derived* from the recorded busy
    intervals — the accumulator-based numbers stay available in
    ``extras["utilization_aggregate"]`` for differential checks.  The
    default stays off so time-critical sweeps (Figure 10's speed-up
    curves) measure the zero-cost-when-disabled configuration.
    """

    def __init__(self, observe: bool = False) -> None:
        self._cache: dict[tuple, Point] = {}
        self.observe = observe

    def run(self, program: Program, args: tuple, pes: int,
            key: str = "", **machine_kwargs) -> Point:
        cache_key = (key or program.pods.name, args, pes,
                     tuple(sorted(machine_kwargs.items())))
        if cache_key in self._cache:
            return self._cache[cache_key]
        obs = ObsConfig(metrics=self.observe, timelines=self.observe)
        config = SimConfig(machine=MachineConfig(num_pes=pes, **machine_kwargs),
                           obs=obs)
        result = program.run(args, backend="sim", parallelism=pes,
                             config=config).raw
        stats = result.stats
        if self.observe:
            utilization = {u: stats.timeline_utilization(u) for u in UNITS}
            extras = {
                "utilization_aggregate":
                    {u: stats.utilization(u) for u in UNITS},
                "registry": stats.registry,
            }
        else:
            utilization = {u: stats.utilization(u) for u in UNITS}
            extras = {}
        point = Point(
            n=args[0] if args else 0,
            pes=pes,
            time_us=result.finish_time_us,
            utilization=utilization,
            value=result.value if isinstance(result.value, (int, float)) else 0.0,
            instructions=stats.instructions,
            remote_reads=stats.remote_reads,
            context_switches=stats.context_switches,
            extras=extras,
        )
        self._cache[cache_key] = point
        return point

    def speedups(self, program: Program, args: tuple,
                 pe_counts: list[int] | None = None,
                 key: str = "", **machine_kwargs) -> dict[int, float]:
        """PE count -> speedup relative to the 1-PE run."""
        counts = pe_counts or PE_COUNTS
        base = self.run(program, args, 1, key=key, **machine_kwargs)
        out = {1: 1.0}
        for pes in counts:
            if pes == 1:
                continue
            point = self.run(program, args, pes, key=key, **machine_kwargs)
            out[pes] = base.time_us / point.time_us
        return out


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
                             **run_kwargs).raw
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


def results_dir() -> str:
    """Directory the bench modules drop their text reports into."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    path = os.path.join(here, "benchmarks", "results")
    os.makedirs(path, exist_ok=True)
    return path


def save_report(name: str, text: str) -> str:
    """Write a figure/table report; returns the path."""
    path = os.path.join(results_dir(), name)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return path


# ---------------------------------------------------------------------
# trajectory CLI: python -m repro.bench.harness --json ...
# ---------------------------------------------------------------------


def profiled_sweep(program: Program, args: tuple, pe_counts: list[int],
                   label: str = "", store=None,
                   **machine_kwargs) -> list[dict]:
    """Run one configuration per PE count with wait-state observability
    on and return schema-v1 trajectory points (time, speedup,
    utilization, critical-path length).

    With a :class:`repro.obs.store.RunStore` passed as ``store``, each
    configuration additionally runs with the metrics registry on and
    deposits a full ``pods-run/v1`` record into the ledger — the bench
    trajectory and the run ledger then describe the same executions.
    """
    from repro.obs.critpath import critical_path

    points: list[dict] = []
    base_us: float | None = None
    for pes in pe_counts:
        obs = ObsConfig(metrics=store is not None, timelines=True,
                        waits=True)
        config = SimConfig(
            machine=MachineConfig(num_pes=pes, **machine_kwargs), obs=obs)
        backend_result = program.run(args, backend="sim", parallelism=pes,
                                     config=config)
        if store is not None:
            store.put(backend_result.to_run_record(program=program,
                                                   args=args))
        result = backend_result.raw
        stats = result.stats
        if base_us is None:
            base_us = stats.finish_time_us
        path = critical_path(stats.waits, stats.finish_time_us)
        points.append({
            "label": f"{label or program.pods.name}@{pes}",
            "pes": pes,
            "time_us": stats.finish_time_us,
            "speedup": base_us / stats.finish_time_us,
            "utilization": {u: stats.timeline_utilization(u)
                            for u in UNITS},
            "critical_path_us": path.total_us,
            "events": stats.events_processed,
        })
    return points


def main(argv: list[str] | None = None) -> int:
    """Emit a BENCH_<name>.json trajectory point for the SIMPLE app.

    The CI bench-smoke job runs this with a small grid and feeds the
    output to ``python -m repro.bench.trajectory compare``.
    """
    import argparse
    import time

    from repro.bench import trajectory

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.harness",
        description="run a small SIMPLE sweep and emit a machine-readable "
                    "benchmark trajectory point")
    parser.add_argument("--name", default="simple_smoke",
                        help="benchmark name (BENCH_<name>.json)")
    parser.add_argument("--size", type=int, default=8)
    parser.add_argument("--steps", type=int, default=1)
    parser.add_argument("--pes", default="1,2,4",
                        help="comma-separated PE counts (default 1,2,4)")
    parser.add_argument("--conduction-only", action="store_true")
    parser.add_argument("--json", action="store_true",
                        help="write BENCH_<name>.json under "
                             "benchmarks/results/")
    parser.add_argument("--output-dir", default=None,
                        help="directory for the JSON document "
                             "(default benchmarks/results/)")
    parser.add_argument("--record-dir", default=None,
                        help="also deposit a pods-run/v1 record per PE "
                             "count into this run ledger (e.g. "
                             ".pods-runs)")
    args = parser.parse_args(argv)

    from repro.apps.simple_app import compile_simple

    store = None
    if args.record_dir:
        from repro.obs.store import RunStore

        store = RunStore(args.record_dir)

    pe_counts = [int(p) for p in args.pes.split(",")]
    program = compile_simple(conduction_only=args.conduction_only)
    t0 = time.perf_counter()
    points = profiled_sweep(program, (args.size, args.steps), pe_counts,
                            label=f"{args.size}x{args.size}", store=store)
    wall_s = time.perf_counter() - t0
    if store is not None:
        deposited = store.entries()[-len(pe_counts):]
        for e in deposited:
            print(f"recorded {e.id[:12]} ({e.program} on {e.backend} x "
                  f"{e.parallelism}) in {store.root}")

    for pt in points:
        print(f"{pt['pes']:3d} PEs: {pt['time_us'] / 1e6:9.6f} s  "
              f"speed-up {pt['speedup']:5.2f}  "
              f"EU {pt['utilization']['EU'] * 100:5.1f}%  "
              f"critical path {pt['critical_path_us'] / 1e6:9.6f} s")
    print(f"(host wall clock: {wall_s:.2f} s)")

    if args.json:
        doc = trajectory.make_doc(
            name=args.name,
            config={"app": "simple", "size": args.size,
                    "steps": args.steps,
                    "conduction_only": args.conduction_only,
                    "pes": args.pes},
            points=points,
            wall_s=round(wall_s, 3),
        )
        path = trajectory.save(doc, directory=args.output_dir)
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
