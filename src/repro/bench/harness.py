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
                             config=config)
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
            time_us=result.time_us,
            utilization=utilization,
            value=result.value if isinstance(result.value, (int, float)) else 0.0,
            instructions=stats.instructions,
            remote_reads=stats.remote_reads,
            context_switches=stats.context_switches,
            extras=extras,
        )
        self._cache[cache_key] = point
        return point


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
# CLI: python -m repro.bench.harness --size N --steps S --pes a,b
# ---------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    """Run a small SIMPLE sweep with full observability on, print one
    line per PE count and, with ``--record-dir``, deposit one
    ``pods-run/v1`` record per PE count into that run ledger (what CI's
    bench-smoke job gates with ``pods runs regress``)."""
    import argparse

    from repro.apps.simple_app import compile_simple
    from repro.obs.critpath import critical_path
    from repro.obs.store import RunStore

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.harness",
        description="run a small SIMPLE sweep and optionally deposit "
                    "its run records")
    parser.add_argument("--size", type=int, default=8)
    parser.add_argument("--steps", type=int, default=1)
    parser.add_argument("--pes", default="1,2,4",
                        help="comma-separated PE counts (default 1,2,4)")
    parser.add_argument("--conduction-only", action="store_true")
    parser.add_argument("--record-dir", default=None,
                        help="deposit a pods-run/v1 record per PE count "
                             "into this run ledger (e.g. .pods-runs)")
    args = parser.parse_args(argv)

    store = RunStore(args.record_dir) if args.record_dir else None
    program = compile_simple(conduction_only=args.conduction_only)
    run_args = (args.size, args.steps)
    obs = ObsConfig(metrics=True, timelines=True, waits=True)
    base_us = None
    for pes in (int(p) for p in args.pes.split(",")):
        result = program.run(
            run_args, backend="sim", parallelism=pes,
            config=SimConfig(machine=MachineConfig(num_pes=pes), obs=obs))
        if store is not None:
            store.put(result.to_run_record(program=program, args=run_args))
        stats = result.stats
        if base_us is None:
            base_us = stats.finish_time_us
        path = critical_path(stats.log, stats.finish_time_us)
        print(f"{pes:3d} PEs: {stats.finish_time_us / 1e6:9.6f} s  "
              f"speed-up {base_us / stats.finish_time_us:5.2f}  "
              f"EU {stats.timeline_utilization('EU') * 100:5.1f}%  "
              f"critical path {path.total_us / 1e6:9.6f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
