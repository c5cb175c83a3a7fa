"""Sweep runner shared by the paper's evaluations: it memoizes each
(program, args, pe-count, config fields) point, so evaluations that
overlap never run the same configuration twice."""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import Program
from repro.common.config import MachineConfig, ObsConfig, SimConfig
from repro.sim.stats import UNITS

# Every point is observed: modeled time is the same with the
# observability layer on or off, and Figures 8 and 9 read its timelines.
_OBSERVED = ObsConfig(metrics=True, timelines=True)


@dataclass
class Point:
    """One simulated configuration (everything the evaluations consume);
    ``utilization`` is derived from the busy-interval timelines."""

    time_us: float
    utilization: dict[str, float]
    value: float
    remote_reads: int


class Sweeper:
    """Runs and memoizes observed PODS simulations.  Each point's
    timeline-derived utilizations (Figures 8 and 9) are checked against
    the simulator's busy-time accumulators, to 0.1 % for every unit."""

    def __init__(self) -> None:
        # A point is keyed on ``key`` or on the program object itself
        # (its id: the entry keeps the program alive, so no other can
        # take the id while the entry stands).
        self._cache: dict[tuple, tuple[Program, Point]] = {}

    def run(self, program: Program, args: tuple, pes: int,
            key: str = "", **machine_kwargs) -> Point:
        """The point of ``program`` at ``args`` on ``pes`` PEs; ``key``
        names the program when different objects of it share points."""
        cache_key = (key or id(program), args, pes,
                     tuple(sorted(machine_kwargs.items())))
        if cache_key not in self._cache:
            machine = MachineConfig(num_pes=pes, **machine_kwargs)
            result = program.run(args, backend="sim", parallelism=pes,
                                 config=SimConfig(machine=machine,
                                                  obs=_OBSERVED))
            stats, value = result.stats, result.value
            utilization = {u: stats.timeline_utilization(u) for u in UNITS}
            for u, derived in utilization.items():
                ref = stats.utilization(u)
                assert abs(derived - ref) <= max(abs(ref), 1e-12) * 1e-3, (
                    f"{u} at {pes} PEs: derived {derived} vs aggregate {ref}")
            self._cache[cache_key] = program, Point(
                result.time_us, utilization,
                value if isinstance(value, (int, float)) else 0.0,
                stats.remote_reads)
        return self._cache[cache_key][1]
