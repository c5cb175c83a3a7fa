"""Shared helpers for the observability tests: one small program, run on
the simulator with the full observability stack enabled, and two flat
renderings the tests compare (golden-trace lines, a metrics CSV)."""

from __future__ import annotations

import json

import pytest

from repro.api import compile_source
from repro.common.config import MachineConfig, ObsConfig, SimConfig
from repro.sim.machine import Machine

# The cross-backend fill-and-sum program: touches frames, loops, arrays
# and RF distribution, yet traces to ~100 events at n=3 on 2 PEs.
FILL_AND_SUM = """
function main(n) {
    A = matrix(n, n);
    for i = 1 to n { for j = 1 to n { A[i, j] = i * j; } }
    s = 0;
    for i = 1 to n {
        r = 0;
        for j = 1 to n { next r = r + A[i, j]; }
        next s = s + r;
    }
    return s;
}
"""


def run_observed(source: str = FILL_AND_SUM, args: tuple = (3,),
                 num_pes: int = 2, jitter_seed: int | None = None,
                 waits: bool = False):
    """Compile + run with metrics, timelines and tracing all on.

    Returns (machine, result); ``machine.log`` (``result.stats.log``)
    is the run's span log, the result's stats carry the metrics
    registry.  With ``waits=True`` the log records wait states too.
    """
    program = compile_source(source)
    config = SimConfig(
        machine=MachineConfig(num_pes=num_pes),
        obs=ObsConfig(metrics=True, timelines=True, trace=True,
                      waits=waits),
        jitter_seed=jitter_seed,
    )
    machine = Machine(program.pods, config)
    result = machine.run(args)
    return machine, result


@pytest.fixture(scope="module")
def observed_run():
    return run_observed()


@pytest.fixture(scope="module")
def waits_run():
    """A 4-PE fill-and-sum run with wait-state attribution enabled."""
    return run_observed(args=(4,), num_pes=4, waits=True)


def golden_line(event) -> str:
    """``seq pe unit kind sp`` of a trace ``Instant``: no times or
    details, so a golden fixture fails only when the scheduling drifts."""
    sp = "-" if event.sp is None else str(event.sp)
    return f"{event.seq} {event.pe} {event.unit or '-'} {event.kind} {sp}"


def trace_golden(events) -> str:
    """The stable-field projection golden-trace fixtures hold."""
    return "\n".join(golden_line(e) for e in events)


def to_csv(registry) -> str:
    """Flat ``kind,name,labels,value`` dump (labels as k=v;k=v)."""
    lines = ["kind,name,labels,value"]
    for row in registry.rows():
        labels = ";".join(f"{k}={v}" for k, v in row.labels)
        value = (json.dumps(row.value, sort_keys=True)
                 if isinstance(row.value, dict) else row.value)
        lines.append(f"{row.kind},{row.name},{labels},{value}")
    return "\n".join(lines)
