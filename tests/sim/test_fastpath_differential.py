"""Pinned simulator behaviour: every run is held to the reference's bits.

The fixture ``reference_fingerprint.json`` was produced by the reference
interpreter (``Machine._execute``) at the last commit that still had
one, over this module's own matrix: six apps x {1, 4} PEs, the 11
simulated-network chaos scenarios at 4 PEs, and two programs that fail.
A healed run is pinned by value, ``finish_time_us``, event / instruction
/ context-switch counts and the sha256 of the metrics-registry JSONL; a
diagnosed run by error class and exact text.  Comparison is ``==`` on
the raw values (no tolerances: the contract is identical float
accumulation order, not approximately-equal results), so the fixture
only fails when the machine's timing, counting, scheduling or
diagnostics change.

If a deliberate change shifts any of them, regenerate with::

    PYTHONPATH=src python tests/sim/test_fastpath_differential.py

and review the diff like any other golden-file update.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.api import compile_source
from repro.apps.livermore import compile_kernel
from repro.apps.matmul import compile_matmul
from repro.apps.nbody import compile_nbody
from repro.apps.simple_app import compile_simple
from repro.apps.stencil import compile_stencil
from repro.common.config import MachineConfig, ObsConfig, SimConfig
from repro.common.errors import RuntimeFault
from repro import chaos

FIXTURE = os.path.join(os.path.dirname(__file__),
                       "reference_fingerprint.json")

APPS = [
    ("simple", lambda: compile_simple(), (8, 1)),
    ("matmul", lambda: compile_matmul(checksum=True), (6,)),
    ("nbody", lambda: compile_nbody(), (8, 1)),
    ("stencil", lambda: compile_stencil(), (10, 2)),
    ("livermore-hydro", lambda: compile_kernel("hydro"), (24,)),
    ("livermore-inner", lambda: compile_kernel("inner"), (24,)),
]
APP_PES = [1, 4]
CHAOS_PES = 4

ERROR_PROGRAMS = [
    # Type error inside a binop (the diagnostic names template and pc).
    ("function main(n) { A = matrix(n, n); return A + 1; }", (3,)),
    # Out-of-bounds array write caught by the Array Manager.
    ("function main(n) { A = matrix(n, n); A[n + 1, 1] = 0;"
     " return A[1, 1]; }", (3,)),
]


def fingerprint(program, args: tuple, pes: int, faults=None, **over) -> dict:
    """What one simulated run is pinned by (see the module docstring)."""
    cfg = SimConfig(machine=MachineConfig(num_pes=pes),
                    obs=ObsConfig(metrics=True), **over)
    try:
        raw = program.run(args, backend="sim", config=cfg, faults=faults).raw
    except RuntimeFault as exc:
        return {"error": type(exc).__name__, "text": str(exc)}
    stats = raw.stats
    return {
        "value": raw.value,
        "finish_time_us": stats.finish_time_us,
        "events": stats.events_processed,
        "instructions": stats.instructions,
        "context_switches": stats.context_switches,
        "registry_sha256": hashlib.sha256(
            stats.registry.to_jsonl().encode()).hexdigest(),
    }


def chaos_fingerprint(program, scenario) -> dict:
    return fingerprint(program, (scenario.n,), CHAOS_PES,
                       faults=scenario.faults, **scenario.cfg)


def error_fingerprint(source: str, args: tuple) -> dict:
    return fingerprint(compile_source(source), args, 2)


def current() -> dict:
    """The whole matrix on the machine as it is now, keyed like the
    fixture."""
    out = {}
    for name, build, args in APPS:
        program = build()
        for pes in APP_PES:
            out[f"app/{name}/pes={pes}"] = fingerprint(program, args, pes)
    sweep = compile_source(chaos.ROW_SWEEP)
    for scenario in chaos.sim_scenarios(CHAOS_PES):
        out[f"chaos/{scenario.name}"] = chaos_fingerprint(sweep, scenario)
    for source, args in ERROR_PROGRAMS:
        out[f"error/{source}"] = error_fingerprint(source, args)
    return out


@pytest.fixture(scope="module")
def pinned() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


class TestApps:
    @pytest.mark.parametrize("name, build, args",
                             APPS, ids=[a[0] for a in APPS])
    @pytest.mark.parametrize("pes", APP_PES)
    def test_app_bit_identical(self, pinned, name, build, args, pes):
        assert (fingerprint(build(), args, pes)
                == pinned[f"app/{name}/pes={pes}"])


class TestChaosScenarios:
    """Healed runs finish at the reference's modeled time with its
    metrics; diagnosed runs raise its error with its text."""

    @pytest.fixture(scope="class")
    def program(self):
        return compile_source(chaos.ROW_SWEEP)

    @pytest.mark.parametrize(
        "scenario", chaos.sim_scenarios(CHAOS_PES), ids=lambda s: s.name)
    def test_scenario_bit_identical(self, pinned, program, scenario):
        got = chaos_fingerprint(program, scenario)
        assert got == pinned[f"chaos/{scenario.name}"]
        assert ("error" not in got) == (scenario.outcome == chaos.HEAL)


class TestErrorText:
    @pytest.mark.parametrize("source, args", ERROR_PROGRAMS)
    def test_error_text_identical(self, pinned, source, args):
        got = error_fingerprint(source, args)
        assert "error" in got
        assert got == pinned[f"error/{source}"]


class TestTilingInvariant:
    """Per-PE busy + attributed wait intervals tile ``[0, makespan]``
    exactly (the float-drift audit for ``_serve`` and the EU step: span
    boundaries are the very floats the event loop computed)."""

    @pytest.mark.parametrize("pes", [1, 3, 4])
    def test_busy_plus_waits_tile_makespan(self, pes):
        from repro.obs.critpath import pe_wait_intervals
        from repro.obs.profile import Profile

        program = compile_simple()
        cfg = SimConfig(machine=MachineConfig(num_pes=pes),
                        obs=ObsConfig(timelines=True, waits=True))
        result = program.run((8, 1), backend="sim", config=cfg).raw
        stats = result.stats
        finish = stats.finish_time_us
        for pe in range(pes):
            intervals = pe_wait_intervals(stats.log, pe, finish)
            line = stats.log.line(pe, "EU")
            # Structural exactness: the attributed idle intervals are the
            # complement of the busy spans — shared boundaries are equal
            # floats, not merely close ones.
            busy_edges = list(zip(line.starts, line.ends))
            pieces = sorted(busy_edges
                            + [(s, e) for s, e, _ in intervals])
            cursor = 0.0
            for s, e in pieces:
                assert s == cursor
                assert e >= s
                cursor = e
            assert cursor == finish
            covered = sum(e - s for s, e, _ in intervals)
            busy = Profile.from_stats(stats).busy_us[pe]
            assert covered + busy == pytest.approx(finish, rel=1e-12)


if __name__ == "__main__":  # regenerate the fixture
    text = json.dumps(current(), indent=1, sort_keys=True) + "\n"
    with open(FIXTURE, "w") as fh:
        fh.write(text)
    print(f"wrote {FIXTURE} ({len(text)} bytes)")
