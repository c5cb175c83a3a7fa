"""Pinned observed outputs: what ``ObsConfig(metrics, timelines, waits)``
records is held to the bits of the fixture ``observed_fingerprint.json``.

Per case the fixture holds one sha256 per view of the run's span log:
the busy lines (every line's ``starts``, ``ends``, ``busy_us`` and a
``dropped`` count that is always 0), the SP lanes (every SP's identity
and segments) and the PE stalls, the critical-path steps, the
metrics-registry JSONL and the canonical ``pods-run/v1`` record minus
its wall time.  A second run of the same case with ``trace=True`` as
well pins the two rendered views: the Perfetto JSON that ``pods trace
--format perfetto`` prints and the report ``pods profile`` prints.
(``obs.trace`` is part of the config fingerprint, so the record digest
comes from the first run.)  Comparison is ``==`` — the contract is
identical float accumulation order, not approximately-equal results —
so the fixture fails only when what the observer records changes.

If a deliberate change shifts any of them, regenerate with::

    PYTHONPATH=src python tests/obs/test_observed_fingerprint.py

and review the diff like any other golden-file update.
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.apps.matmul import compile_matmul
from repro.apps.simple_app import compile_simple
from repro.common.config import MachineConfig, ObsConfig, SimConfig

FIXTURE = os.path.join(os.path.dirname(__file__),
                       "observed_fingerprint.json")

# name -> (app, args, PEs, MachineConfig extras, SimConfig extras, faults)
CASES = {
    "simple-24x2@8": ("simple", (24, 2), 8, {}, {}, None),
    "simple-8x1@1": ("simple", (8, 1), 1, {}, {}, None),
    "simple-8x1@4": ("simple", (8, 1), 4, {}, {}, None),
    "matmul-8@4": ("matmul", (8,), 4, {}, {}, None),
    "blocking-reads@4": ("simple", (8, 1), 4,
                         {"split_phase_reads": False}, {}, None),
    "spawn-budget-2@4": ("simple", (8, 1), 4, {"spawn_budget": 2}, {},
                         None),
    "jitter-7@4": ("simple", (8, 1), 4, {}, {"jitter_seed": 7}, None),
    "pe-degrade@4": ("simple", (8, 1), 4, {}, {},
                     "pe-degrade:pe=1,at=50,factor=3"),
    "drop@4": ("simple", (8, 1), 4, {}, {}, "drop:after=2,count=2"),
}

_PROGRAMS = {"simple": compile_simple, "matmul": compile_matmul}


def _sha(obj) -> str:
    # json renders a float by repr, so equal digests mean equal bits.
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _run(name: str, trace: bool):
    app, args, pes, machine, sim, faults = CASES[name]
    program = _PROGRAMS[app]()
    config = SimConfig(machine=MachineConfig(num_pes=pes, **machine),
                       obs=ObsConfig(metrics=True, timelines=True,
                                     waits=True, trace=trace), **sim)
    result = program.run(args, backend="sim", config=config, faults=faults)
    return program, args, result


def _views(name: str) -> dict:
    """Digests of the rendered views, from a run with the trace on."""
    from repro.obs.export import perfetto_json
    from repro.obs.profile import Profile

    _, _, result = _run(name, trace=True)
    stats = result.stats
    perfetto = perfetto_json(stats.log, stats.finish_time_us)
    profile = Profile.from_stats(stats).render(top=10)
    return {
        "perfetto": hashlib.sha256(perfetto.encode()).hexdigest(),
        "profile": hashlib.sha256(profile.encode()).hexdigest(),
    }


def fingerprint(name: str) -> dict:
    """The seven digests of one case (see the module docstring)."""
    from repro.obs.critpath import critical_path
    from repro.obs.runrecord import canonical_json

    program, args, result = _run(name, trace=False)
    stats = result.stats
    log = stats.log
    timelines = [[pe, unit, line.starts, line.ends, line.busy_us, 0]
                 for pe, unit, line in log.busy_lines()]
    records = [[r.uid, r.name, r.pe, r.created_at, r.ended_at, r.parent,
                r.segments] for r in log.records()]
    stalls = sorted(log.stalls.items())
    path = critical_path(log, stats.finish_time_us)
    record = result.to_run_record(program, args)
    del record["result"]["wall_time_s"]
    return {
        "timelines": _sha(timelines),
        "waits": _sha([records, stalls]),
        "critpath": _sha([[s.start, s.end, s.kind, s.sp]
                          for s in path.steps]),
        "registry": hashlib.sha256(
            stats.registry.to_jsonl().encode()).hexdigest(),
        "record": hashlib.sha256(
            canonical_json(record).encode()).hexdigest(),
        **_views(name),
    }


@pytest.fixture(scope="module")
def pinned() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(CASES))
def test_observed_outputs_bit_identical(pinned, name):
    assert fingerprint(name) == pinned[name]


if __name__ == "__main__":  # regenerate the fixture
    out = {name: fingerprint(name) for name in sorted(CASES)}
    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    with open(FIXTURE, "w") as fh:
        fh.write(text)
    print(f"wrote {FIXTURE} ({len(text)} bytes)")
