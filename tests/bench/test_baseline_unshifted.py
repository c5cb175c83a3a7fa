"""The committed run-record baselines must not shift while faults are off.

The reliable-delivery layer (:mod:`repro.sim.reliable`) claims to be
zero-cost when disabled; the SIMPLE 8x8x1 run records under
``benchmarks/baselines/`` (1 and 2 PEs — the records CI's bench-smoke
job gates with ``pods runs regress``) are the long-lived record that
claim is checked against.  This test re-runs each baseline's exact
program, arguments and width and requires the modeled time and the
answer to match to the float: if a change legitimately shifts modeled
time, re-emit the baselines deliberately (``pods simple --size 8
--steps 1 --pes 1,2 --record-dir DIR`` + copy the two objects) rather
than letting them drift.
"""

import os

from repro.apps.simple_app import compile_simple
from repro.bench.harness import Sweeper
from repro.obs.runrecord import source_hash
from repro.obs.store import load_record

BASELINES = [
    os.path.join(os.path.dirname(__file__), "..", "..", "benchmarks",
                 "baselines", name)
    for name in ("RUNRECORD_simple_smoke_1pe.json",
                 "RUNRECORD_simple_smoke.json")
]


def test_modeled_times_match_committed_baseline():
    program = compile_simple()
    sweeper = Sweeper()
    widths = []
    for path in BASELINES:
        record = load_record(path)
        assert (record["program"]["source_sha256"]
                == source_hash(program.source)), (
            f"{path} is not a record of the SIMPLE app")
        pes = record["config"]["parallelism"]
        widths.append(pes)
        got = sweeper.run(program, tuple(record["args"]), pes)
        for field, value in (("time_us", got.time_us),
                             ("value", got.value)):
            assert value == record["result"][field], (
                f"{os.path.basename(path)}: {field} shifted "
                f"({value!r} != baseline {record['result'][field]!r}) — "
                "faults-off runs must stay byte-identical; re-emit the "
                "baselines only for a deliberate model change")
    assert widths == [1, 2]
