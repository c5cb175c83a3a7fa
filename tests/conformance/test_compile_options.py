"""Compile-option parity: ``compile_source``'s options mean the same
thing on every executing backend.

The partition is derived once, in ``compile_source``; a backend that
re-derived it with default options would still compute the right value
(determinacy) while silently distributing loops the program was told
not to.  So besides the value, the backends that publish metrics must
show Range-Filter activity on exactly the blocks ``partition_report``
says were distributed — no more, no fewer.
"""

import pytest

from repro.api import compile_source
from repro.apps.matmul import MATMUL_CHECKSUM_SOURCE
from repro.backend import METRICS, get_backend
from repro.common.chaoslib import ROW_SWEEP
from repro.common.config import ObsConfig, SimConfig

pytestmark = pytest.mark.conformance

PROGRAMS = {"matmul": (MATMUL_CHECKSUM_SOURCE, (6,)),
            "row-sweep": (ROW_SWEEP, (8,))}
OPTIONS = {"no-distribute": {"distribute": False},
           "rf-inner": {"rf_placement": "inner"},
           "aggressive": {"aggressive": True},
           "optimize": {"optimize": True}}
BACKENDS = ("sim", "static", "parallel", "dist")


@pytest.fixture(scope="module")
def compiled():
    cache = {}

    def get(name, option):
        if (name, option) not in cache:
            cache[name, option] = compile_source(PROGRAMS[name][0],
                                                 **OPTIONS[option])
        return cache[name, option]

    return get


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("option", sorted(OPTIONS))
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_option_is_honoured(name, option, backend, compiled):
    program, args = compiled(name, option), PROGRAMS[name][1]
    # The simulator only publishes a registry when asked to observe.
    config = (SimConfig(obs=ObsConfig(metrics=True)) if backend == "sim"
              else None)
    got = program.run(args, backend=backend, parallelism=2, config=config)
    oracle = program.run(args, backend="seq").value
    assert got.value == oracle

    if METRICS in get_backend(backend).capabilities:
        filtered = {row.labels_dict()["block"]
                    for row in got.registry.select("rf.subrange")}
        assert filtered == set(program.partition_report.distributed)
