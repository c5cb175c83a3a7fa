"""Paper p.22 instruction-time table: the simulator must charge exactly
the measured iPSC/2 costs.  Regenerates the table and cross-checks every
row against the cost pair the Execution Unit's decoder captures (the
decoded handlers themselves are held to the same values by
``tests/sim/test_timing_stats_trace.py::TestTimingModel``)."""

from __future__ import annotations

import pytest

from conftest import save_report

from repro.bench.report import render_table
from repro.sim import timing as T

# The (float, int) cost pairs the decoder captures per instruction
# (repro.sim.decode); the EU bills the float one when an operand is a
# float.
FLOAT, INT = 0, 1
BIN, UN = T._BIN_COSTS, T._UN_COSTS

# (paper row, expected us, how our model charges it)
ROWS = [
    ("integer add", 0.300, BIN["add"][INT]),
    ("integer subtraction", 0.300, BIN["sub"][INT]),
    ("bitwise logical", 0.558, BIN["and"][INT]),
    ("floating point negate", 0.555, UN["neg"][FLOAT]),
    ("floating point compare", 5.803, BIN["lt"][FLOAT]),
    ("floating point power", 96.418, BIN["pow"][FLOAT]),
    ("floating point abs", 12.626, UN["abs"][FLOAT]),
    ("floating point square root", 18.929, UN["sqrt"][FLOAT]),
    ("floating point multiply", 7.217, BIN["mul"][FLOAT]),
    ("floating point division", 10.707, BIN["div"][FLOAT]),
    ("floating point addition", 6.753, BIN["add"][FLOAT]),
    ("floating point subtraction", 6.757, BIN["sub"][FLOAT]),
]

DERIVED = [
    ("context switch (CALL ptr16:32)", 1.312, T.CONTEXT_SWITCH),
    ("local array read", 2.700, T.LOCAL_ARRAY_ACCESS),
    ("matching unit per token", 15.000, T.MATCH_TOKEN),
    ("token added to batch", 19.500, T.TOKEN_BATCH_COST),
    ("allocate array", 101.000, T.am_allocate()),
]


def test_instruction_times_table(benchmark):
    for name, expected, charged in ROWS + DERIVED:
        assert charged == pytest.approx(expected), name

    # The paper prices the 2.7us local read as mul + add + 3 cmp + read;
    # the derived integer multiply must make that identity hold.
    assert T.INT_MUL + T.INT_ADD + 3 * T.INT_CMP + T.MEM_READ == \
        pytest.approx(T.LOCAL_ARRAY_ACCESS)

    # Dunigan's message model.
    assert T.message_latency(100) == pytest.approx(390.0 + T.NET_PROPAGATION)
    assert T.message_latency(1000) == pytest.approx(
        697.0 + 0.4 * 1000 + T.NET_PROPAGATION)

    table = render_table(
        ["iPSC/2 instruction", "paper (us)", "model (us)"],
        [(n, e, c) for n, e, c in ROWS + DERIVED],
    )
    save_report("table_timings.txt", table)
    print("\n" + table)

    benchmark.pedantic(lambda: T.message_latency(1000),
                       rounds=1, iterations=100)
