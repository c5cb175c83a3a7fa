"""Church-Rosser under chaos: fault plans never change the answer.

Single assignment makes every execution order confluent, and the
reliable-delivery layer (:mod:`repro.sim.reliable`) extends that to
*unreliable* orders: any seeded plan of reorder/duplicate/delay faults —
and any drop plan the retransmit budget can absorb — must yield results
bit-identical to the fault-free run, with identical semantic ``array.*``
metrics.  Only modeled time is allowed to move.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import compile_source
from repro.apps.matmul import MATMUL_CHECKSUM_SOURCE
from repro.chaos import Scenario, run_scenario
from repro.common.chaoslib import ROW_SWEEP
from repro.common.config import MachineConfig, ObsConfig, SimConfig

# (program, size) pairs the properties quantify over; the runner
# compiles each (and takes its fault-free reference) once per process.
_CASES = {"row-sweep": (ROW_SWEEP, 6), "matmul": (MATMUL_CHECKSUM_SOURCE, 4)}

# Message kinds that actually occur in these programs at 2 PEs, so
# generated clauses exercise real traffic (an unmatched clause is a
# vacuous no-op).
KINDS = ("", "bcast", "read", "page", "value", "alloc", "ack")


def _config(**kw):
    return SimConfig(machine=MachineConfig(num_pes=2),
                     obs=ObsConfig(metrics=True), **kw)


def _clause(action, kind, after, count, us, seed):
    parts = [f"after={after}", f"count={count}", f"seed={seed}"]
    if kind:
        parts.append(f"kind={kind}")
    if us and action in ("delay", "reorder"):
        parts.append(f"us={us:g}")
    return f"{action}:" + ",".join(parts)


# One generated fault clause: strategy tuples -> spec text.
_benign_clauses = st.lists(
    st.tuples(st.sampled_from(["dup", "delay", "reorder"]),
              st.sampled_from(KINDS),
              st.integers(0, 5),        # after
              st.integers(0, 4),        # count (0 = unlimited)
              st.sampled_from([0, 50, 400, 1200]),   # us
              st.integers(0, 2 ** 16)),              # seed
    min_size=1, max_size=4)

_drop_clauses = st.lists(
    st.tuples(st.sampled_from(KINDS),
              st.integers(0, 3),        # after
              st.integers(1, 3),        # count: bounded, budget absorbs
              st.integers(0, 2 ** 16)),
    min_size=1, max_size=2)


def _assert_confluent(name, spec, **cfg_kw):
    """The chaos contract at 2 PEs: the ``seq`` value, the fault-free
    run's semantic rows, and the same run twice over."""
    source, n = _CASES[name]
    scenario = Scenario(name, spec, source=source, n=n, cfg=cfg_kw)
    assert run_scenario("sim", scenario, 2) == [], spec


@settings(max_examples=25, deadline=None)
@given(clauses=_benign_clauses)
def test_row_sweep_confluent_under_reorder_dup_delay(clauses):
    spec = ";".join(_clause(*c) for c in clauses)
    _assert_confluent("row-sweep", spec)


@settings(max_examples=12, deadline=None)
@given(clauses=_benign_clauses)
def test_matmul_confluent_under_reorder_dup_delay(clauses):
    spec = ";".join(_clause(*c) for c in clauses)
    _assert_confluent("matmul", spec)


@settings(max_examples=20, deadline=None)
@given(clauses=_drop_clauses, prob=st.sampled_from([1.0, 0.5]))
def test_drop_plans_heal_within_retransmit_budget(clauses, prob):
    spec = ";".join(
        f"drop:kind={kind},after={after},count={count},"
        f"prob={prob},seed={seed}" if kind else
        f"drop:after={after},count={count},prob={prob},seed={seed}"
        for kind, after, count, seed in clauses)
    # A fast timer so every drop heals inside the run; each clause loses
    # at most `count` copies per channel, well inside the budget of 8.
    _assert_confluent("row-sweep", spec, retransmit_timeout_us=800.0)


# Named counter-examples to the property above: a dropped message the
# program does not *wait* for must still be delivered before the run
# counts as complete.  Both returned a wrong answer without an error
# while the retransmit timer (``ru.net_check``) abandoned every unacked
# message at completion instead of only those the receiver already had
# (``seq in ch.seen``).

def test_dropped_empty_replica_broadcast_is_retransmitted_after_result():
    # PE 1's replica of the inner loop has an empty Range Filter: nothing
    # waits for it, so its dropped spawn broadcast used to be abandoned
    # once the result was in and the row was counted 3 times, not 4.
    spec = ("drop:kind=bcast,after=3,count=3,prob=0.5,seed=65535;"
            "drop:kind=bcast,after=1,count=2,prob=0.5,seed=1")
    _assert_confluent("row-sweep", spec, retransmit_timeout_us=800.0)
    # ... and the fault-free rows it was held to do count that row 4 times.
    clean = compile_source(ROW_SWEEP).run((6,), backend="sim",
                                          config=_config())
    assert clean.registry.value("rf.subrange", block="main.for_i.for_j",
                                first=1, last=0, pe=1) == 4


PREFIX_FILL = """
function main(n) {
    A = array(n);
    s = 0.0;
    for i = 1 to n { next s = s + 1.0; A[i] = s; }
    return A;
}
"""


@pytest.mark.parametrize("after", [29, 30, 31])
def test_dropped_fire_and_forget_write_is_retransmitted_after_result(after):
    # AWRITE is fire-and-forget: the serial loop's frame ends with its
    # last remote writes still in flight, so a dropped one used to leave
    # a hole (None) in the returned array, silently.
    scenario = Scenario(
        "fire-and-forget", f"drop:kind=write,after={after},count=1",
        source=PREFIX_FILL, n=64,
        expect={"stats.netstats.dropped": 1, "stats.netstats.retransmits": 1})
    assert run_scenario("sim", scenario, 2) == []


@settings(max_examples=10, deadline=None)
@given(clauses=_benign_clauses)
def test_chaos_runs_are_replayable(clauses):
    spec = ";".join(_clause(*c) for c in clauses)
    program = compile_source(ROW_SWEEP)
    runs = [program.run((6,), backend="sim", config=_config(), faults=spec)
            for _ in range(2)]
    assert runs[0].time_us == runs[1].time_us
    assert runs[0].registry.to_jsonl() == runs[1].registry.to_jsonl()
