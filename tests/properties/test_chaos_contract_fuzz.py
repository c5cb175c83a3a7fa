"""Fuzz the chaos contract on real processes.

The scenario tables in :mod:`repro.chaos` are fixed plans with known
outcomes.  Here the plans are drawn — inside the retry budget on
``parallel``, inside the retransmit and takeover budgets on ``dist`` —
and handed to the same :func:`repro.chaos.run_scenario`, which allows
exactly two outcomes: the ``seq`` value with the fault-free run's
semantic totals, or an error :func:`repro.backend.classify_error` does
not call ``internal``; either way inside the config's ``timeout_s`` and
with no process, socket or shm segment left behind.

Derandomized and small (six plans per backend): every draw forks real
workers or nodes, and a CI failure must reproduce from the test id.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import (FAST_RECOVERY, HEAL_OR_CLASSIFIED, N_LONG, SWEEP,
                         Scenario, fast_parallel, run_scenario)

pytestmark = pytest.mark.chaos

FUZZ = settings(max_examples=6, derandomize=True, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
WIDTH = 2
TIMEOUT_S = 30.0

# ``gen`` stays at its default of 1, so a kill fires in a worker's first
# execution only: at most one respawn per worker, inside the budget of 2.
_parallel_clause = st.one_of(
    st.builds("kill:worker={},on={},after={}".format,
              st.integers(0, WIDTH - 1), st.sampled_from(["iter", "write"]),
              st.integers(0, 8)),
    st.builds("drop:worker={}".format, st.integers(0, WIDTH - 1)),
    st.builds("delay:worker={},on=write,seconds={}".format,
              st.integers(0, WIDTH - 1),
              st.sampled_from([0.001, 0.002, 0.005])),
)

# A handful of lost or late data frames (retransmit budget: 16 per
# channel) and at most one node loss (recovery budget: 8).
_frame_clause = st.one_of(
    st.builds("drop:kind=data,after={},count={}".format,
              st.integers(0, 6), st.integers(1, 4)),
    st.builds("delay:kind=data,after={},count={},seconds={}".format,
              st.integers(0, 6), st.integers(1, 3),
              st.sampled_from([0.02, 0.05, 0.1])),
)
# Node 1 runs 8 of the 16 rows: both windows end before its work does.
_node_kill = st.one_of(
    st.builds("node-kill:node=1,on=iter,after={}".format, st.integers(0, 6)),
    st.builds("node-kill:node=1,on=write,after={}".format,
              st.integers(0, 60)),
)


@FUZZ
@given(clauses=st.lists(_parallel_clause, min_size=1, max_size=2))
def test_parallel_heals_or_fails_classified(clauses):
    scenario = Scenario("fuzz", ";".join(clauses), source=SWEEP, n=12,
                        cfg=fast_parallel(timeout_s=TIMEOUT_S),
                        outcome=HEAL_OR_CLASSIFIED)
    assert run_scenario("parallel", scenario, WIDTH) == [], scenario.faults


@FUZZ
@given(frames=st.lists(_frame_clause, min_size=1, max_size=2),
       kill=st.none() | _node_kill)
def test_dist_heals_or_fails_classified(frames, kill):
    scenario = Scenario("fuzz", ";".join(frames + ([kill] if kill else [])),
                        n=N_LONG, outcome=HEAL_OR_CLASSIFIED,
                        cfg={**FAST_RECOVERY, "timeout_s": TIMEOUT_S,
                             "read_timeout_s": 15.0})
    assert run_scenario("dist", scenario, WIDTH) == [], scenario.faults
