"""Distributed-backend conformance: the full app matrix on a real
localhost cluster at 2 and 3 nodes.

Three contracts, mirroring what the rest of the suite pins for the
other substrates:

* **value parity** — every app returns the sequential oracle's answer
  to 1e-12, with remote I-structure reads travelling over real TCP;
* **semantic-metric parity** — the same Range-Filter subranges dealt
  to the same identity slots, the same total item count, the same
  store traffic and page population as the simulator at equal width
  (these are pure functions of program + width, so a real network in
  the middle must not move them);
* **taxonomy parity** — the canonical broken programs abort with the
  same structured error codes as every other backend, rendered in the
  one-line ``error[Type/code]`` form.

Node counts come from ``PODS_CONFORMANCE_NODES`` (default ``2,3``) so
CI can shard the matrix like it shards ``PODS_CONFORMANCE_PES``.
"""

import pytest

from repro.api import compile_source
from repro.backend import classify_error, get_backend, render_error
from repro.common.config import DistConfig
from repro.common.retry import RetryPolicy
from tests.conformance.matrix import APPS, DIST_NODES
from tests.conformance.test_error_taxonomy import CASES, CODES

pytestmark = pytest.mark.conformance

DIST_APPS = sorted(APPS)


def _rf_rows(reg):
    return sorted(
        (r.labels_dict()["pe"], r.labels_dict()["first"],
         r.labels_dict()["last"])
        for r in reg.select("rf.subrange"))


@pytest.mark.parametrize("nodes", DIST_NODES)
@pytest.mark.parametrize("app", DIST_APPS)
def test_value_parity(app, nodes, runner):
    oracle = runner(app, "seq", 1).value
    got = runner(app, "dist", nodes)
    assert got.value == oracle


@pytest.mark.parametrize("nodes", DIST_NODES)
@pytest.mark.parametrize("app", DIST_APPS)
def test_semantic_metric_parity_with_sim(app, nodes, runner):
    sim = runner(app, "sim", nodes, metrics=True)
    dist = runner(app, "dist", nodes)
    sim_reg, dist_reg = sim.registry, dist.registry
    assert sim_reg is not None and dist_reg is not None

    # Identical work division: the same RF subranges dealt to the same
    # identity slots, covering the same total item count.
    assert _rf_rows(sim_reg) == _rf_rows(dist_reg)
    assert sim_reg.total("rf.items") == dist_reg.total("rf.items")

    # Identical store traffic (single assignment: one write/element).
    assert (sim_reg.total("array.element_writes")
            == dist_reg.total("array.element_writes"))

    # Identical page population of the shared arrays.
    sim_pages = [r.value for r in sim_reg.select("array.pages_touched")]
    dist_pages = [r.value for r in dist_reg.select("array.pages_touched")]
    assert sim_pages == dist_pages


def test_result_surface(runner):
    r = runner(DIST_APPS[0], "dist", DIST_NODES[0])
    assert r.backend == "dist"
    assert r.parallelism == DIST_NODES[0]
    assert r.wall_time_s is not None and r.wall_time_s >= 0


# No recovery and a tight read timeout: these programs *should* fail,
# so the suite must not sit out the production watchdog budget.
FAST_DIST = DistConfig(nodes=2, retry=RetryPolicy(enabled=False),
                       read_timeout_s=2.0, timeout_s=20.0)


@pytest.mark.chaos
@pytest.mark.parametrize("code", sorted(CASES))
def test_same_taxonomy_code_as_other_backends(code):
    program = compile_source(CASES[code])
    with pytest.raises(Exception) as excinfo:
        get_backend("dist").run(program, (6,), config=FAST_DIST)
    exc = excinfo.value
    code = CODES.get(code, code)
    assert classify_error(exc) == code

    rendered = render_error(exc)
    assert "\n" not in rendered
    assert rendered.startswith(f"error[{type(exc).__name__}/{code}]: ")
