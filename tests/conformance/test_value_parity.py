"""Value parity: every backend computes the same answer for every app.

The sequential interpreter is the oracle (it implements the language's
denotational semantics with no machinery in the way); the simulator,
the static P&R model and the real multiprocessing backend must agree
with it to 1e-12 relative at every width in the matrix.
"""

import pytest

from tests.conformance.matrix import APPS, BACKENDS, PES

pytestmark = pytest.mark.conformance


@pytest.mark.parametrize("pes", PES)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("app", sorted(APPS))
def test_value_parity(app, backend, pes, runner):
    if backend == "seq" and pes != PES[0]:
        pytest.skip("sequential oracle has no parallelism axis")
    oracle = runner(app, "seq", 1).value
    got = runner(app, backend, 1 if backend == "seq" else pes)
    assert got.value == oracle


@pytest.mark.parametrize("app", sorted(APPS))
def test_result_surface_is_uniform(app, runner):
    """Every backend returns the same BackendResult surface."""
    for backend in BACKENDS:
        r = runner(app, backend, 1 if backend == "seq" else PES[0])
        assert r.backend == backend
        assert r.parallelism >= 1
        # Exactly one time axis is modeled per substrate.
        if backend in ("sim", "seq", "static"):
            assert r.time_us is not None and r.time_us >= 0
        if backend == "parallel":
            assert r.wall_time_s is not None and r.wall_time_s >= 0
