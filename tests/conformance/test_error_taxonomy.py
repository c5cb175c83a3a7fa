"""Error-taxonomy parity: the same broken program produces the same
structured error *code* on every backend, whatever exception type the
substrate raises natively.

Three canonical failures cover the taxonomy's program-fault rows:

* double write  -> ``single-assignment`` (simulator raises
  SingleAssignmentViolation directly; the parallel backend wraps a
  worker's violation in ParallelExecutionError — same code).
* read of a never-written element -> ``deadlock`` (the split-phase
  machine idles with deferred reads pending; the eager sequential
  interpreter raises MissingWriteError at the read; the parallel
  backend reaches a stall quorum).
* out-of-bounds write -> ``bounds`` on every substrate.

A fourth program pins one more way into ``bounds``: a non-integer
subscript (``A[2.0]``) is out of bounds everywhere — never a
``TypeError`` out of the substrate's storage (which the parallel
backend would report as a ``worker-failure``).  A fifth pins the other
half of the one index rule (``runtime.arrays.offset_fn``): a boolean is
not an index either, so ``A[n == n]`` is never ``A[1]``.

Three more pin the arithmetic faults to ``execution``: a division by
zero is the program's error on every substrate (not a ``worker-failure``
because a worker reported it), and the two powers Python refuses with
exceptions of its own (``0.0 ^ -1``, ``10.0 ^ 400``) are the same
``ExecutionError`` a fractional power of a negative base is — never
``internal``.

A fault plan the run cannot honour — malformed, not a spec at all, or
addressed to a PE / worker / node the run does not have — is a
``BackendConfigError`` at the ``run()`` boundary on every fault-capable
backend.

Every rendering must be the one-line ``error[Type/code]: ...`` form the
CLI prints — no tracebacks, no multi-line spew.
"""

import traceback

import pytest

from repro.api import compile_source
from repro.backend import (BackendConfigError, classify_error, get_backend,
                           render_error)
from repro.common.config import ParallelConfig
from repro.common.errors import (ExecutionError, ParallelExecutionError,
                                 RuntimeFault, WorkerFailure)
from repro.common.retry import RetryPolicy

pytestmark = [pytest.mark.conformance, pytest.mark.chaos]

CASES = {
    "single-assignment": """
        function main(n) {
            A = array(n);
            for i = 1 to n { A[i] = i * 1.0; }
            for i = 1 to n { A[i] = i * 2.0; }
            return A[1];
        }
    """,
    "deadlock": """
        function main(n) {
            A = array(n);
            for i = 2 to n { A[i] = i * 1.0; }
            return A[1];
        }
    """,
    "bounds": """
        function main(n) {
            A = array(n);
            for i = 1 to n { A[i] = i * 1.0; }
            A[n + 1] = 99.0;
            return A[1];
        }
    """,
    "float-subscript": """
        function main(n) {
            A = array(n);
            for i = 1 to n { A[i] = i * 1.0; }
            return A[2.0];
        }
    """,
    "bool-subscript": """
        function main(n) {
            A = array(n);
            for i = 1 to n { A[i] = 1.0 * i; }
            return A[n == n];
        }
    """,
    "div-zero": "function main(n) { return n / 0; }",
    "zero-to-negative-power": "function main(n) { return 0.0 ^ (0 - 1); }",
    "pow-overflow": "function main(n) { return 10.0 ^ 400; }",
}
# Case name -> taxonomy code, where the name is not the code itself.
CODES = {"float-subscript": "bounds", "bool-subscript": "bounds",
         "div-zero": "execution", "zero-to-negative-power": "execution",
         "pow-overflow": "execution"}

BACKENDS = ("sim", "seq", "static", "parallel")

# No recovery and tight stall windows: these programs *should* fail, so
# the suite must not sit out the full production watchdog budget.
FAST_PARALLEL = ParallelConfig(workers=2, retry=RetryPolicy(enabled=False),
                               read_timeout_s=2.0, spin_ceiling_s=0.2,
                               timeout_s=20.0)


@pytest.fixture(scope="module")
def broken():
    return {code: compile_source(src) for code, src in CASES.items()}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("code", sorted(CASES))
def test_same_code_on_every_backend(code, backend, broken):
    kwargs = ({"config": FAST_PARALLEL} if backend == "parallel"
              else {"parallelism": 2})
    with pytest.raises(Exception) as excinfo:
        get_backend(backend).run(broken[code], (6,), **kwargs)
    exc = excinfo.value
    code = CODES.get(code, code)
    assert classify_error(exc) == code

    rendered = render_error(exc)
    assert "\n" not in rendered
    assert rendered.startswith(f"error[{type(exc).__name__}/{code}]: ")


# A fault plan a run cannot honour is the caller's mistake, caught at
# ``Backend.run`` before anything starts: never ``internal`` (a raw
# ``ValueError``), never a run that silently ignores the clause.
BAD_PLANS = {
    "malformed": dict.fromkeys(("sim", "parallel", "dist"), "bogus:x=1"),
    "not-a-spec": dict.fromkeys(("sim", "parallel", "dist"), 123),
    "no-such-identity": {"sim": "pe-halt:pe=9", "parallel": "kill:worker=9",
                         "dist": "node-kill:node=9"},
}


@pytest.mark.parametrize("backend", ("sim", "parallel", "dist"))
@pytest.mark.parametrize("case", sorted(BAD_PLANS))
def test_a_bad_fault_plan_is_a_config_error(case, backend):
    healthy = compile_source("function main(n) { return n * 2; }")
    plan = BAD_PLANS[case][backend]
    with pytest.raises(BackendConfigError) as excinfo:
        get_backend(backend).run(healthy, (6,), parallelism=2, faults=plan)
    rendered = render_error(excinfo.value)
    assert "\n" not in rendered
    assert rendered.startswith("error[BackendConfigError/compile]: ")
    assert str(plan) in rendered  # the clause is named


def test_only_the_bare_execution_error_is_recovered_from_a_detail():
    """The worker-side class is read out of its traceback's last line;
    the supervisors' own ``*ExecutionError`` names end in the same word
    and must not be mistaken for it."""
    def code(detail: str) -> str:
        failure = WorkerFailure(0, kind="error", detail=detail)
        return classify_error(ParallelExecutionError("run failed", [failure]))

    assert code("ExecutionError: division by zero\nTraceback (most recent "
                "call last):\n  ...\nrepro.common.errors.ExecutionError: "
                "division by zero") == "execution"
    assert code("repro.common.errors.DistExecutionError: node 1 reported "
                "a program error") == "worker-failure"
    assert code("ParallelExecutionError: 1 worker failure(s)") \
        == "worker-failure"
    # A more specific class named anywhere in the detail still wins.
    assert code("repro.common.errors.ExecutionError: while handling "
                "BoundsViolation") == "bounds"


def test_a_peer_that_died_before_allocating_stays_a_worker_failure():
    """A survivor that times out attaching a segment its dead peer never
    created reports the run's fault, not an instruction's: its detail
    must not read as the program's ``ExecutionError``."""
    from repro.parallel.shm_arrays import ShmArray

    with pytest.raises(RuntimeFault) as gone:
        ShmArray("pods-test-never-created", (4,), create=False,
                 attach_timeout_s=0.0)
    assert not isinstance(gone.value, ExecutionError)
    detail = (f"{type(gone.value).__name__}: {gone.value}\n"  # as a worker
              + "".join(traceback.format_exception(gone.value)))  # sends it
    assert "never appeared" in detail
    failures = [WorkerFailure(1, exitcode=-9, kind="crash"),
                WorkerFailure(0, kind="error", detail=detail)]
    assert classify_error(
        ParallelExecutionError("run failed", failures)) == "worker-failure"
