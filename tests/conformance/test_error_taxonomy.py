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

Every rendering must be the one-line ``error[Type/code]: ...`` form the
CLI prints — no tracebacks, no multi-line spew.
"""

import pytest

from repro.api import compile_source
from repro.backend import classify_error, get_backend, render_error
from repro.common.config import ParallelConfig
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
}
# Case name -> taxonomy code, where the name is not the code itself.
CODES = {"float-subscript": "bounds", "bool-subscript": "bounds"}

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
