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

The code is data: every ``PodsError`` class declares its own
(``code``), a worker sends it beside its traceback, and nothing reads
it back out of text — so it survives the parallel queue, a dist frame,
pickling and a coordinator failover, and a message that merely
*mentions* another class does not change the verdict.
"""

import importlib
import pickle
import pkgutil

import pytest

import repro
from repro.api import compile_source
from repro.backend import (ERROR_TAXONOMY, BackendConfigError,
                           classify_error, get_backend, render_error)
from repro.common.config import DistConfig, ParallelConfig
from repro.common.errors import (DistExecutionError, ExecutionError,
                                 NodeLossError, ParallelExecutionError,
                                 PodsError, RuntimeFault, SourceLocation,
                                 WorkerFailure)
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


FAST_DIST = DistConfig(nodes=2, retry=RetryPolicy(enabled=False),
                       read_timeout_s=2.0, timeout_s=20.0,
                       heartbeat_interval_s=0.01, poll_interval_s=0.02)


@pytest.mark.parametrize("backend,config", [("parallel", FAST_PARALLEL),
                                            ("dist", FAST_DIST)])
@pytest.mark.parametrize("mentioned", ["BoundsViolation",
                                       "SingleAssignmentViolation"])
def test_a_failure_is_classified_by_its_class_not_its_text(mentioned,
                                                           backend, config):
    """An arity error is an ``ExecutionError`` whose message names the
    entry function; calling that function ``BoundsViolation`` makes it
    no bounds violation, on the far side of a process boundary either."""
    program = compile_source(f"function {mentioned}(n) {{ return n; }}",
                             entry=mentioned)
    with pytest.raises(ExecutionError) as seq:
        get_backend("seq").run(program, (1, 2))
    assert mentioned in str(seq.value)
    with pytest.raises(ParallelExecutionError) as excinfo:
        get_backend(backend).run(program, (1, 2), config=config)
    assert mentioned in str(excinfo.value)
    assert classify_error(excinfo.value) == classify_error(seq.value) \
        == "execution"


def test_a_peer_that_died_before_allocating_stays_a_worker_failure():
    """A survivor that times out attaching a segment its dead peer never
    created reports the run's fault, not an instruction's: ``runtime``
    from a worker does not outrank the crash beside it."""
    from repro.parallel.shm_arrays import ShmArray

    with pytest.raises(RuntimeFault) as gone:
        ShmArray("pods-test-never-created", (4,), create=False,
                 attach_timeout_s=0.0)
    assert not isinstance(gone.value, ExecutionError)
    assert "never appeared" in str(gone.value)
    assert classify_error(gone.value) == "runtime"
    failures = [WorkerFailure(1, exitcode=-9, kind="crash"),
                WorkerFailure(0, kind="error", detail=str(gone.value),
                              code=classify_error(gone.value))]
    assert classify_error(
        ParallelExecutionError("run failed", failures)) == "worker-failure"


# -- the code as data -------------------------------------------------------


def _every_pods_error() -> list[type]:
    """Every ``PodsError`` class a module under ``repro`` defines."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)
    found, todo = [], [PodsError]
    while todo:
        cls = todo.pop()
        found.append(cls)
        todo.extend(cls.__subclasses__())
    return sorted(set(found), key=lambda cls: cls.__name__)


# One instance of each class, where ``cls("x")`` is not its signature.
_ARGS = {
    "SingleAssignmentViolation": (1, 0),
    "BoundsViolation": (1, (7,), (6,)),
    "PEHaltError": (1,),
    "MissingWriteError": (1, (1,)),
    "DeferredReadTimeout": ("a", (1,), 0, 0, 0.5),
    "WorkerSuperseded": (0, 1, 2),
    "TransportError": (0, 1, "retransmit-exhausted"),
    "LanguageError": ("x", SourceLocation(1, 1)),
}

# Today's verdicts, by class name; what is not listed is ``compile``.
_VERDICTS = {
    "RuntimeFault": "runtime",
    "SingleAssignmentViolation": "single-assignment",
    "BoundsViolation": "bounds",
    "DeadlockError": "deadlock", "DeferredReadTimeout": "deadlock",
    "MissingWriteError": "deadlock",
    "PEHaltError": "pe-halt", "LivelockError": "livelock",
    "ExecutionError": "execution", "WorkerSuperseded": "execution",
    "ParallelExecutionError": "worker-failure",
    "DistExecutionError": "worker-failure",
    "NodeLossError": "node-loss", "TransportError": "transport",
    "RunRegressionError": "regression",
}


@pytest.mark.parametrize("cls", _every_pods_error(),
                         ids=lambda cls: cls.__name__)
def test_every_error_class_declares_its_code(cls):
    exc = cls(*_ARGS.get(cls.__name__, ("x",)))
    assert exc.code in ERROR_TAXONOMY
    assert classify_error(exc) == exc.code \
        == _VERDICTS.get(cls.__name__, "compile")


def test_the_matrix_above_knows_every_class():
    names = {cls.__name__ for cls in _every_pods_error()}
    assert set(_VERDICTS) <= names and set(_ARGS) <= names
    compile_time = {"PodsError", "LanguageError", "LexError", "ParseError",
                    "SemanticError", "GraphError", "TranslationError",
                    "PartitionError", "BackendConfigError",
                    "UnknownBackendError", "CheckpointError",
                    "RunStoreError"}
    assert names == set(_VERDICTS) | compile_time
    assert classify_error(ValueError("x")) == "internal"
    assert classify_error(KeyboardInterrupt()) == "internal"


@pytest.mark.parametrize("cls", [ParallelExecutionError, DistExecutionError,
                                 NodeLossError])
def test_a_supervisors_code_is_derived_from_its_failures(cls):
    def code(*failures):
        return classify_error(cls("run failed", list(failures)))

    crash = WorkerFailure(1, exitcode=-9, kind="crash")
    stall = WorkerFailure(0, kind="stall")
    reported = {c: WorkerFailure(0, kind="error", code=c)
                for c in ERROR_TAXONOMY}
    if cls is NodeLossError:  # whatever its failures say
        assert code(crash, reported["bounds"]) == code() == "node-loss"
        return
    assert code() == code(crash) == "worker-failure"
    assert code(crash, stall) == "deadlock"
    # A program fault some worker reported wins, most specific first ...
    order = ["single-assignment", "bounds", "deadlock", "execution"]
    for i, first in enumerate(order):
        assert code(crash, stall, *(reported[c] for c in order[i:])) == first
    # ... and any other code a worker sent does not.
    for other in set(ERROR_TAXONOMY) - set(order):
        assert code(crash, reported[other]) == "worker-failure"


def test_the_code_survives_pickling():
    failures = [WorkerFailure(1, exitcode=-9, kind="crash"),
                WorkerFailure(0, kind="error", detail="tb", generation=2,
                              code="bounds")]
    for cls in (ParallelExecutionError, DistExecutionError, NodeLossError):
        sent = cls("run failed", failures)
        got = pickle.loads(pickle.dumps(sent))
        assert type(got) is cls and str(got) == str(sent)
        assert [f.code for f in got.failures] == [None, "bounds"]
        assert classify_error(got) == classify_error(sent)
        assert render_error(got) == render_error(sent)


def test_the_code_survives_a_coordinator_failover(broken):
    """The primary coordinator dies as it starts the nodes, so only the
    promoted standby can have heard of the program's fault — from the
    ``err`` report the node remembered and replayed in its resync."""
    with pytest.raises(DistExecutionError) as excinfo:
        get_backend("dist").run(broken["bounds"], (6,), config=FAST_DIST,
                                faults="coord-kill:on=start")
    exc = excinfo.value
    assert {f.code for f in exc.failures} == {"bounds"}
    assert classify_error(exc) == "bounds"
    assert render_error(exc).startswith("error[DistExecutionError/bounds]: ")
