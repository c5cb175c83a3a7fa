"""Fault-injection tests for the supervised real-parallel backend.

Every failure mode the supervisor distinguishes — crash, hang, lost,
worker-reported error — is provoked deterministically and must surface
as a structured :class:`ParallelExecutionError` quickly (never the full
``timeout_s`` except for a genuine hang) and leave zero shared-memory
segments behind.
"""

import glob
import time

import pytest

from repro.api import compile_source
from repro.common.chaoslib import shm_entries
from repro.common.config import ParallelConfig
from repro.common.errors import ExecutionError, ParallelExecutionError
from repro.common.retry import RetryPolicy

FILL = """
function main(n) {
    A = matrix(n, n);
    for i = 1 to n {
        for j = 1 to n { A[i, j] = 1.0 * i * j + 0.25; }
    }
    return A;
}
"""

MISSING_WRITE = """
function main(n) {
    A = array(n);
    for i = 1 to n { if i != 3 { A[i] = i; } }
    s = 0;
    for i = 1 to n { next s = s + A[i]; }
    return s;
}
"""


def assert_no_leaked_segments():
    assert not shm_entries(), "leaked shared memory"


# These tests exercise the *fail-fast* layer underneath recovery: with
# recovery on (the default) an injected kill/drop would simply be healed
# (see tests/parallel/test_recovery.py for that behaviour).
NO_RECOVERY = ParallelConfig(workers=2, timeout_s=60.0,
                             retry=RetryPolicy(enabled=False))


class TestFaultPlanParsing:
    def test_parse_round_trip(self):
        from repro.parallel.faults import FaultPlan

        plan = FaultPlan.parse(
            "kill:worker=1,on=iter,after=3;drop:worker=2")
        assert len(plan.faults) == 2
        kill, drop = plan.faults
        assert (kill.action, kill.worker, kill.on, kill.after) == \
            ("kill", 1, "iter", 3)
        assert (drop.action, drop.worker, drop.on) == ("drop", 2, "result")

    def test_empty_spec_is_no_plan(self):
        from repro.parallel.faults import FaultPlan

        assert not FaultPlan.parse(None)
        assert not FaultPlan.parse("  ")

    @pytest.mark.parametrize("spec", [
        "explode:worker=1",         # unknown action
        "kill:after=3",             # missing worker
        "kill:worker=1,on=tick",    # unknown trigger
        "kill:worker=1,frobnicate=2",
    ])
    def test_malformed_specs_rejected(self, spec):
        from repro.parallel.faults import FaultPlan

        with pytest.raises(ValueError):
            FaultPlan.parse(spec)


class TestSupervisor:
    def test_killed_worker_is_structured_crash(self):
        p = compile_source(FILL)
        start = time.monotonic()
        with pytest.raises(ParallelExecutionError) as exc:
            p.run((10,), backend="parallel", config=NO_RECOVERY,
                  faults="kill:worker=1,on=iter,after=2")
        elapsed = time.monotonic() - start
        (failure,) = exc.value.failures
        assert failure.worker == 1
        assert failure.kind == "crash"
        assert failure.exitcode == 113
        # Fail-fast: detection is supervisor-poll bounded, nowhere near
        # the 60 s run deadline.
        assert elapsed < 15.0
        assert_no_leaked_segments()

    def test_crash_before_worker0_result_fails_fast(self):
        # The old backend blocked the full timeout on out_queue.get when
        # a non-0 worker died before worker 0 finished; the supervisor
        # must notice the child's exit instead.
        p = compile_source(FILL)
        start = time.monotonic()
        with pytest.raises(ParallelExecutionError) as exc:
            p.run((24,), backend="parallel", config=NO_RECOVERY,
                  faults="kill:worker=1,on=iter,after=0")
        elapsed = time.monotonic() - start
        assert [f.worker for f in exc.value.failures] == [1]
        assert elapsed < 15.0
        assert_no_leaked_segments()

    def test_hung_worker_raises_instead_of_truncating(self):
        # The old backend terminated the hung worker in ``finally`` and
        # still snapshotted the half-written array; now the deadline
        # produces a structured hang failure, never a result.
        p = compile_source(FILL)
        with pytest.raises(ParallelExecutionError) as exc:
            p.run((10,), backend="parallel",
                  config=ParallelConfig(workers=2, timeout_s=1.0),
                  faults="hang:worker=0,on=iter,after=2,seconds=60")
        assert "unjoined workers" in str(exc.value)
        hangs = [f for f in exc.value.failures if f.kind == "hang"]
        assert [f.worker for f in hangs] == [0]
        assert_no_leaked_segments()

    def test_dropped_worker_reported_lost(self):
        p = compile_source(FILL)
        with pytest.raises(ParallelExecutionError) as exc:
            p.run((10,), backend="parallel", config=NO_RECOVERY,
                  faults="drop:worker=1")
        (failure,) = exc.value.failures
        assert failure.kind == "lost"
        assert failure.exitcode == 0
        assert_no_leaked_segments()

    def test_missing_write_deadlock_is_bounded_and_diagnosed(self):
        # A read of a never-written element must hit the deferred-read
        # bound (shrunk from its 30 s default via config) and surface
        # the worker's deadlock diagnostic.
        p = compile_source(MISSING_WRITE)
        cfg = ParallelConfig(workers=2, read_timeout_s=0.3)
        start = time.monotonic()
        with pytest.raises(ParallelExecutionError) as exc:
            p.run((8,), backend="parallel", config=cfg)
        assert time.monotonic() - start < 15.0
        assert "deadlock" in str(exc.value)
        assert all(f.kind == "error" for f in exc.value.failures)
        assert_no_leaked_segments()

    def test_failures_are_execution_errors(self):
        # Callers that predate the supervisor catch ExecutionError.
        p = compile_source(FILL)
        with pytest.raises(ExecutionError):
            p.run((10,), backend="parallel", config=NO_RECOVERY,
                  faults="kill:worker=0,on=iter,after=1")
        assert_no_leaked_segments()

    def test_delayed_writes_stay_correct(self):
        # The delay fault widens race windows without changing results.
        p = compile_source(FILL)
        seq = p.run((6,), backend="seq")
        par = p.run((6,), backend="parallel", parallelism=2,
                    faults="delay:worker=1,on=write,seconds=0.001")
        assert par.value.flat == seq.value.flat
        assert_no_leaked_segments()


class TestTelemetry:
    def test_per_worker_stats_populated(self):
        p = compile_source(FILL)
        n = 10
        result = p.run((n,), backend="parallel", parallelism=2).raw
        assert len(result.worker_stats) == 2
        assert [t.worker for t in result.worker_stats] == [0, 1]
        # Every element is written exactly once, by exactly one worker.
        assert sum(t.shared_writes for t in result.worker_stats) == n * n
        for t in result.worker_stats:
            assert t.wall_time_s > 0.0
            assert t.rf_subranges, "distributed loop should report its RF"
        table = result.telemetry_table()
        assert "worker" in table and "rf-subranges" in table

    def test_deferred_reads_counted_on_cross_worker_sweep(self):
        p = compile_source("""
        function main(n) {
            B = matrix(n, n);
            for j = 1 to n { B[1, j] = 1.0 * j; }
            for i = 2 to n {
                for j = 1 to n { B[i, j] = B[i - 1, j] + 1.0; }
            }
            return B;
        }
        """)
        result = p.run((16,), backend="parallel", parallelism=4).raw
        stats = result.worker_stats
        assert sum(t.shared_reads for t in stats) > 0
        # Spin-wait accounting can only be nonzero if a read deferred.
        for t in stats:
            if t.max_spin_wait_s > 0:
                assert t.deferred_reads > 0


class TestManifestCleanup:
    def test_cleanup_survives_gaps(self):
        # The old sequential probe stopped at the first missing name,
        # leaking everything past a gap; the manifest must not.
        from repro.parallel.manifest import ShmManifest
        from repro.parallel.shm_arrays import ShmArray

        tag = "podsmanifesttest"
        manifest = ShmManifest.create(tag)
        arrays = []
        for seq in (1, 2, 3):
            manifest.record(f"{tag}_{seq}")
            if seq != 2:  # gap: segment 2 recorded but never created
                arrays.append(ShmArray(f"{tag}_{seq}", (4,), create=True))
        for arr in arrays:
            arr.close()
        removed = manifest.cleanup()
        assert sorted(removed) == [f"{tag}_1", f"{tag}_3"]
        assert not glob.glob(f"/dev/shm/{tag}*")

    def test_cleanup_sweeps_unrecorded_prefix_segments(self):
        from repro.parallel.manifest import ShmManifest
        from repro.parallel.shm_arrays import ShmArray

        tag = "podssweeptest"
        manifest = ShmManifest.create(tag)
        arr = ShmArray(f"{tag}_9", (4,), create=True)  # never recorded
        arr.close()
        assert f"{tag}_9" in manifest.cleanup()
        assert not glob.glob(f"/dev/shm/{tag}*")
