"""Fault × recovery matrix for the self-healing parallel backend.

Every recovery path — respawn after crash in each phase (before, mid,
after writes), double-crash of the same subrange, crash-on-respawn,
hang-in-spin, retry exhaustion → degraded-mode takeover, global budget
exhaustion — is provoked deterministically and must either heal with
results bit-identical to the sequential baseline or abort with a
structured :class:`ParallelExecutionError`, in both cases leaking zero
shared-memory segments.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.api import compile_source
from repro.common.chaoslib import shm_entries
from repro.common.config import ParallelConfig
from repro.common.errors import (DeferredReadTimeout, ParallelExecutionError,
                                 SingleAssignmentViolation, WorkerSuperseded)
from repro.common.retry import RecoveryEvent, RecoveryLog, RetryPolicy
from repro.parallel.shm_arrays import ShmArray

FILL = """
function main(n) {
    A = matrix(n, n);
    for i = 1 to n {
        for j = 1 to n { A[i, j] = 1.0 * i * j + 0.25; }
    }
    return A;
}
"""

SWEEP = """
function main(n) {
    B = matrix(n, n);
    for j = 1 to n { B[1, j] = 1.0 * j; }
    for i = 2 to n {
        for j = 1 to n { B[i, j] = B[i - 1, j] + 1.0; }
    }
    return B;
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

# Shrunk supervisor/backoff timings so the whole matrix runs in seconds.
FAST = dict(poll_interval_s=0.02, grace_s=0.2)
FAST_RETRY = dict(backoff_base_s=0.01, backoff_max_s=0.05)


def fast_cfg(workers=2, retry=None, **kw) -> ParallelConfig:
    """``retry`` holds RetryPolicy overrides on top of the fast backoff."""
    return ParallelConfig(
        workers=workers, retry=RetryPolicy(**{**FAST_RETRY, **(retry or {})}),
        **{**FAST, **kw})


def assert_no_leaked_segments():
    assert not shm_entries(), "leaked shared memory"


class TestOwnershipEpochs:
    def test_epochs_start_zero_and_are_monotonic(self):
        a = ShmArray("podsepochmono", (8,), create=True, epoch_slots=2)
        try:
            assert a.epoch(0) == 0 and a.epoch(1) == 0
            a.set_epoch(1, 3)
            a.set_epoch(1, 2)  # never lowers
            assert a.epoch(1) == 3
        finally:
            a.close()
            a.unlink()

    def test_stale_generation_is_superseded(self):
        name = "podsepochstale"
        old = ShmArray(name, (8,), create=True, epoch_slots=2,
                       slot=1, generation=1)
        new = ShmArray(name, (8,), create=False, epoch_slots=2,
                       slot=1, generation=2)
        try:
            with pytest.raises(WorkerSuperseded) as exc:
                old.write((1,), 1.0)
            assert (exc.value.worker, exc.value.generation,
                    exc.value.current) == (1, 1, 2)
            new.write((1,), 1.0)  # the successor is not superseded
            assert new.read((1,)) == 1.0
        finally:
            old.close()
            new.close()
            new_shm = ShmArray(name, (8,), create=False, epoch_slots=2)
            new_shm.close()
            new_shm.unlink()

    def test_replay_tolerates_present_elements_but_checks_values(self):
        name = "podsreplaycheck"
        a = ShmArray(name, (4,), create=True)
        replay = ShmArray(name, (4,), create=False, replay=True)
        try:
            a.write((1,), 2.0)
            replay.write((1,), 2.0)  # identical value: benign no-op
            assert replay.replayed_present == 1
            with pytest.raises(SingleAssignmentViolation):
                replay.write((1,), 3.0)  # a genuine double write
        finally:
            a.close()
            replay.close()
            gone = ShmArray(name, (4,), create=False)
            gone.close()
            gone.unlink()

    def test_exist_ok_create_falls_back_to_attach(self):
        name = "podsexistok"
        a = ShmArray(name, (4,), create=True)
        b = ShmArray(name, (4,), create=True, exist_ok=True)
        try:
            a.write((2,), 5)
            assert b.read((2,)) == 5
        finally:
            a.close()
            b.close()
            gone = ShmArray(name, (4,), create=False)
            gone.close()
            gone.unlink()


class TestStallWatchdog:
    def test_deferred_read_timeout_is_structured(self):
        a = ShmArray("podsdrtimeout", (4,), create=True, timeout_s=0.05)
        try:
            with pytest.raises(DeferredReadTimeout) as exc:
                a.read((2,))
            e = exc.value
            assert e.array == "podsdrtimeout"
            assert e.indices == (2,)
            assert e.offset == 1
            assert e.owner == 0
            assert e.waited_s >= 0.05
            assert "deadlock" in str(e)
        finally:
            a.close()
            a.unlink()

    def test_spin_ceiling_reports_stalls(self):
        reports = []
        a = ShmArray("podsstallrep", (4,), create=True, timeout_s=0.22,
                     spin_ceiling_s=0.05, on_stall=reports.append)
        try:
            with pytest.raises(DeferredReadTimeout):
                a.read((2,))
            assert len(reports) >= 2, "one report per ceiling crossing"
            assert reports[0]["array"] == "podsstallrep"
            assert reports[0]["offset"] == 1
            assert reports[0]["owner"] == 0
            assert reports[1]["waited_s"] > reports[0]["waited_s"]
            assert a.stall_reports == len(reports)
        finally:
            a.close()
            a.unlink()

    def test_quorum_deadlock_aborts_before_read_timeout(self):
        # Every live worker provably blocked at one instant -> causal
        # abort, long before the 30 s read timeout.
        p = compile_source(MISSING_WRITE)
        cfg = fast_cfg(workers=2, read_timeout_s=30.0, spin_ceiling_s=0.05)
        start = time.monotonic()
        with pytest.raises(ParallelExecutionError) as exc:
            p.run((8,), backend="parallel", config=cfg)
        assert time.monotonic() - start < 10.0
        assert "deadlock" in str(exc.value)
        assert exc.value.failures
        assert all(f.kind == "stall" for f in exc.value.failures)
        assert exc.value.recovery is not None
        assert exc.value.recovery.stall_reports > 0
        assert_no_leaked_segments()

    def test_hang_in_spin_is_reported_then_heals_itself(self):
        # A worker that stalls *transiently* inside a spin produces
        # watchdog reports but no abort: the run completes bit-identical.
        # The write delay keeps worker 0 behind the sweep front so the
        # last worker's boundary read genuinely spins (start skew would
        # otherwise let it find the element already present).
        p = compile_source(SWEEP)
        seq = p.run((12,), backend="seq")
        cfg = fast_cfg(workers=2, spin_ceiling_s=0.05)
        res = p.run((12,), backend="parallel", config=cfg,
                    faults="hang:worker=1,on=spin,seconds=0.3;"
                   "delay:worker=0,on=write,seconds=0.005").raw
        assert res.value.flat == seq.value.flat
        assert res.recovery.respawns == 0
        assert res.recovery.stall_reports >= 1, \
            "the watchdog should have reported the spin"
        assert_no_leaked_segments()


class TestRecoveryMatrix:
    """Injected crash in every phase: heal, bit-identical, counted."""

    def _seq(self, n=10):
        return compile_source(FILL).run((n,), backend="seq").value.flat

    def heal(self, faults, n=10, **cfg_kw):
        p = compile_source(FILL)
        cfg = fast_cfg(**cfg_kw)
        res = p.run((n,), backend="parallel", config=cfg, faults=faults).raw
        assert res.value.flat == self._seq(n), "not bit-identical"
        assert_no_leaked_segments()
        return res

    def test_crash_before_any_write(self):
        res = self.heal("kill:worker=1,on=iter,after=0")
        assert res.recovery.respawns == 1
        assert res.recovery.takeovers == 0
        assert res.registry.value("recovery.respawns") == 1
        assert res.registry.value("recovery.failures_seen") == 1

    def test_crash_mid_write_replays_exact_prefix(self):
        # fire() triggers on the sixth write event, i.e. after exactly
        # five completed shared writes — the replay must observe exactly
        # those five elements as already present.
        res = self.heal("kill:worker=1,on=write,after=5")
        assert res.recovery.respawns == 1
        assert res.recovery.replayed_elements == 5
        assert res.registry.value("recovery.replayed_elements") == 5

    def test_crash_after_all_writes(self):
        # Dies at the result event: every element of its subrange is
        # already present, so the whole replay is presence-bit no-ops.
        res = self.heal("kill:worker=1,on=result")
        assert res.recovery.respawns == 1
        t1 = res.worker_stats[1]
        assert res.recovery.replayed_elements == t1.shared_writes
        assert t1.shared_writes > 0

    def test_double_crash_of_same_subrange(self):
        # Crash on the original run AND on the first respawn
        # (crash-on-respawn, gen=2); the second respawn completes.
        res = self.heal("kill:worker=1,on=iter,after=2;"
                        "kill:worker=1,on=iter,after=1,gen=2")
        assert res.recovery.respawns == 2
        assert res.recovery.failures_seen == 2
        gens = [e.generation for e in res.recovery.events
                if e.kind == "respawn"]
        assert gens == [2, 3]

    def test_lost_worker_is_healed_too(self):
        # A clean exit without a result ("drop") is retriable like a
        # crash — the subrange replays.
        res = self.heal("drop:worker=1")
        assert res.recovery.respawns == 1

    def test_retry_exhaustion_escalates_to_takeover(self):
        # Zero per-worker retries: the first crash orphans identity 1,
        # which a degraded-mode recovery worker then adopts.
        res = self.heal("kill:worker=1,on=iter,after=2",
                        retry=dict(max_retries_per_worker=0))
        assert res.recovery.respawns == 0
        assert res.recovery.takeovers == 1
        assert res.registry.value("recovery.takeovers") == 1
        takeover = [e for e in res.recovery.events if e.kind == "takeover"]
        assert takeover and "(1,)" in takeover[0].detail

    def test_takeover_merges_when_crash_persists(self):
        # The fault re-fires in every generation (gen=0): respawns burn
        # the per-worker budget, then takeovers burn global budget until
        # it exhausts — a structured error, never a hang or a leak.
        p = compile_source(FILL)
        cfg = fast_cfg(retry=dict(max_retries_per_worker=1,
                                  max_retries_total=3))
        with pytest.raises(ParallelExecutionError) as exc:
            p.run((10,), backend="parallel", config=cfg,
                  faults="kill:worker=1,gen=0")
        assert "recovery budget exhausted" in str(exc.value)
        assert exc.value.recovery.respawns >= 1
        assert_no_leaked_segments()

    def test_all_workers_exhausted_raises_structured(self):
        p = compile_source(FILL)
        cfg = fast_cfg(retry=dict(max_retries_per_worker=1,
                                  max_retries_total=4))
        with pytest.raises(ParallelExecutionError) as exc:
            p.run((10,), backend="parallel", config=cfg,
                  faults="kill:worker=0,gen=0;kill:worker=1,gen=0")
        assert exc.value.failures
        assert exc.value.recovery is not None
        assert "recovery:" in str(exc.value)
        assert_no_leaked_segments()

    def test_recovery_disabled_fails_fast(self):
        p = compile_source(FILL)
        cfg = fast_cfg(retry=dict(enabled=False))
        with pytest.raises(ParallelExecutionError) as exc:
            p.run((10,), backend="parallel", config=cfg,
                  faults="kill:worker=1,on=iter,after=2")
        (failure,) = exc.value.failures
        assert failure.kind == "crash"
        assert_no_leaked_segments()

    def test_zero_fault_registry_has_no_recovery_rows(self):
        # The recovery.* family must appear only when something
        # happened, so zero-fault registries stay identical across
        # recovery on/off (cross-backend differential + bench goldens).
        p = compile_source(FILL)
        on = p.run((8,), backend="parallel", config=fast_cfg()).raw
        off = p.run((8,), backend="parallel",
                    config=fast_cfg(retry=dict(enabled=False)))
        strip = ("par.wall_time_s", "par.spin_wait_s", "par.max_spin_wait_s",
                 "wait.us", "array.deferred_reads")

        def stable_rows(reg):
            return [r for r in reg.rows() if r.name not in strip]

        assert stable_rows(on.registry) == stable_rows(off.registry)
        assert not [r for r in on.registry.rows()
                    if r.name.startswith("recovery.")]
        assert on.recovery is not None and not on.recovery.events
        assert_no_leaked_segments()

    def test_healed_run_exports_valid_recovery_trace(self):
        import json

        from repro.obs.export import (parallel_trace, parallel_trace_json,
                                      validate_trace_events)

        res = self.heal("kill:worker=1,on=iter,after=1")
        trace = parallel_trace(res)
        assert validate_trace_events(trace) == []
        names = [e["name"] for e in trace["traceEvents"]]
        assert "failure" in names             # instant on the crash
        assert "respawn backoff" in names     # span covering the backoff
        assert "worker1 RECOVERY" in str(
            [e for e in trace["traceEvents"] if e["ph"] == "M"])
        # The JSON form is byte-stable and round-trips.
        assert json.loads(parallel_trace_json(res)) == trace


class TestRecoveryLog:
    def test_event_kind_is_validated(self):
        with pytest.raises(ValueError):
            RecoveryEvent(0.0, "reboot", 0)

    def test_counters_follow_events(self):
        log = RecoveryLog()
        log.record(RecoveryEvent(0.1, "failure", 1, 1, "crash"))
        log.record(RecoveryEvent(0.2, "respawn", 1, 2, "attempt 1",
                                 dur_s=0.05))
        log.record(RecoveryEvent(0.3, "takeover", 1, 3, "ids (1,)",
                                 dur_s=0.02))
        log.record(RecoveryEvent(0.4, "stall", 0, 1, "A[3]"))
        assert (log.failures_seen, log.respawns, log.takeovers,
                log.stall_reports) == (1, 1, 1, 1)
        assert log.backoff_total_s == pytest.approx(0.07)
        assert log.healed
        table = log.table()
        assert "respawn" in table and "takeover" in table
        assert "failures=1" in log.summary()

    def test_empty_log_renders_quietly(self):
        log = RecoveryLog()
        assert not log.healed
        assert "(no recovery activity)" in log.table()


INTERRUPT_SCRIPT = """
import sys
from repro.api import compile_source

p = compile_source('''
function main(n) {
    A = matrix(n, n);
    for i = 1 to n {
        for j = 1 to n { A[i, j] = 1.0 * i * j; }
    }
    return A;
}
''')
print("READY", flush=True)
try:
    p.run((12,), backend="parallel", parallelism=2,
          faults="hang:worker=1,on=iter,after=1,seconds=120")
except KeyboardInterrupt:
    sys.exit(42)
sys.exit(1)
"""


class TestGracefulInterrupt:
    def test_sigterm_cleans_up_and_reraises(self, tmp_path):
        script = tmp_path / "interrupt_victim.py"
        script.write_text(INTERRUPT_SCRIPT)
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = os.path.join(root, "src")
        proc = subprocess.Popen([sys.executable, str(script)], env=env,
                                stdout=subprocess.PIPE, text=True)
        try:
            assert proc.stdout.readline().strip() == "READY"
            # Give the workers time to start and allocate shared memory.
            time.sleep(1.5)
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        # SIGTERM became KeyboardInterrupt, which run_parallel re-raised
        # after terminating the workers and unlinking every segment.
        assert rc == 42
        assert_no_leaked_segments()
