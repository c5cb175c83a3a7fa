"""Unit tests for the shared retry budget (:mod:`repro.common.retry`).

Both supervisor configs carry the policy itself as their ``retry``
field, so its knobs — and their validation — are declared once.
"""

import pytest

from repro.common.config import ParallelConfig
from repro.common.retry import RetryPolicy


class TestRetryPolicy:
    def test_backoff_is_deterministic_in_seed(self):
        a = RetryPolicy(seed=7)
        b = RetryPolicy(seed=7)
        c = RetryPolicy(seed=8)
        seq_a = [a.backoff_s(w, k) for w in range(3) for k in (1, 2, 3)]
        seq_b = [b.backoff_s(w, k) for w in range(3) for k in (1, 2, 3)]
        assert seq_a == seq_b
        assert seq_a != [c.backoff_s(w, k) for w in range(3)
                         for k in (1, 2, 3)]

    def test_backoff_grows_and_caps(self):
        p = RetryPolicy(backoff_base_s=0.1, backoff_max_s=0.4, jitter=0.0)
        assert p.backoff_s(0, 1) == pytest.approx(0.1)
        assert p.backoff_s(0, 2) == pytest.approx(0.2)
        assert p.backoff_s(0, 3) == pytest.approx(0.4)
        assert p.backoff_s(0, 9) == pytest.approx(0.4)  # capped
        with pytest.raises(ValueError):
            p.backoff_s(0, 0)

    def test_jitter_desynchronises_workers(self):
        p = RetryPolicy(jitter=0.5, seed=1)
        delays = {p.backoff_s(w, 1) for w in range(8)}
        assert len(delays) > 1, "jitter should differ across workers"

    def test_configs_carry_the_policy_itself(self):
        from repro.common.config import DistConfig

        policy = RetryPolicy(max_retries_per_worker=5, seed=42,
                             enabled=False)
        assert ParallelConfig(workers=2, retry=policy).retry is policy
        assert DistConfig(nodes=2, retry=policy).retry is policy
        assert ParallelConfig().retry == DistConfig().retry == RetryPolicy()

    @pytest.mark.parametrize("kwargs", [
        {"backoff_base_s": 0}, {"backoff_max_s": float("nan")},
        {"max_retries_per_worker": -1}, {"max_retries_total": -1},
        {"jitter": -0.1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            RetryPolicy(**kwargs)

FILL = """
function main(n) {
    A = matrix(n, n);
    for i = 1 to n {
        for j = 1 to n { A[i, j] = 1.0 * i * j + 0.25; }
    }
    return A;
}
"""

# Shrunk timings so the budget-exhaustion runs finish in milliseconds.
FAST = dict(poll_interval_s=0.02, grace_s=0.2)
FAST_RETRY = dict(backoff_base_s=0.01, backoff_max_s=0.05)


class TestBudgetEdges:
    """The corners of the shared budget the happy-path tests skip."""

    def test_zero_global_budget_fails_on_first_crash(self):
        # max_retries_total=0 is a legal "never retry anything" policy:
        # the very first crash must exhaust the global budget — a
        # structured error, zero respawn attempts, no hang.
        from repro.api import compile_source
        from repro.common.errors import ParallelExecutionError

        p = compile_source(FILL)
        cfg = ParallelConfig(
            workers=2, retry=RetryPolicy(max_retries_total=0, **FAST_RETRY),
            **FAST)
        with pytest.raises(ParallelExecutionError) as exc:
            p.run((8,), backend="parallel", config=cfg,
                  faults="kill:worker=1,on=iter,after=0")
        assert "recovery budget exhausted (0 retries)" in str(exc.value)
        assert exc.value.recovery.respawns == 0

    def test_global_budget_checked_before_per_worker(self):
        # Both budgets expire on the same attempt (total=1 and
        # per-worker=1, crash re-fires every generation): the global
        # check runs first, so the failure is reported as global
        # exhaustion and no takeover is ever scheduled for a run the
        # budget has already condemned.
        from repro.api import compile_source
        from repro.common.errors import ParallelExecutionError

        p = compile_source(FILL)
        cfg = ParallelConfig(
            workers=2, retry=RetryPolicy(max_retries_per_worker=1,
                                         max_retries_total=1, **FAST_RETRY),
            **FAST)
        with pytest.raises(ParallelExecutionError) as exc:
            p.run((8,), backend="parallel", config=cfg,
                  faults="kill:worker=1,gen=0")
        assert "recovery budget exhausted (1 retries)" in str(exc.value)
        kinds = [e.kind for e in exc.value.recovery.events]
        assert kinds.count("respawn") == 1
        assert "takeover" not in kinds

    def test_jitter_is_deterministic_at_the_budget_boundary(self):
        # The delays that matter most — the last in-budget respawn and
        # the takeover right past it — must replay exactly for the same
        # seed: recovery schedules are part of the reproducibility
        # contract, not best-effort.
        mk = lambda seed: RetryPolicy(max_retries_per_worker=3,
                                      jitter=0.5, seed=seed)
        a, b, c = mk(5), mk(5), mk(6)
        boundary = a.max_retries_per_worker
        for worker in range(4):
            for attempt in (boundary, boundary + 1):
                assert (a.backoff_s(worker, attempt)
                        == b.backoff_s(worker, attempt))
        assert any(a.backoff_s(w, boundary) != c.backoff_s(w, boundary)
                   for w in range(4))

    def test_backoff_cap_bounds_jittered_delay(self):
        # Jitter widens the capped base, never past (1 + jitter) of it:
        # the worst-case respawn delay stays computable from the config.
        p = RetryPolicy(backoff_base_s=0.1, backoff_max_s=0.4,
                        jitter=0.25, seed=3)
        for attempt in (1, 5, 30):
            d = p.backoff_s(0, attempt)
            assert d <= 0.4 * 1.25
            assert d >= min(0.4, 0.1 * 2.0 ** (attempt - 1))
