"""Self-healing policy and bookkeeping for the real-parallel backend.

PODS' single-assignment discipline makes recovery unusually cheap: an
I-structure element is written at most once, so re-running a dead
worker's Range-Filter subrange against the same shared segments is
*idempotent* — elements the predecessor already produced are simply
observed present (and value-checked) instead of recomputed, and the
replay fills in exactly the missing suffix.  No rollback, no logging,
no coordination protocol: recovery is plain re-execution.

The two passive pieces live in :mod:`repro.common.retry` (shared with
the distributed backend) and are re-exported here; the supervisor in
:mod:`repro.parallel.executor` drives them:

* :class:`RetryPolicy` — how many times to respawn, with what backoff.
  Jitter is derived deterministically from ``(seed, worker, attempt)``
  so recovery schedules are reproducible run-to-run, matching the
  repo-wide determinism discipline.
* :class:`RecoveryLog` — what actually happened: an ordered event list
  (respawns, takeovers, stall reports, supersessions), aggregate
  counters, and exporters into the shared
  :class:`repro.obs.MetricsRegistry` (the ``recovery.*`` family), the
  Perfetto trace, and the ``pods profile`` table.

Escalation ladder (implemented by the supervisor):

1. a retriable :class:`~repro.common.errors.WorkerFailure` (``crash`` or
   ``lost``) → **respawn** the same worker identity after backoff; the
   replay generation bumps the segments' ownership epoch so a half-dead
   predecessor is detectable (:class:`~repro.common.errors.WorkerSuperseded`);
2. per-worker retries exhausted → **takeover**: the orphaned identity is
   adopted by a fresh degraded-mode process (grouped with other orphans),
   using the same first-element-ownership math — an identity, not a
   process, owns a subrange;
3. global retry budget exhausted, or a non-retriable failure (``error``,
   ``hang``, ``stall``) → abort with
   :class:`~repro.common.errors.ParallelExecutionError` carrying the log.
"""

from __future__ import annotations

# Re-export shim: the policy and the log live in repro.common.retry so
# the supervisor here and the distributed backend share one
# implementation.  Importing them from this module keeps working.
from repro.common.retry import (EVENT_KINDS, RecoveryEvent, RecoveryLog,
                                RetryPolicy)

__all__ = ["EVENT_KINDS", "RecoveryEvent", "RecoveryLog", "RetryPolicy"]
