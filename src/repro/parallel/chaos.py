"""Chaos driver: the fault × recovery matrix as a standalone check.

Runs every recovery scenario — crash before/mid/after writes, lost
worker, crash-on-respawn, hang-in-spin, retry exhaustion → takeover,
persistent crash → budget exhaustion — injecting each fault through the
``PODS_FAULTS`` environment variable (the same path an operator or a
soak harness would use), and verifies after every run that:

* healed runs return results **bit-identical** to the sequential
  interpreter, and the ``recovery.*`` metrics record exactly the
  injected events;
* unhealable runs raise a structured
  :class:`~repro.common.errors.ParallelExecutionError`;
* ``/dev/shm`` holds zero leaked ``pods*`` segments either way.

Used by the CI ``chaos`` job on 2 and 4 workers::

    PYTHONPATH=src python -m repro.parallel.chaos --workers 4
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

from repro.api import compile_source
from repro.common.chaoslib import run_matrix, shm_entries, unlink_quietly
from repro.common.config import ParallelConfig
from repro.common.errors import ParallelExecutionError
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

# Shrunk timings: the matrix must run in seconds, not backoff-minutes.
FAST = dict(poll_interval_s=0.02, grace_s=0.2)
FAST_RETRY = dict(backoff_base_s=0.01, backoff_max_s=0.05)


@dataclass
class Scenario:
    name: str
    faults: str
    source: str = FILL
    n: int = 12
    heals: bool = True              # expect a healed, bit-identical run
    cfg: dict = field(default_factory=dict)    # ParallelConfig overrides
    retry: dict = field(default_factory=dict)  # RetryPolicy overrides
    expect: dict = field(default_factory=dict)  # RecoveryLog attr -> value


def scenarios(workers: int) -> list[Scenario]:
    last = workers - 1
    return [
        Scenario("crash-before-write", "kill:worker=1,on=iter,after=0",
                 expect={"respawns": 1}),
        Scenario("crash-mid-write", "kill:worker=1,on=write,after=5",
                 expect={"respawns": 1, "replayed_elements": 5}),
        Scenario("crash-after-writes", "kill:worker=1,on=result",
                 expect={"respawns": 1}),
        Scenario("lost-worker", "drop:worker=1", expect={"respawns": 1}),
        Scenario("crash-on-respawn",
                 "kill:worker=1,on=iter,after=2;"
                 "kill:worker=1,on=iter,after=1,gen=2",
                 expect={"respawns": 2}),
        # The write delay keeps worker 0 behind the sweep front so the
        # last worker's boundary-row read genuinely spins (process start
        # skew would otherwise let it find the element already present).
        Scenario("hang-in-spin",
                 f"hang:worker={last},on=spin,seconds=0.3;"
                 "delay:worker=0,on=write,seconds=0.005",
                 source=SWEEP, cfg={"spin_ceiling_s": 0.05},
                 expect={"respawns": 0}),
        Scenario("takeover", "kill:worker=1,on=iter,after=2",
                 retry={"max_retries_per_worker": 0},
                 expect={"takeovers": 1}),
        Scenario("budget-exhaustion",
                 "kill:worker=0,gen=0;kill:worker=1,gen=0",
                 heals=False,
                 retry={"max_retries_per_worker": 1,
                        "max_retries_total": 3}),
    ]


def run_scenario(sc: Scenario, workers: int, verbose: bool) -> list[str]:
    """Run one scenario; return a list of problems (empty = pass)."""
    problems: list[str] = []
    program = compile_source(sc.source)
    baseline = program.run((sc.n,), backend="seq").value.flat
    cfg = ParallelConfig(workers=workers,
                         retry=RetryPolicy(**{**FAST_RETRY, **sc.retry}),
                         **{**FAST, **sc.cfg})
    os.environ["PODS_FAULTS"] = sc.faults
    try:
        result = program.run((sc.n,), backend="parallel", config=cfg).raw
    except ParallelExecutionError as exc:
        result = None
        if sc.heals:
            problems.append(f"expected heal, got: {exc}")
        elif verbose:
            print(f"    raised (expected): {str(exc).splitlines()[0]}")
    else:
        if not sc.heals:
            problems.append("expected ParallelExecutionError, run healed")
    finally:
        os.environ.pop("PODS_FAULTS", None)

    if result is not None:
        if result.value.flat != baseline:
            problems.append("result not bit-identical to sequential")
        rlog = result.recovery
        for attr, want in sc.expect.items():
            got = getattr(rlog, attr)
            if got != want:
                problems.append(f"recovery.{attr}: want {want}, got {got}")
        if verbose and rlog.events:
            print("    " + rlog.summary())
    leaked = sorted(shm_entries())
    if leaked:
        problems.append(f"leaked segments: {leaked}")
        # Don't poison the following scenarios.
        unlink_quietly(leaked)
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.parallel.chaos",
        description="run the fault x recovery matrix under PODS_FAULTS")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.workers < 2:
        print("chaos needs --workers >= 2", file=sys.stderr)
        return 2
    cases = [(sc.name,
              lambda sc=sc: run_scenario(sc, args.workers, args.verbose))
             for sc in scenarios(args.workers)]
    return run_matrix(cases, "chaos", f"{args.workers} workers")


if __name__ == "__main__":
    sys.exit(main())
