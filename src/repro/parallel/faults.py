"""Deterministic fault injection for the real-parallel backend.

The supervisor in :mod:`repro.parallel.executor` exists to turn worker
death into structured errors; these hooks exist to *cause* worker death
on demand so the failure paths are testable.  A fault plan is a list of
faults, each bound to one worker and one trigger event:

* ``kill``  — ``os._exit`` with a nonzero code (a crash the parent sees
  only through the exitcode, like a segfault or OOM kill);
* ``hang``  — sleep for ``seconds`` (a stuck worker the parent must
  time out and terminate);
* ``drop``  — ``os._exit(0)`` (a clean exit that never delivers its
  result/telemetry message — a "lost" worker);
* ``delay`` — sleep ``seconds`` before every matching event from
  ``after`` onward (slow writes widening race windows).

Trigger events, counted per worker:

* ``iter``   — one distributed-loop iteration is about to run;
* ``write``  — one shared-array write is about to happen;
* ``result`` — the worker is about to enqueue its result/telemetry;
* ``spin``   — a deferred read just found its element absent and is
  about to start spinning.

Each fault also carries a generation qualifier ``gen``: 1 (the default)
fires only in a worker's first execution, ``gen=k`` only in its *k*-th
(recovery respawns/takeovers count up from 2 — ``gen=2`` is the
crash-on-respawn idiom), and ``gen=0`` fires in every generation (which
with ``kill`` exhausts the retry budget).  Event counts restart from
zero in each generation, since a replay re-executes the subrange from
the top.

Plans parse from a compact spec string (handed to
``Backend.run(faults=...)``)::

    kill:worker=1,on=iter,after=3
    hang:worker=0,seconds=60;drop:worker=2
    kill:worker=1,on=write,after=2,gen=2

Recovery-path idioms: ``kill:worker=K,on=write,after=N`` crashes
mid-write (after N completed writes), ``kill:worker=K,gen=2`` crashes
the respawn, ``hang:worker=K,on=spin`` hangs a worker inside a
deferred-read spin.

Faults are a test/bench instrument: parsing is strict and raises
``ValueError`` on anything malformed rather than guessing.

This module is the dialect's *vocabulary* only.  The spec grammar, the
clause loop and the per-event trigger counter with its generation
filter are the shared engine of :mod:`repro.common.faultplan`,
which the simulator (:mod:`repro.sim.netfaults`) and distributed
(:mod:`repro.dist.faults`) dialects sit on too.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.common import faultplan

DEFAULT_KILL_EXITCODE = 113

_ACTIONS = ("kill", "hang", "drop", "delay")
_EVENTS = ("iter", "write", "result", "spin")
_DEFAULT_EVENT = {"kill": "iter", "hang": "iter", "drop": "result",
                  "delay": "write"}

# The parallel dialect's qualifier schema (see common/faultplan.py).
_SCHEMA = {"worker": int, "after": int, "exitcode": int, "gen": int,
           "seconds": float, "on": str}


@dataclass(frozen=True)
class Fault:
    """One injected fault: ``action`` on ``worker`` at trigger ``on``.

    ``gen`` restricts the fault to one execution generation of the
    worker (1 = original launch, 2+ = recovery replays, 0 = all).
    """

    action: str
    worker: int
    on: str = ""
    after: int = 0
    seconds: float = 60.0
    exitcode: int = DEFAULT_KILL_EXITCODE
    gen: int = 1

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}")
        if not self.on:
            object.__setattr__(self, "on", _DEFAULT_EVENT[self.action])
        if self.on not in _EVENTS:
            raise ValueError(f"unknown fault trigger {self.on!r}")
        faultplan.require_nonneg(self, "worker", "after", "gen")


class FaultPlan(faultplan.Plan):
    """A set of faults for one run (empty = normal operation)."""

    fault_cls = Fault
    schema = _SCHEMA
    identity_keys = ("worker",)
    required = ("worker",)


class FaultInjector(faultplan.EventTrigger):
    """Per-worker runtime that fires the plan's faults at their triggers.

    Instantiated inside the worker process.
    """

    def __init__(self, plan: FaultPlan, worker: int,
                 generation: int = 1) -> None:
        super().__init__([f for f in plan.faults if f.worker == worker],
                         _EVENTS, generation)

    def act(self, f: Fault, count: int) -> None:
        if f.action == "delay":
            if count >= f.after:
                time.sleep(f.seconds)
        elif count == f.after:
            if f.action == "kill":
                # Bypass interpreter cleanup and atexit — die like a
                # segfaulting process would.
                os._exit(f.exitcode)
            elif f.action == "hang":
                time.sleep(f.seconds)
            elif f.action == "drop":
                os._exit(0)
