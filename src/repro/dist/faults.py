"""Deterministic fault injection for the distributed backend.

The transport (:mod:`repro.dist.transport`) and the node-loss machinery
(:mod:`repro.dist.coordinator`) exist to survive a hostile network;
these hooks make the hostility reproducible.  A plan is a spec string in
the shared grammar of :mod:`repro.common.faultplan`, handed to
``Backend.run(faults=...)``.  That module is also the engine (clause
loop, selector + arming window, event trigger counter); this one
declares the distributed vocabulary:

Frame-level actions, applied at the sending node's transmit boundary
(retransmissions pass through the injector again, so a healed loss is a
*genuine* retransmission, not a bookkeeping fiction):

* ``drop``  — the outgoing frame copy is lost (reliable frames heal by
  retransmission; heartbeats are simply missed);
* ``delay`` — the frame is held for ``seconds`` before hitting the wire;
* ``partition:a=A,b=B[,at=T,dur=S]`` — every frame between nodes A and B
  (both directions — each side's injector matches its own sends) is
  dropped during the window ``[T, T+S)`` measured from node start
  (``dur=0`` = forever).  A window shorter than the retransmit budget's
  reach heals; a longer one becomes a node-loss.

Frame qualifiers: ``src=``/``dst=`` restrict to one sender/receiver
(``dst=-1`` is the coordinator link), ``kind=`` to one frame class
(``data``, ``ack``, ``hb``), ``after=N`` skips the first N matching
frames, ``count=K`` arms the fault for K matches (0 = unlimited).

Process-level action:

* ``node-kill:node=K[,on=E,after=N,gen=G,exitcode=C]`` — ``os._exit``
  at the N-th trigger of event ``E`` (``iter``, ``write``, ``result``,
  ``hb``), the distributed twin of the parallel dialect's ``kill``.
  ``gen`` restricts to one executor generation on that node (1 = the
  original, 2+ = takeover replays, 0 = all — which with a kill exhausts
  the takeover budget).
* ``coord-kill[:on=E,after=N,exitcode=C]`` — ``os._exit`` the *primary
  coordinator process* at the N-th coordinator-side trigger of event
  ``E`` (``start`` = after the start broadcast, ``hb`` = a heartbeat
  arriving, ``done`` = a done report, ``result`` = the result report).
  Only the primary arms the clause — the promoted standby never
  re-fires it, so the scenario tests exactly one failover.

Parsing is strict (``ValueError`` naming the offending clause); plans
are a test/chaos instrument, not production configuration.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from repro.common import faultplan

DEFAULT_KILL_EXITCODE = 113  # same convention as repro.parallel.faults

FRAME_ACTIONS = ("drop", "delay", "partition")
KILL_ACTIONS = ("node-kill",)
COORD_ACTIONS = ("coord-kill",)

FRAME_KINDS = ("data", "ack", "hb")
KILL_EVENTS = ("iter", "write", "result", "hb")
COORD_EVENTS = ("start", "hb", "done", "result")

ANY = -2  # -1 is the coordinator address, so "any" sits below it

_SCHEMA = {
    "src": int, "dst": int, "kind": str, "after": int, "count": int,
    "seconds": float,
    "a": int, "b": int, "at": float, "dur": float,
    "node": int, "on": str, "gen": int, "exitcode": int,
}

DELAY_DEFAULT_S = 0.5


@dataclass(frozen=True)
class DistFault:
    """One clause of a distributed fault plan."""

    action: str
    # frame-fault qualifiers
    src: int = ANY
    dst: int = ANY
    kind: str = ""
    after: int = 0
    count: int = 1
    seconds: float = 0.0
    # partition qualifiers
    a: int = ANY
    b: int = ANY
    at: float = 0.0
    dur: float = 0.0
    # node-kill qualifiers
    node: int = ANY
    on: str = ""
    gen: int = 1
    exitcode: int = DEFAULT_KILL_EXITCODE

    def __post_init__(self) -> None:
        if self.action not in FRAME_ACTIONS + KILL_ACTIONS + COORD_ACTIONS:
            raise ValueError(f"unknown dist fault action {self.action!r}")
        if self.action == "coord-kill":
            if not self.on:
                object.__setattr__(self, "on", "start")
            if self.on not in COORD_EVENTS:
                raise ValueError(
                    f"unknown coord-kill trigger {self.on!r}")
            faultplan.require_nonneg(self, "after")
            return
        if self.action in ("drop", "delay"):
            if self.kind and self.kind not in FRAME_KINDS:
                raise ValueError(f"unknown frame kind {self.kind!r}")
            faultplan.require_nonneg(self, "after", "count", "seconds")
            if self.action == "delay" and self.seconds == 0.0:
                object.__setattr__(self, "seconds", DELAY_DEFAULT_S)
        elif self.action == "partition":
            if self.a < 0 or self.b < 0 or self.a == self.b:
                raise ValueError("partition needs distinct a=<n>,b=<n>")
            if self.at < 0 or self.dur < 0:
                raise ValueError("partition at/dur must be >= 0")
        else:  # node-kill
            if self.node < 0:
                raise ValueError("node-kill needs node=<k>")
            if not self.on:
                object.__setattr__(self, "on", "iter")
            if self.on not in KILL_EVENTS:
                raise ValueError(f"unknown kill trigger {self.on!r}")
            faultplan.require_nonneg(self, "after", "gen")


class DistFaultPlan(faultplan.Plan):
    """A parsed set of distributed faults (empty = healthy cluster)."""

    fault_cls = DistFault
    schema = _SCHEMA
    identity_keys = ("src", "dst", "a", "b", "node")

    def frame_faults(self) -> tuple[DistFault, ...]:
        return self.with_action(FRAME_ACTIONS)

    def kill_faults(self) -> tuple[DistFault, ...]:
        return self.with_action(KILL_ACTIONS)


class _KillTrigger(faultplan.EventTrigger):
    """Process-kill clauses: ``os._exit`` at the ``after``-th trigger."""

    def act(self, f: DistFault, count: int) -> None:
        if count == f.after:
            # Die like a power loss: no cleanup, no goodbye frame, the
            # listening socket just vanishes.
            os._exit(f.exitcode)


class DistFaultInjector(_KillTrigger):
    """One node's runtime for a plan: frame filter + kill triggers.

    Frame decisions are deterministic in traffic order (the shared
    engine's ``after``/``count`` windows); partitions use a wall-clock
    window from injector construction, which is the honest choice for a
    backend whose failure detector is itself wall-clock driven.  Kill
    counters restart on each executor generation, mirroring the
    parallel dialect (a replay re-executes its subrange from the top).
    """

    def __init__(self, plan: DistFaultPlan, node: int,
                 generation: int = 1) -> None:
        self.node = node
        frames = plan.frame_faults()
        self._partitions = [f for f in frames if f.action == "partition"]
        self._window = faultplan.ArmingWindow(
            [f for f in frames if f.action != "partition"], ANY)
        self._t0 = time.monotonic()
        super().__init__([f for f in plan.kill_faults() if f.node == node],
                         KILL_EVENTS, generation)

    set_generation = faultplan.EventTrigger.arm
    _kills = property(lambda self: self._armed)  # armed this generation

    # -- frame filter (transport transmit boundary) ----------------------

    def decide_frame(self, dst: int, kind: str) -> tuple[bool, float]:
        """(drop, extra delay seconds) for one outgoing frame."""
        drop = False
        delay_s = 0.0
        if self._partitions:
            now = time.monotonic() - self._t0
            for f in self._partitions:
                if ({self.node, dst} == {f.a, f.b}
                        and now >= f.at
                        and (f.dur == 0.0 or now < f.at + f.dur)):
                    drop = True
        if self._window:
            for f in self._window.firing(self.node, dst, kind):
                if f.action == "drop":
                    drop = True
                else:
                    delay_s += f.seconds
        return drop, delay_s


class CoordKillSwitch(_KillTrigger):
    """``coord-kill`` runtime, armed only inside the primary coordinator.

    The primary is generation 1; the promoted standby constructs its
    supervisor without a plan, so a clause fires at most once per run —
    the failover itself is what the scenario measures.
    """

    def __init__(self, plan: DistFaultPlan | None) -> None:
        super().__init__(plan.with_action(COORD_ACTIONS) if plan else (),
                         COORD_EVENTS)
