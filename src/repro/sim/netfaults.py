"""Deterministic network/PE fault injection for the simulated machine.

The paper's machine model assumes a perfectly reliable iPSC/2 network;
this module breaks that assumption *on purpose* so the reliable-delivery
protocol (:mod:`repro.sim.reliable`) and the progress guardrails have
something to survive.  A plan is a spec string in the shared grammar of
:mod:`repro.common.faultplan`, handed to ``Backend.run(faults=...)``;
this module declares only the simulator's vocabulary (the clause loop,
the selector and the ``after``/``count`` arming window are that module's
engine):

Message-level actions, applied where a copy goes on the wire
(``repro.sim.ru.transmit``):

* ``drop``    — the message copy is lost in flight (never delivered);
* ``dup``     — the message is delivered twice;
* ``delay``   — delivery is postponed by ``us`` microseconds;
* ``reorder`` — like ``delay`` but defaulting to a lag long enough that
  later messages on the channel overtake this one (two small-message
  latencies).

Message qualifiers: ``src=``/``dst=`` restrict to one sender/receiver PE
(default: any), ``kind=`` to one message class (``token``, ``bcast``,
``read``, ``page``, ``value``, ``write``, ``alloc``, ``ack``),
``after=N`` skips the first N matching messages, ``count=K`` arms the
fault for K matches (0 = unlimited), ``prob=P`` fires each armed match
with probability P drawn from a ``seed``-keyed deterministic RNG — the
whole plan is replayable: the same (program, args, config, plan) always
injects the same faults.

PE-level actions:

* ``pe-halt:pe=K[,at=T]``      — PE K stops dead at sim time T (default
  0): its units process nothing and every message addressed to it
  vanishes, exactly like a crashed node;
* ``pe-degrade:pe=K,factor=F[,at=T]`` — PE K runs F times slower from
  time T on (all five units).

Parsing is strict (``ValueError`` on anything malformed); plans are a
test/chaos instrument, not production configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common import faultplan

MESSAGE_ACTIONS = ("drop", "dup", "delay", "reorder")
PE_ACTIONS = ("pe-halt", "pe-degrade")

MESSAGE_KINDS = ("token", "bcast", "read", "page", "value", "write",
                 "alloc", "ack")

ANY = -1

# Default extra latency: `delay` nudges, `reorder` overtakes (two small
# Dunigan messages comfortably beat it through the wire).
DELAY_DEFAULT_US = 400.0
REORDER_DEFAULT_US = 800.0

_SCHEMA = {
    "src": int, "dst": int, "kind": str, "after": int, "count": int,
    "us": float, "prob": float, "seed": int,
    "pe": int, "at": float, "factor": float,
}


@dataclass(frozen=True)
class NetFault:
    """One clause of a simulator fault plan."""

    action: str
    # message-fault qualifiers
    src: int = ANY
    dst: int = ANY
    kind: str = ""
    after: int = 0
    count: int = 1
    us: float = 0.0
    prob: float = 1.0
    seed: int = 0
    # pe-fault qualifiers
    pe: int = ANY
    at: float = 0.0
    factor: float = 2.0

    def __post_init__(self) -> None:
        if self.action not in MESSAGE_ACTIONS + PE_ACTIONS:
            raise ValueError(f"unknown sim fault action {self.action!r}")
        if self.action in MESSAGE_ACTIONS:
            if self.kind and self.kind not in MESSAGE_KINDS:
                raise ValueError(f"unknown message kind {self.kind!r}")
            faultplan.require_nonneg(self, "after", "count")
            if not 0.0 <= self.prob <= 1.0:
                raise ValueError("fault prob must be in [0, 1]")
            faultplan.require_nonneg(self, "us")
            if self.us == 0.0 and self.action in ("delay", "reorder"):
                default = (DELAY_DEFAULT_US if self.action == "delay"
                           else REORDER_DEFAULT_US)
                object.__setattr__(self, "us", default)
        else:
            if self.pe < 0:
                raise ValueError(f"{self.action} needs pe=<k>")
            faultplan.require_nonneg(self, "at")
            if self.action == "pe-degrade" and self.factor <= 0:
                raise ValueError("pe-degrade factor must be > 0")

    def matches(self, src: int, dst: int, kind: str) -> bool:
        return faultplan.selects(self, src, dst, kind, ANY)


class SimFaultPlan(faultplan.Plan):
    """A parsed set of simulator faults (empty = reliable network)."""

    fault_cls = NetFault
    schema = _SCHEMA
    identity_keys = ("src", "dst", "pe")

    def message_faults(self) -> tuple[NetFault, ...]:
        return self.with_action(MESSAGE_ACTIONS)

    def pe_faults(self) -> tuple[NetFault, ...]:
        return self.with_action(PE_ACTIONS)


@dataclass
class FaultDecision:
    """What the injector wants done with one transmitted message."""

    drop: bool = False
    dup: bool = False
    extra_us: float = 0.0


class NetFaultInjector:
    """Applies a plan's message faults at the transmit boundary.

    Which clauses fire on which message is the shared engine's
    :class:`repro.common.faultplan.ArmingWindow` — deterministic and
    replayable, ``prob`` draws included.
    """

    def __init__(self, plan: SimFaultPlan) -> None:
        self._window = faultplan.ArmingWindow(plan.message_faults(), ANY)

    def decide(self, src: int, dst: int, kind: str) -> FaultDecision:
        decision = FaultDecision()
        for f in self._window.firing(src, dst, kind):
            if f.action == "drop":
                decision.drop = True
            elif f.action == "dup":
                decision.dup = True
            else:  # delay / reorder
                decision.extra_us += f.us
        return decision
