"""The shared fault-plan grammar and engine behind every fault dialect.

A fault plan is a compact spec string of semicolon-separated clauses::

    action:key=value,key=value;action:key=value

Three dialects speak it: the real-parallel backend
(:mod:`repro.parallel.faults` — process faults like ``kill``/``hang``),
the simulated machine (:mod:`repro.sim.netfaults` — network faults like
``drop``/``dup``/``reorder`` and PE faults like ``pe-halt``) and the
distributed backend (:mod:`repro.dist.faults` — frame faults, link
partitions, node and coordinator kills).  They differ only in
vocabulary: a dialect declares its action names, a *schema* mapping
qualifier names to coercions (``int``/``float``/``str``), defaults,
per-action validation and what firing *does*.  Everything else is here,
once: the grammar and :func:`parse_plan`'s clause loop, :class:`Plan`
and :func:`resolve` (spec string / plan), the message
selector with its ``after``/``count`` window (:class:`ArmingWindow`) and
the per-event trigger counter with its ``gen`` filter
(:class:`EventTrigger`).  Anything outside the schema is a hard
``ValueError`` — fault plans are a test instrument and must never guess.

A plan enters a run one way: ``Backend.run(..., faults=...)``
(:meth:`repro.backend.Backend.fault_plan` parses it with the backend's
plan class and records it in the run's fingerprint).  Nothing here reads
the process environment, so what a run did is what its caller passed.
Qualifiers common to several dialects — counting windows (``after``,
``count``), generation/seed selectors (``gen``, ``seed``) — keep one
spelling and one meaning everywhere.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import ClassVar


def split_clauses(spec: str) -> list[tuple[str, str]]:
    """Split a plan spec into ``(action, argstr)`` clause pairs.

    Empty clauses (stray semicolons, surrounding whitespace) are
    dropped; the action name is stripped but not validated — that is the
    dialect's job.
    """
    out: list[tuple[str, str]] = []
    for part in spec.split(";"):
        part = part.strip()
        if not part:
            continue
        action, _, argstr = part.partition(":")
        out.append((action.strip(), argstr))
    return out


def parse_clause_args(argstr: str, schema: dict, clause: str = "") -> dict:
    """Parse ``key=value,...`` into kwargs using a dialect schema.

    ``schema`` maps each legal qualifier name to a coercion callable
    (``int``, ``float``, ``str``).  Raises ``ValueError`` on a missing
    ``=``, an unknown key, or a value the coercion rejects; ``clause``
    names the offending clause in the message.
    """
    kwargs: dict = {}
    if not argstr.strip():
        return kwargs
    for pair in argstr.split(","):
        key, eq, value = pair.partition("=")
        key = key.strip()
        if not eq:
            raise ValueError(f"bad fault argument {pair!r} in {clause!r}")
        coerce = schema.get(key)
        if coerce is None:
            raise ValueError(f"unknown fault key {key!r}")
        try:
            kwargs[key] = coerce(value.strip() if coerce is str else value)
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"bad value for fault key {key!r} in {clause!r}: {exc}"
            ) from None
    return kwargs


def parse_plan(spec: str | None, fault_cls, schema: dict,
               required: tuple[str, ...] = ()) -> tuple:
    """Parse ``action:key=value,...[;action:...]`` into ``fault_cls`` clauses.

    ``schema`` is the dialect's qualifier vocabulary, ``required`` the
    qualifiers every clause must carry; ``fault_cls`` validates the
    action and the qualifier combination.  Every error names the
    offending clause: an unknown action or a bad qualifier must be
    findable in a multi-clause spec.
    """
    if not spec or not spec.strip():
        return ()
    faults = []
    for action, argstr in split_clauses(spec):
        clause = f"{action}:{argstr}" if argstr else action
        kwargs = parse_clause_args(argstr, schema, clause)
        for key in required:
            if key not in kwargs:
                raise ValueError(f"fault {clause!r} needs {key}=<k>")
        try:
            faults.append(fault_cls(action=action, **kwargs))
        except ValueError as exc:
            raise ValueError(f"bad fault clause {clause!r}: {exc}") from None
    return tuple(faults)


def require_nonneg(f, *names: str) -> None:
    """Shared validation for a clause's counting/timing qualifiers."""
    for name in names:
        if getattr(f, name) < 0:
            raise ValueError(f"fault {name} must be >= 0")


@dataclass(frozen=True)
class Plan:
    """A parsed set of faults for one run (empty = normal operation).

    Dialects subclass this and declare ``fault_cls`` (the clause
    dataclass), ``schema``, ``identity_keys`` (the qualifiers that
    address one PE / worker / node) and, optionally, ``required``.
    """

    faults: tuple = ()

    fault_cls: ClassVar[type]
    schema: ClassVar[dict]
    identity_keys: ClassVar[tuple[str, ...]]
    required: ClassVar[tuple[str, ...]] = ()

    def __bool__(self) -> bool:
        return bool(self.faults)

    def with_action(self, actions: tuple[str, ...]) -> tuple:
        return tuple(f for f in self.faults if f.action in actions)

    def check_width(self, width: int) -> None:
        """Reject a clause addressed to an identity a run of ``width``
        does not have — it could never fire, and a plan that silently
        does nothing reads as a run that survived it.  Wildcards and the
        coordinator address are negative and pass."""
        for f in self.faults:
            for key in self.identity_keys:
                if getattr(f, key) >= width:
                    raise ValueError(
                        f"fault clause '{f.action}:{key}={getattr(f, key)}' "
                        f"addresses an identity outside 0..{width - 1}")

    @classmethod
    def parse(cls, spec: str | None):
        return cls(parse_plan(spec, cls.fault_cls, cls.schema, cls.required))


def resolve(faults, plan_cls):
    """Coerce a spec string or a plan into a ``plan_cls``."""
    if isinstance(faults, plan_cls):
        return faults
    if isinstance(faults, str):
        return plan_cls.parse(faults)
    raise ValueError(
        f"cannot build a {plan_cls.__name__} from {type(faults).__name__}")


def selects(f, src: int, dst: int, kind: str, any_: int) -> bool:
    """Whether clause ``f``'s ``src``/``dst``/``kind`` selector admits
    one message (``any_`` is the dialect's wildcard address)."""
    return ((f.src == any_ or f.src == src)
            and (f.dst == any_ or f.dst == dst)
            and (not f.kind or f.kind == kind))


class ArmingWindow:
    """Selector + ``after``/``count`` window over message-level clauses.

    Deterministic and replayable: per-clause match counters drive the
    windows — ``after=N`` skips the first N matching messages,
    ``count=K`` arms the clause for K firings (0 = unlimited) — and a
    clause carrying ``prob`` < 1 fires each armed match on a draw from
    one ``random.Random`` seeded by the clause's ``seed`` and position,
    so identical plans fire identically on identical traffic.
    """

    def __init__(self, clauses, any_: int) -> None:
        self._clauses = list(clauses)
        self._any = any_
        self._matched = [0] * len(self._clauses)
        self._fired = [0] * len(self._clauses)
        self._rngs = [random.Random((f.seed << 16) ^ i)
                      if getattr(f, "prob", 1.0) < 1.0 else None
                      for i, f in enumerate(self._clauses)]

    def __bool__(self) -> bool:
        return bool(self._clauses)

    def firing(self, src: int, dst: int, kind: str) -> list:
        """The clauses that fire on this message, in plan order."""
        hits = []
        for i, f in enumerate(self._clauses):
            if not selects(f, src, dst, kind, self._any):
                continue
            seq = self._matched[i]
            self._matched[i] = seq + 1
            if seq < f.after:
                continue
            if f.count and self._fired[i] >= f.count:
                continue
            rng = self._rngs[i]
            if rng is not None and rng.random() >= f.prob:
                continue
            self._fired[i] += 1
            hits.append(f)
        return hits


class EventTrigger:
    """Per-event trigger counters over process-level clauses.

    ``faults`` are the clauses addressed to this process (each with an
    ``on`` event, an ``after`` count and a ``gen`` qualifier); ``arm``
    keeps those whose ``gen`` is 0 (every generation) or the given
    execution generation and restarts the event counts from zero — a
    replay re-executes its subrange from the top.  ``fire`` is called
    from interpreter hot hooks, so the no-fault path is a single
    truthiness check on an empty list (and the SPMD core compiles the
    per-iteration call in only under a :attr:`planned` trigger).
    Subclasses supply :meth:`act`: what a clause does at the
    ``count``-th occurrence of its event.
    """

    def __init__(self, faults, events: tuple[str, ...],
                 generation: int = 1) -> None:
        self._all = list(faults)
        self._events = events
        self.arm(generation)

    @property
    def planned(self) -> bool:
        """Whether any generation of this process holds a clause."""
        return bool(self._all)

    def arm(self, generation: int) -> None:
        self._armed = [f for f in self._all if f.gen in (0, generation)]
        self._counts = {event: 0 for event in self._events}

    def fire(self, event: str) -> None:
        if not self._armed:
            return
        count = self._counts[event]
        self._counts[event] = count + 1
        for f in self._armed:
            if f.on == event:
                self.act(f, count)

    def act(self, f, count: int) -> None:
        raise NotImplementedError
