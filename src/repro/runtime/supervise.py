"""The supervision core: every recovery decision of both SPMD substrates,
with no I/O and no clock.  Their supervisors are shells that turn what
they observe into events carrying ``now`` and carry out the actions
returned (policy: "The supervision core" in ``docs/architecture.md``).

An *identity* owns one Range-Filter subrange; an *execution* runs some
identities under one ``slot`` (the smallest) and one generation; a
*member* runs executions: a worker process (``parallel``, member = slot)
or a node that *hosts* them (``dist``) and keeps the elements they
stored, so a finished node still owns them where a finished worker,
whose elements are in shared memory, owns nothing.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

from repro.common.errors import WorkerFailure
from repro.common.retry import RecoveryEvent, RecoveryLog

log = logging.getLogger("repro.supervise")


@dataclass(frozen=True)
class Start:
    """Run ``identities`` as execution ``slot`` of ``generation`` on
    ``member`` (``None`` while a takeover waits to pick its host)."""

    member: int | None
    slot: int
    identities: tuple[int, ...]
    generation: int
    kind: str  # worker | respawn | takeover


@dataclass(frozen=True)
class Fence:
    """Nothing ``member`` sends counts any more."""

    member: int


@dataclass(frozen=True)
class Abort:
    """The run cannot finish.  ``member_lost``: a loss went unhealed."""

    failures: tuple[WorkerFailure, ...]
    message: str | None
    member_lost: bool = False


@dataclass(frozen=True)
class Finish:
    """Every identity is done; ``result`` is what identity 0 reported."""

    result: tuple


class Supervision:
    """One run's supervision state, advanced only by events: ``respawns``
    is the per-member respawn allowance (``dist``: 0, a node is never
    restarted), ``unit`` what a member is called in messages."""

    def __init__(self, width: int, policy, *, respawns: int, hosted: bool,
                 timeout_s: float, unit: str, now: float) -> None:
        self.policy, self.respawns, self.hosted = policy, respawns, hosted
        self.timeout_s, self.unit, self.t0 = timeout_s, unit, now
        self.deadline = now + timeout_s
        self.log = RecoveryLog()
        self.generation = 1  # the run's; every healing start takes the next
        self.owners: list = list(range(width))  # identity -> member
        self.live: set[int] = set(range(width))  # members not lost
        self.running: dict[int, Start] = {}  # slot -> its execution
        self.pending: list[tuple[float, Start]] = []  # (due, start)
        self.latest: dict[int, int] = {}  # slot -> newest generation run
        self.remaining: set[int] = set(range(width))
        self.completed: dict[int, dict] = {}
        self.result: tuple | None = None
        self.retries = 0
        self.attempts: dict[int, int] = {}  # member -> respawns asked
        # slot -> (spin start, report time, generation, info)
        self.stalls: dict[int, tuple] = {}
        self.outcome: Abort | Finish | None = None

    # -- events ------------------------------------------------------------

    def started(self, now: float, member: int, slot: int, identities,
                generation: int) -> list:
        """An execution the core did not order runs: the initial launch,
        or one a promoted standby learns of from a node's resync."""
        if self.outcome is None and member in self.live:
            self._run(Start(member, slot, tuple(identities), generation,
                            "worker"))
        return self._settle()

    def resume(self, now: float, owners, live, generation: int,
               rejoined) -> None:
        """A promoted standby takes command: the survivors' newest owner
        map and live set, one generation past any the nodes saw."""
        if owners is not None:
            self.owners = [int(m) for m in owners]
        if live is not None:
            self.live = {int(m) for m in live}
        self.generation = max(self.generation, generation) + 1
        self._record(now, "failover", -1, self.generation,
                     f"standby coordinator took over; nodes "
                     f"{sorted(rejoined)} rejoined, owner map {self.owners}")

    def report(self, now: float, member: int, slot: int, generation: int,
               tag: str, payload=None) -> list:
        """What an execution said.  A fenced member's report, or one from
        a generation older than its slot's newest, changes nothing."""
        if self.outcome is not None:
            return []
        if tag == "superseded":
            self._record(now, "superseded", slot, generation, str(payload))
            return []
        if member not in self.live or generation < self.latest.get(slot, 0):
            return []
        ex = self.running.get(slot)
        current = ex is not None and ex.generation == generation
        if tag == "result":
            self.result = tuple(payload)
        elif tag == "done" and current:
            del self.running[slot]
            self.completed[slot] = payload
            self.remaining.difference_update(ex.identities)
            if not self.hosted:  # its elements are in shared memory
                for ident in ex.identities:
                    self.owners[ident] = None
            # What a recorded stall waited for may be written now; a
            # truly blocked execution re-reports one ceiling later.
            self.stalls.clear()
        elif tag == "err":
            code, detail = payload
            failure = WorkerFailure(slot, None, "error", detail, generation,
                                    code)
            self._record_failure(now, failure)
            return self._abort([failure], f"{self.unit} {member} reported "
                                          "a program error")
        elif tag == "stall" and current:
            self.stalls[slot] = (payload["t_spin_start"], payload["t_report"],
                                 generation, payload)
            self._record(now, "stall", slot, generation,
                         f"{_blocked_on(payload)} waited "
                         f"{payload['waited_s']:.3f}s")
        return self._settle()

    def lost(self, now: float, member: int, kind: str,
             exitcode: int | None = None, detail: str = "",
             reporter: int | None = None) -> list:
        """``member`` is gone (``crash`` or ``lost``), as the shell saw
        it or as the live member ``reporter`` reported it."""
        if self.outcome is not None or member not in self.live or (
                reporter is not None and reporter not in self.live):
            return []
        self.live.discard(member)
        gone = [ex for ex in self.running.values() if ex.member == member]
        for ex in gone:
            del self.running[ex.slot]
            self.stalls.pop(ex.slot, None)
        failure = WorkerFailure(
            member, exitcode, kind, detail,
            max((ex.generation for ex in gone), default=self.generation))
        self._record_failure(now, failure, detail)
        orphans = tuple(i for i, m in enumerate(self.owners) if m == member)
        if not orphans:  # a finished worker: nothing to do again
            return [Fence(member)] + self._settle()
        self.remaining.update(orphans)
        return [Fence(member)] + self._heal(now, member, failure, orphans)

    def tick(self, now: float) -> list:
        """Time passed: start what is due, then hold the deadline."""
        if self.outcome is not None:
            return []
        actions = []
        due = [ex for at, ex in self.pending if at <= now]
        self.pending = [(at, ex) for at, ex in self.pending if at > now]
        for ex in due:
            if ex.member is None:  # the lowest-numbered survivor adopts
                if not self.live:
                    continue  # nobody to host it: caught as uncovered
                ex = replace(ex, member=min(self.live))
            self._run(ex)
            actions.append(ex)
        if now >= self.deadline:
            return actions + self._expire()
        uncovered = self._uncovered()
        if uncovered:  # a safety net no event sequence reaches
            return actions + self._abort(
                [WorkerFailure(uncovered[0], None, "lost", "identity left "
                               "uncovered (supervisor invariant violation)")],
                f"no live {self.unit} or pending start covers identities "
                f"{uncovered}")
        return actions + self._settle()

    def reissue(self, now: float) -> list:
        """A promoted standby, after its replay: each identity no
        execution runs or waits to start whose owner is live — a
        takeover the dead coordinator ordered that no node began —
        starts again there.  Its loss was counted once already."""
        starts = []
        for ident in self._uncovered() if self.outcome is None else ():
            if self.owners[ident] in self.live:
                self.generation += 1
                starts.append(Start(self.owners[ident], ident, (ident,),
                                    self.generation, "takeover"))
                self._run(starts[-1])
                self._record(now, "reissue", ident, self.generation,
                             f"started again on {self.unit} "
                             f"{self.owners[ident]}")
        return starts

    def due(self) -> float:
        """The latest instant the next :meth:`tick` is wanted."""
        return min([self.deadline] + [at for at, _ in self.pending])

    # -- the decisions -----------------------------------------------------

    def _heal(self, now: float, member: int, failure: WorkerFailure,
              orphans: tuple[int, ...]) -> list:
        """Recovery on?  Total budget (checked first)?  Respawn allowance?
        Else reassign, with every unstarted takeover, to a survivor."""
        policy = self.policy
        if not policy.enabled:
            return self._abort([failure], f"{self.unit} {member} lost and "
                                          "recovery is disabled", True)
        self.retries += 1
        if self.retries > policy.max_retries_total:
            return self._abort([failure], "recovery budget exhausted "
                               f"({policy.max_retries_total} retries)", True)
        attempt = self.attempts[member] = self.attempts.get(member, 0) + 1
        delay = policy.backoff_s(member, attempt)
        if attempt <= self.respawns:
            self.generation += 1
            self.pending.append((now + delay, Start(
                member, member, orphans, self.generation, "respawn")))
            self._record(now, "respawn", member, self.generation,
                         f"attempt {attempt}/{self.respawns} after "
                         f"{failure.kind}; backoff {delay * 1e3:.0f} ms",
                         delay)
            log.info("pods: respawning %s %d (generation %d) after %s",
                     self.unit, member, self.generation, failure.kind)
            return []
        self._record(now, "exhausted", member, failure.generation,
                     f"{self.respawns} retries used")
        ids, keep = set(orphans), []
        for at, ex in self.pending:
            if ex.kind == "takeover":
                ids.update(ex.identities)
            else:
                keep.append((at, ex))
        survivors = sorted(self.live | {ex.member for _, ex in keep})
        if not survivors:
            return self._abort([failure], f"{self.unit} {member} lost; no "
                                          "survivor to take over", True)
        self.generation += 1
        start = Start(None if self.hosted else min(ids), min(ids),
                      tuple(sorted(ids)), self.generation, "takeover")
        self.pending = keep + [(now + delay, start)]
        self._record(now, "takeover", start.slot, self.generation,
                     f"identities {start.identities} reassigned after "
                     f"{self.unit} {member} exhausted retries; survivors "
                     f"{survivors}", delay)
        log.warning("pods: DEGRADED MODE — %s %d exhausted its retry "
                    "budget; subrange identities %s reassigned "
                    "(generation %d)", self.unit, member, start.identities,
                    self.generation)
        return []

    def _expire(self) -> list:
        """The deadline: whoever still owns unfinished work hangs."""
        failures = []
        for member in sorted(self.live):
            if any(self.owners[i] == member for i in self.remaining):
                gens = [ex.generation for ex in self.running.values()
                        if ex.member == member]
                failures.append(WorkerFailure(
                    member, None, "hang", f"still running at the "
                    f"{self.timeout_s:g}s deadline; terminated",
                    max(gens, default=self.generation)))
        failures += [WorkerFailure(ex.slot, None, "hang", f"{ex.kind} still "
                                   "pending at the run deadline",
                                   ex.generation) for _, ex in self.pending]
        return self._abort(failures, None)

    def _settle(self) -> list:
        """Finished?  Else: does every running execution's latest stall
        interval share an instant?  Then nothing that could write was
        running (older intervals are void), so no blocked read can ever
        be satisfied: a deadlock, found causally."""
        if self.outcome is not None:
            return []
        if not self.remaining:
            if self.result is None:
                return self._abort(
                    [WorkerFailure(0, None, "lost",
                                   "no result message received")],
                    f"{self.unit} 0 completed without producing a result")
            self.outcome = Finish(self.result)
            return [self.outcome]
        if self.pending or not self.running:
            return []
        spans = []
        for slot, ex in sorted(self.running.items()):
            iv = self.stalls.get(slot)
            if iv is None or iv[2] != ex.generation:
                return []
            spans.append((slot, iv))
        if max(iv[0] for _, iv in spans) > min(iv[1] for _, iv in spans):
            return []
        return self._abort(
            [WorkerFailure(slot, None, "stall", f"blocked on "
                           f"{_blocked_on(iv[3])} for "
                           f"{iv[3]['waited_s']:.3f}s", iv[2])
             for slot, iv in spans],
            f"every live {self.unit} blocked in a deferred-read spin "
            "(missing write -> deadlock)")

    # -- bookkeeping -------------------------------------------------------

    def _uncovered(self) -> list[int]:
        """Unfinished identities no execution runs or waits to start."""
        covered = {i for ex in self.running.values() for i in ex.identities}
        covered.update(i for _, ex in self.pending for i in ex.identities)
        return sorted(self.remaining - covered)

    def _run(self, ex: Start) -> None:
        self.running[ex.slot] = ex
        self.latest[ex.slot] = max(self.latest.get(ex.slot, 0),
                                   ex.generation)
        self.live.add(ex.member)
        for ident in ex.identities:
            self.owners[ident] = ex.member
        self.stalls.pop(ex.slot, None)

    def _abort(self, failures, message: str | None,
               member_lost: bool = False) -> list:
        self.outcome = Abort(tuple(failures), message, member_lost)
        self.pending = []
        return [self.outcome]

    def _record(self, now: float, kind: str, who: int, generation: int,
                detail: str = "", dur_s: float = 0.0) -> None:
        self.log.record(RecoveryEvent(now - self.t0, kind, who, generation,
                                      detail, dur_s))

    def _record_failure(self, now: float, failure: WorkerFailure,
                        note: str = "") -> None:
        code = "?" if failure.exitcode is None else failure.exitcode
        note = f": {note}" if note else ""
        self._record(now, "failure", failure.worker, failure.generation,
                     f"{failure.kind} (exitcode {code}){note}")


def _blocked_on(info: dict) -> str:
    return (f"{info['array']}{info['indices']} (segment owner: worker "
            f"{info['owner']})")
