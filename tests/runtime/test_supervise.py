"""The supervision core, driven in process with no process behind it.

``runtime/supervise.py`` makes every recovery decision ``parallel`` and
``dist`` take.  Here Hypothesis plays the shell: it draws a width (1-6),
a policy and a sequence of reports, losses (of running and of finished
members), stalls, ticks and stale or fenced reports, feeds them to the
core, and holds every state and every action to the invariants the
chaos tables can only sample.
"""

import copy
from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.retry import RetryPolicy
from repro.runtime.supervise import Abort, Fence, Finish, Start, Supervision

TIMEOUT_S = 100.0
DRAWN = settings(derandomize=True, max_examples=150, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


def make(width, hosted=False, respawns=2, total=8, enabled=True):
    """A core as a shell builds one, its initial executions started."""
    policy = RetryPolicy(max_retries_per_worker=respawns,
                         max_retries_total=total, enabled=enabled,
                         backoff_base_s=0.01, backoff_max_s=0.05)
    core = Supervision(width, policy, respawns=0 if hosted else respawns,
                       hosted=hosted, timeout_s=TIMEOUT_S,
                       unit="node" if hosted else "worker", now=0.0)
    for member in range(width):
        core.started(0.0, member, member, (member,), 1)
    return core


def stall(lo, hi):
    return {"array": "A", "indices": (3,), "owner": 0, "waited_s": hi - lo,
            "t_spin_start": lo, "t_report": hi}


PAYLOAD = {"done": {}, "result": ("ok", 1.0), "err": ("execution", "boom"),
           "stall": stall(0.0, 1.0)}


def state(core):
    """Everything a report could change but the outcome."""
    return copy.deepcopy((
        core.owners, core.live, core.running, core.pending, core.latest,
        core.remaining, core.completed, core.result, core.retries,
        core.attempts, core.stalls, core.generation, len(core.log.events)))


class Shell:
    """Feeds the core the way a shell does; checks it after every event."""

    def __init__(self, core):
        self.core = core
        self.now = 0.0
        self.generation = core.generation
        self.slot_gens: dict[int, int] = {}
        self.last_start = 1

    def feed(self, actions):
        core = self.core
        for act in actions:
            if isinstance(act, Start):
                # Generations only rise: per slot (the shm epochs) and,
                # on hosted members, per run (owner-map versions).
                assert act.generation > self.slot_gens.get(act.slot, 1)
                self.slot_gens[act.slot] = act.generation
                assert not core.hosted or act.generation > self.last_start
                self.last_start = act.generation
                assert act.member in core.live
            elif isinstance(act, Abort):
                assert act.failures
                assert "uncovered" not in (act.message or "")
        assert core.generation >= self.generation
        self.generation = core.generation
        log = core.log
        assert log.respawns + log.takeovers <= core.policy.max_retries_total
        per_member = Counter(e.worker for e in log.events
                             if e.kind == "respawn")
        assert all(n <= core.respawns for n in per_member.values())
        if core.outcome is None:
            # Every unfinished identity has exactly one running
            # execution or one pending start, never zero, never two.
            for ident in core.remaining:
                holders = [ex for ex in core.running.values()
                           if ident in ex.identities]
                holders += [ex for _, ex in core.pending
                            if ident in ex.identities]
                assert len(holders) == 1, (ident, holders)
            assert all(ex.member in core.live
                       for ex in core.running.values())
        return actions

    def say(self, ex, tag, payload):
        return self.feed(self.core.report(self.now, ex.member, ex.slot,
                                          ex.generation, tag, payload))

    def finish(self, ex):
        if 0 in ex.identities:
            self.say(ex, "result", PAYLOAD["result"])
        self.say(ex, "done", {})

    def step(self, s):
        core, kind = self.core, s[0]
        running = [core.running[slot] for slot in sorted(core.running)]
        live = sorted(core.live)
        if kind == "tick":
            self.now += s[1]
            self.feed(core.tick(self.now))
        elif kind in ("done", "err", "stall") and running:
            ex = running[s[1] % len(running)]
            if kind == "done":
                self.finish(ex)
            elif kind == "err":
                self.say(ex, "err", PAYLOAD["err"])
            else:
                lo, hi = sorted(s[2:])
                self.say(ex, "stall", stall(self.now + lo, self.now + hi))
        elif kind == "lost" and live:
            self.feed(core.lost(self.now, live[s[1] % len(live)], "crash",
                                1, "killed"))
        elif kind == "peer" and len(live) > 1:
            peer, reporter = live[s[1] % len(live)], live[s[2] % len(live)]
            if peer != reporter:
                self.feed(core.lost(self.now, peer, "lost", None, "silent",
                                    reporter=reporter))
        elif kind == "stale":
            # From a fenced member, or from a slot's superseded generation.
            sources = [(m, m, 1) for m in range(len(core.owners))
                       if m not in core.live]
            sources += [(ex.member, ex.slot, ex.generation - 1)
                        for ex in running if ex.generation > 1]
            if sources:
                member, slot, gen = sources[s[1] % len(sources)]
                before, outcome = state(core), core.outcome
                self.feed(core.report(self.now, member, slot, gen, s[2],
                                      PAYLOAD[s[2]]))
                assert state(core) == before and core.outcome is outcome

    def drain(self):
        """Let time pass and every execution finish: the run must end."""
        core = self.core
        for _ in range(100):
            if core.outcome is not None:
                return core.outcome
            self.now += 0.1
            self.feed(core.tick(self.now))
            for slot in sorted(core.running):
                if slot in core.running:
                    self.finish(core.running[slot])
        pytest.fail("neither finished nor aborted: identities left waiting")


POLICIES = st.tuples(st.integers(1, 6), st.booleans(), st.integers(0, 3),
                     st.integers(0, 8), st.sampled_from([True] * 3 + [False]))
STEPS = st.lists(st.one_of(
    st.tuples(st.just("tick"), st.sampled_from([0.0, 0.01, 0.03, 0.1])),
    st.tuples(st.just("done"), st.integers(0, 5)),
    st.tuples(st.just("lost"), st.integers(0, 5)),
    st.tuples(st.just("peer"), st.integers(0, 5), st.integers(0, 5)),
    st.tuples(st.just("stall"), st.integers(0, 5), st.floats(0, 1),
              st.floats(0, 1)),
    st.tuples(st.just("stale"), st.integers(0, 11),
              st.sampled_from(sorted(PAYLOAD))),
), max_size=30)


def shell_for(policy):
    width, hosted, respawns, total, enabled = policy
    return Shell(make(width, hosted, respawns, total, enabled))


@DRAWN
@given(POLICIES, STEPS, st.none() | st.integers(0, 30))
def test_every_drawn_run_ends_finished_or_classified(policy, steps, err_at):
    shell = shell_for(policy)
    for i, s in enumerate(steps):
        shell.step(("err", 0) if i == err_at else s)
    outcome = shell.drain()
    if isinstance(outcome, Finish):
        assert not shell.core.remaining
        assert outcome.result == PAYLOAD["result"]
    else:
        assert {f.kind for f in outcome.failures} <= {
            "crash", "lost", "error", "stall"}


@DRAWN
@given(POLICIES, STEPS)
def test_the_deadline_hangs_every_member_owning_unfinished_work(policy,
                                                               steps):
    shell = shell_for(policy)
    for s in steps:
        shell.step(s)
    core = shell.core
    if core.outcome is not None:
        return
    abort = core.tick(TIMEOUT_S)[-1]
    assert isinstance(abort, Abort) and abort.message is None
    assert {f.kind for f in abort.failures} == {"hang"}
    owning = {m for m in core.live
              if any(core.owners[i] == m for i in core.remaining)}
    assert {f.worker for f in abort.failures} == owning
    assert owning >= {ex.member for ex in core.running.values()}


@DRAWN
@given(st.integers(1, 6), st.booleans(),
       st.lists(st.tuples(st.integers(0, 5), st.floats(0, 10),
                          st.floats(0, 10)), max_size=12))
def test_the_stall_quorum_aborts_exactly_on_a_common_instant(width, hosted,
                                                             reports):
    core = make(width, hosted)
    latest, quorum = {}, False
    for member, a, b in reports:
        member %= width
        lo, hi = sorted((a, b))
        core.report(0.0, member, member, 1, "stall", stall(lo, hi))
        latest[member] = (lo, hi)
        quorum = len(latest) == width and \
            max(lo for lo, _ in latest.values()) <= \
            min(hi for _, hi in latest.values())
        if quorum:
            break
        assert core.outcome is None
    assert isinstance(core.outcome, Abort) == quorum
    if quorum:
        assert sorted(f.worker for f in core.outcome.failures) \
            == list(range(width))
        assert {f.kind for f in core.outcome.failures} == {"stall"}
        assert "deadlock" in core.outcome.message


class TestPolicy:
    """The policy's corners, one event at a time."""

    def test_the_total_budget_is_checked_before_the_respawn_allowance(self):
        core = make(2, respawns=1, total=1)
        core.lost(0.0, 1, "crash", 1)
        assert core.tick(1.0) == [Start(1, 1, (1,), 2, "respawn")]
        fence, abort = core.lost(1.0, 1, "crash", 1)
        assert fence == Fence(1) and abort.member_lost
        assert abort.message == "recovery budget exhausted (1 retries)"
        kinds = [e.kind for e in core.log.events]
        assert kinds.count("respawn") == 1 and "takeover" not in kinds

    def test_a_zero_budget_fails_on_the_first_loss(self):
        _, abort = make(2, total=0).lost(0.0, 1, "crash", 1)
        assert abort.message == "recovery budget exhausted (0 retries)"

    def test_a_node_loss_is_adopted_by_the_lowest_survivor(self):
        core = make(3, hosted=True)
        assert core.lost(0.0, 1, "lost", None, "silent") == [Fence(1)]
        assert core.tick(1.0) == [Start(0, 1, (1,), 2, "takeover")]
        assert [e.kind for e in core.log.events] == [
            "failure", "exhausted", "takeover"]

    def test_a_finished_node_still_owns_its_elements(self):
        core = make(2, hosted=True)
        core.report(0.0, 1, 1, 1, "done", {})
        assert core.remaining == {0}
        core.lost(0.1, 1, "crash", 1)
        assert core.remaining == {0, 1}
        assert core.tick(1.0) == [Start(0, 1, (1,), 2, "takeover")]

    def test_a_finished_worker_owns_nothing(self):
        core = make(2)
        core.report(0.0, 1, 1, 1, "done", {})
        assert core.lost(0.1, 1, "lost", 0) == [Fence(1)]
        assert core.remaining == {0} and not core.pending
        assert core.retries == 0

    def test_reassignments_not_yet_started_merge(self):
        core = make(3, respawns=0)
        core.lost(0.0, 1, "crash", 1)
        core.lost(0.0, 2, "crash", 1)
        ((_, start),) = core.pending
        assert start == Start(1, 1, (1, 2), 3, "takeover")

    def test_no_survivor_is_a_classified_abort(self):
        core = make(2, hosted=True)
        core.lost(0.0, 1, "crash", 1)
        _, abort = core.lost(0.0, 0, "crash", 1)
        assert abort.member_lost
        assert abort.message == "node 0 lost; no survivor to take over"

    def test_a_completion_voids_the_stall_evidence_before_it(self):
        core = make(2)
        core.report(0.0, 1, 1, 1, "stall", stall(0.0, 1.0))
        core.report(0.5, 0, 0, 1, "result", ("ok", 1.0))
        core.report(0.5, 0, 0, 1, "done", {})
        assert core.outcome is None
        core.report(2.0, 1, 1, 1, "stall", stall(0.0, 2.0))
        assert isinstance(core.outcome, Abort)

    def test_a_promoted_standby_rebuilds_from_replayed_reports(self):
        core = Supervision(2, RetryPolicy(), respawns=0, hosted=True,
                           timeout_s=TIMEOUT_S, unit="node", now=0.0)
        core.resume(0.0, [0, 0], [0], 2, [0])
        assert core.generation == 3
        core.started(0.0, 1, 1, (1,), 1)  # the fenced node's: void
        core.started(0.0, 0, 0, (0,), 1)
        core.started(0.0, 0, 1, (1,), 2)
        core.report(0.0, 0, 0, 1, "result", ("ok", 1.0))
        core.report(0.0, 0, 0, 1, "done", {})
        assert core.report(0.0, 0, 1, 2, "done", {}) == [Finish(("ok", 1.0))]
        assert [e.kind for e in core.log.events] == ["failover"]
