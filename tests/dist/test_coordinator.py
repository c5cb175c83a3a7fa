"""The coordinator's core as a unit: registration, the standby's vote,
report routing and the rounds, driven by hand with ``now`` passed in
(whole clusters of it run in ``tests/dist/test_cluster.py``)."""

from __future__ import annotations

import threading

from repro.common.config import DistConfig
from repro.common.retry import RetryPolicy
from repro.dist.protocol import (REPORT, SEND, SNAPSHOT, CoordinatorProtocol,
                                 NodeProtocol)
from repro.runtime.arrays import ArrayHeader
from repro.runtime.supervise import Abort, Finish

CFG = DistConfig(nodes=2, heartbeat_timeout_s=1.0,
                 retry=RetryPolicy(max_retries_total=1, backoff_base_s=0.01,
                                   backoff_max_s=0.01))


def _report(node, t, slot=None, gen=1, **fields):
    slot = node if slot is None else slot
    return {"t": t, "node": node, "slot": slot, "gen": gen, **fields}


def _frames(actions, t):
    return sorted(act[1] for act in actions
                  if act[0] == SEND and act[2]["t"] == t)


def _finished(result=("array", [1, [4]]), checkpoints=False):
    """A primary whose two nodes ran and finished: its final rounds open."""
    core = CoordinatorProtocol(CFG, 0.0, checkpoints=checkpoints)
    core.hello(0.0, 0, 5000)
    assert _frames(core.hello(0.0, 1, 5001), "start") == [0, 1]
    core.frame(0.1, 0, _report(0, "result", v=list(result)))
    core.frame(0.1, 1, _report(1, "done", telemetry={}))
    actions = core.frame(0.2, 0, _report(0, "done", telemetry={}))
    assert isinstance(core.outcome, Finish)
    return core, actions


def _segment(node, vals):
    return {"t": "segment", "node": node, "a": 1, "vals": vals}


def test_a_run_collects_checkpoints_and_shuts_down():
    core, actions = _finished(checkpoints=True)
    assert _frames(actions, "collect") == [0, 1] and core.phase == "collect"
    core.frame(0.3, 0, _segment(0, {"0": 1.0, "2": 3.0}))
    assert core.phase == "collect"
    actions = core.frame(0.3, 1, _segment(1, {"1": 2.0, "2": 3.0}))
    assert core.value.flat == [1.0, 2.0, 3.0, None]
    assert _frames(actions, "ckpt") == [0, 1]
    core.frame(0.4, 0, {"t": "ckpt-state", "node": 0, "arrays": {
        "1": {"dims": [4], "vals": {"0": 1.0}}}})
    actions = core.frame(0.4, 1, {"t": "ckpt-state", "node": 1,
                                  "arrays": {}})
    assert actions[0] == (SNAPSHOT, [(1, (4,), {0: 1.0})])
    assert _frames(actions, "shutdown") == [0, 1]
    core.frame(0.5, 0, {"t": "bye", "node": 0, "netstats": {"sent": 3}})
    core.frame(0.5, 1, {"t": "bye", "node": 1, "netstats": {"sent": 4}})
    assert core.phase == "end" and core.netstats.sent == 7


def test_a_write_in_flight_at_the_finish_is_in_the_final_checkpoint():
    # Array 1 of (8,) at two nodes: node 1 owns offsets 4..7.  Node 0
    # writes offset 5, and the run finishes before the frame arrives.
    nodes = [NodeProtocol(n, 2, 4, threading.Lock()) for n in (0, 1)]
    for proto in nodes:
        proto.array(ArrayHeader(1, (8,), 4, 2))
    assert [act[:2] for act in nodes[0].write(1, 5, 2.5, False)] == [
        (SEND, 1)]
    core, actions = _finished(result=("value", 2.5), checkpoints=True)
    assert _frames(actions, "ckpt") == [0, 1]
    for node, proto in enumerate(nodes):
        [(kind, answer)] = proto.control({"t": "ckpt"})
        assert kind == REPORT
        actions = core.frame(0.3, node, answer)
    assert actions[0] == (SNAPSHOT, [(1, (8,), {5: 2.5})])


def test_a_node_lost_in_the_collect_ends_the_run_at_once():
    # Its process exit names the loss: a crash by its exit code.
    core, _ = _finished()
    core.frame(0.3, 0, _segment(0, {"0": 1.0}))
    assert core.exited(0.4, 1, 9) == []
    assert core.phase == "end" and isinstance(core.outcome, Abort)
    [failure] = core.outcome.failures
    assert (failure.worker, failure.kind, failure.exitcode) == (1, "crash", 9)
    assert failure.detail == "process-exit: exitcode 9"
    assert core.outcome.member_lost and "collect" in core.outcome.message


def test_a_node_silent_in_the_collect_is_lost_not_hung():
    core, _ = _finished()
    core.tick(0.9)
    assert core.phase == "collect"  # both heard at 0.0, within 1 s
    core.frame(1.0, 0, {"t": "hb"})
    core.tick(1.1)
    [failure] = core.outcome.failures
    assert (failure.worker, failure.kind) == (1, "lost")
    assert failure.detail.startswith("heartbeat-silence")


def test_a_peer_report_after_the_finish_does_not_end_the_collect():
    core, _ = _finished()
    core.frame(0.3, 0, {"t": "peer-lost", "node": 0, "peer": 1,
                        "reason": "retransmit-exhausted", "detail": "seq 4"})
    assert core.phase == "collect"
    core.frame(0.3, 0, _segment(0, {}))
    core.frame(0.3, 1, _segment(1, {"3": 4.0}))
    assert core.phase == "shutdown" and core.value.flat[3] == 4.0


def test_a_node_lost_in_the_final_checkpoint_writes_what_it_has():
    core, _ = _finished(result=("ok", 7.0), checkpoints=True)
    assert core.value == 7.0 and core.phase == "ckpt"
    core.frame(0.3, 0, {"t": "ckpt-state", "node": 0, "arrays": {
        "1": {"dims": [4], "vals": {"1": 2.0}}}})
    actions = core.exited(0.4, 1, None)
    assert actions[0] == (SNAPSHOT, [(1, (4,), {1: 2.0})])
    assert _frames(actions, "shutdown") == [0] and core.phase == "shutdown"


def test_the_shutdown_stops_waiting_for_a_lost_node():
    core, _ = _finished(result=("ok", 7.0))
    core.frame(0.3, 1, {"t": "bye", "node": 1, "netstats": {"sent": 2}})
    assert core.phase == "shutdown"
    assert core.exited(0.4, 0, 0) == []
    assert core.phase == "end" and core.netstats.sent == 2
    assert isinstance(core.outcome, Finish)


def test_a_round_ends_at_its_deadline_with_what_it_has():
    core, _ = _finished(result=("ok", 7.0), checkpoints=True)
    [(_, arrays)] = [act for act in core.close("ckpt")
                     if act[0] == SNAPSHOT]
    assert arrays == [] and core.phase == "shutdown"
    assert core.close("shutdown") == [] and core.phase == "end"


def test_a_fenced_node_answers_nothing():
    core = CoordinatorProtocol(CFG, 0.0, checkpoints=True)
    core.hello(0.0, 0, 5000)
    core.hello(0.0, 1, 5001)
    assert _frames(core.checkpoint(), "ckpt") == [0, 1]
    actions = core.exited(0.1, 1, 9)  # fenced: it leaves the round
    assert _frames(actions, "fence") == [1]
    assert core.checkpoint() == []  # one round at a time
    actions = core.frame(0.2, 1, {"t": "ckpt-state", "node": 1, "arrays": {
        "1": {"dims": [4], "vals": {"3": 4.0}}}})
    assert actions == [] and core.ckpt_arrays == {}
    actions = core.frame(0.2, 0, {"t": "ckpt-state", "node": 0,
                                  "arrays": {}})
    assert actions == [(SNAPSHOT, [])] and core.phase == "run"


def _standby(expect=(0, 1)):
    return CoordinatorProtocol(CFG, 10.0, expect=set(expect))


def _resync(node, gen, owners, live, reports):
    return {"gen": gen, "owners": owners, "live": live, "reports": reports}


def test_the_standby_votes_and_replays_reports_before_deaths():
    # Node 0 adopted identity 1 (generation 2) after node 1 was lost,
    # and rejoins; node 1's death reaches the standby before the vote.
    core = _standby(expect=(0,))
    assert core.exited(10.0, 1, 0) == []  # held
    started = [_report(0, "started", identities=[0]),
               _report(0, "started", slot=1, gen=2, identities=[1])]
    actions = core.hello(10.0, 0, 5000,
                         _resync(0, 2, [0, 0], [0], started))
    assert core.registered and [frame for _, _, frame in actions] == [
        {"t": "ownermap", "owners": [0, 0], "live": [0], "gen": 3}]
    assert core.sup.log.failovers == 1 and core.sup.retries == 0
    core.frame(10.1, 0, _report(0, "result", v=["ok", 1.0]))
    core.frame(10.1, 0, _report(0, "done", telemetry={}))
    core.frame(10.1, 0, _report(0, "done", slot=1, gen=2, telemetry={}))
    assert isinstance(core.outcome, Finish) and core.phase == "shutdown"


def test_a_loss_the_replayed_reports_healed_is_not_healed_again():
    # The vote is older than node 0's adoption of identity 1: replayed
    # first, the adoption owns identity 1, so node 1's death heals
    # nothing; replayed after the death, it would take over again.
    core = _standby(expect=(0,))
    core.exited(10.0, 1, 0)
    core.hello(10.0, 0, 5000, _resync(0, 1, [0, 1], [0, 1], [
        _report(0, "started", identities=[0]),
        _report(0, "started", slot=1, gen=2, identities=[1])]))
    assert core.registered and core.sup.live == {0}
    assert core.sup.retries == 0 and not core.sup.pending
    assert sorted(core.sup.running) == [0, 1]


def test_the_standby_holds_reports_until_the_vote():
    core = _standby()
    core.hello(10.0, 0, 5000, _resync(0, 1, [0, 1], [0, 1], [
        _report(0, "started", identities=[0])]))
    assert core.frame(10.1, 0, _report(0, "done", telemetry={})) == []
    assert core.missing() == [1] and not core.sup.completed
    core.hello(10.2, 1, 5001, _resync(1, 1, [0, 1], [0, 1], [
        _report(1, "started", identities=[1])]))
    assert core.phase == "run" and 0 in core.sup.completed


def test_the_standby_starts_a_node_that_never_took_its_start():
    # The primary died with node 1's start frame unsent.
    core = _standby()
    core.hello(10.0, 0, 5000, _resync(0, 1, [0, 1], [0, 1], [
        _report(0, "started", identities=[0])]))
    actions = core.hello(10.0, 1, 5001, _resync(1, 1, [0, 1], [0, 1], []))
    assert _frames(actions, "start") == [1]
    [start] = [f for _, _, f in actions if f["t"] == "start"]
    assert start["peers"] == {"0": ["127.0.0.1", 5000],
                              "1": ["127.0.0.1", 5001]}
    assert sorted(core.sup.running) == [0, 1]


def test_the_standby_starts_again_a_takeover_no_node_began():
    # Node 1 saw the owner map that gives identity 2 to it; the adopt
    # after it died with the primary.
    cfg = DistConfig(nodes=3)
    core = CoordinatorProtocol(cfg, 10.0, expect={0, 1})
    core.hello(10.0, 0, 5000, _resync(0, 1, [0, 1, 2], [0, 1, 2], [
        _report(0, "started", identities=[0])]))
    actions = core.hello(10.0, 1, 5001, _resync(1, 2, [0, 1, 1], [0, 1], [
        _report(1, "started", identities=[1])]))
    [adopt] = [(node, f) for _, node, f in actions if f["t"] == "adopt"]
    assert adopt == (1, {"t": "adopt", "identities": [2], "generation": 4,
                         "slot": 2})
    assert [e.kind for e in core.sup.log.events] == ["failover", "reissue"]
    assert core.sup.log.takeovers == 0
