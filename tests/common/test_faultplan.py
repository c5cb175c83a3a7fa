"""The shared fault-plan grammar (clause syntax, no env handling).

One dialect-neutral spec syntax (``action:key=value,...;...``) is parsed
by :mod:`repro.common.faultplan` and consumed by *both* chaos backends —
the real-parallel process faults (:mod:`repro.parallel.faults`) and the
simulated network faults (:mod:`repro.sim.netfaults`).  These tests pin
the grammar itself plus the guarantee that the dialects stay
syntax-compatible and that none of them reads the environment.
"""

import pytest

from repro.backend import get_backend
from repro.common import faultplan
from repro.dist.faults import (CoordKillSwitch, DistFaultInjector,
                               DistFaultPlan)
from repro.parallel.faults import FaultInjector, FaultPlan
from repro.sim.netfaults import NetFaultInjector, SimFaultPlan


class TestSplitClauses:
    def test_single_clause(self):
        assert faultplan.split_clauses("kill:worker=1") == [
            ("kill", "worker=1")]

    def test_multiple_clauses(self):
        got = faultplan.split_clauses("drop:kind=page;dup:count=2")
        assert got == [("drop", "kind=page"), ("dup", "count=2")]

    def test_bare_action_has_empty_argstr(self):
        assert faultplan.split_clauses("dup") == [("dup", "")]

    def test_stray_semicolons_and_whitespace_dropped(self):
        got = faultplan.split_clauses(" ;drop:kind=page ; ; dup ;")
        assert got == [("drop", "kind=page"), ("dup", "")]


class TestParseClauseArgs:
    SCHEMA = {"worker": int, "seconds": float, "on": str}

    def test_coercions(self):
        got = faultplan.parse_clause_args(
            "worker=2,seconds=1.5,on=iter", self.SCHEMA)
        assert got == {"worker": 2, "seconds": 1.5, "on": "iter"}

    def test_empty_argstr(self):
        assert faultplan.parse_clause_args("", self.SCHEMA) == {}

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown fault key"):
            faultplan.parse_clause_args("bogus=1", self.SCHEMA)

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="bad fault argument"):
            faultplan.parse_clause_args("worker", self.SCHEMA, "kill:worker")

    def test_bad_value_names_clause(self):
        with pytest.raises(ValueError, match="kill:worker=x"):
            faultplan.parse_clause_args("worker=x", self.SCHEMA,
                                        "kill:worker=x")


class TestEnvHandling:
    def test_dist_ignores_other_dialect_variables(self, monkeypatch):
        # No dialect reads the environment: what a run is given through
        # ``faults=`` is its whole plan, whatever a chaos soak exported.
        monkeypatch.setenv("PODS_FAULTS", "kill:worker=1")
        monkeypatch.setenv("PODS_SIM_FAULTS", "drop:kind=page")
        monkeypatch.setenv("PODS_DIST_FAULTS", "node-kill:node=1")
        for name in ("sim", "parallel", "dist"):
            assert get_backend(name).fault_plan(None, 2) is None

    @pytest.mark.parametrize("parse,clause", [
        (FaultPlan.parse, "explode:worker=1"),
        (SimFaultPlan.parse, "explode:kind=page"),
        (DistFaultPlan.parse, "explode:node=1"),
    ])
    def test_unknown_action_names_clause(self, parse, clause):
        with pytest.raises(ValueError, match="explode"):
            parse(clause)


class TestDialectsShareSyntax:
    """The same spec shapes parse on both sides (vocabulary differs)."""

    def test_all_accept_multi_clause_specs(self):
        par = FaultPlan.parse("kill:worker=1,after=3;hang:worker=0")
        sim = SimFaultPlan.parse("drop:kind=page,after=3;dup:src=0")
        dist = DistFaultPlan.parse(
            "drop:kind=data,count=2;node-kill:node=1,on=write")
        assert len(par.faults) == 2
        assert len(sim.faults) == 2
        assert len(dist.faults) == 2

    def test_all_reject_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault key"):
            FaultPlan.parse("kill:worker=1,kind=page")
        with pytest.raises(ValueError, match="unknown fault key"):
            SimFaultPlan.parse("drop:worker=1")
        with pytest.raises(ValueError, match="unknown fault key"):
            DistFaultPlan.parse("drop:worker=1")

    def test_empty_specs_mean_no_faults(self):
        for parse in (FaultPlan.parse, SimFaultPlan.parse,
                      DistFaultPlan.parse):
            assert not parse(None)
            assert not parse("  ")

# -- round-trip properties -----------------------------------------------
# The grammar must be an exact codec: parse -> format -> parse is the
# identity for any spec the schema admits, so plans can be echoed into
# logs, chaos reports and run records and re-ingested without drift.

from hypothesis import given
from hypothesis import strategies as st

_ACTIONS = st.sampled_from(["kill", "hang", "drop", "dup", "reorder",
                            "pe-halt"])
_KEYS = ["worker", "after", "count", "seed", "gen", "kind", "pe"]
_SCHEMA = {k: int for k in _KEYS} | {"kind": str}
_VALUES = {
    "kind": st.sampled_from(["page", "token", "ack"]),
}


@st.composite
def _clauses(draw):
    action = draw(_ACTIONS)
    keys = draw(st.lists(st.sampled_from(_KEYS), unique=True, max_size=4))
    args = {k: draw(_VALUES.get(k, st.integers(0, 99))) for k in keys}
    return action, args


class TestRoundTrip:
    @given(clauses=st.lists(_clauses(), min_size=1, max_size=5))
    def test_parse_format_parse_identity(self, clauses):
        spec = faultplan.format_spec(clauses)
        reparsed = [
            (action, faultplan.parse_clause_args(argstr, _SCHEMA,
                                                 f"{action}:{argstr}"))
            for action, argstr in faultplan.split_clauses(spec)]
        assert reparsed == clauses
        # format is idempotent through a second cycle too
        assert faultplan.format_spec(reparsed) == spec

    @given(clauses=st.lists(_clauses(), min_size=1, max_size=3),
           junk=st.sampled_from(["bogus=1", "worker", "worker=x"]),
           pos=st.integers(0, 3))
    def test_junk_clause_is_named_in_the_error(self, clauses, junk, pos):
        """A bad clause anywhere in the spec raises a ValueError whose
        message pins the offending clause, never a neighbouring one."""
        pos = min(pos, len(clauses))
        parts = [faultplan.format_clause(a, kw) for a, kw in clauses]
        parts.insert(pos, f"kill:{junk}")
        spec = ";".join(parts)
        with pytest.raises(ValueError) as excinfo:
            for action, argstr in faultplan.split_clauses(spec):
                faultplan.parse_clause_args(argstr, _SCHEMA,
                                            f"{action}:{argstr}")
        msg = str(excinfo.value)
        assert junk.partition("=")[0] in msg

    def test_format_clause_bare_action(self):
        assert faultplan.format_clause("dup", {}) == "dup"
        assert faultplan.split_clauses("dup") == [("dup", "")]

    @given(clauses=st.lists(_clauses(), min_size=1, max_size=4))
    def test_round_trip_through_real_dialect(self, clauses):
        """Specs survive a trip through a real dialect parser: format a
        parallel-dialect plan, parse it with FaultPlan, and the parsed
        faults carry exactly the formatted qualifiers."""
        dialect = {"worker", "after", "gen"}
        plan_clauses = [
            ("kill", {"worker": args.get("worker", 0),
                      **{k: v for k, v in args.items() if k in dialect}})
            for _, args in clauses]
        spec = faultplan.format_spec(plan_clauses)
        plan = FaultPlan.parse(spec)
        assert len(plan.faults) == len(plan_clauses)
        for fault, (_, args) in zip(plan.faults, plan_clauses):
            for key, value in args.items():
                assert getattr(fault, key) == value


# -- the engine behind the dialects --------------------------------------
# Selector + arming window and the event trigger counter exist once, in
# common/faultplan.py; the dialects only name what firing does.


class TestEngine:
    NODE = 1  # the sender: a dist injector only ever sees its own sends

    @given(action=st.sampled_from(["drop", "delay"]),
           src=st.sampled_from([None, 0, 1]),
           dst=st.sampled_from([None, 0, 2, 3]),
           kind=st.sampled_from([None, "ack"]),
           after=st.integers(0, 5), count=st.integers(0, 4),
           traffic=st.lists(st.tuples(st.sampled_from([0, 2, 3]),
                                      st.booleans()), max_size=40))
    def test_sim_and_dist_fire_on_the_same_match_indices(
            self, action, src, dst, kind, after, count, traffic):
        """One clause, one traffic sequence, two dialects: the shared
        selector + ``after``/``count`` window picks the same messages
        (``ack`` is the one message kind both vocabularies name)."""
        args = {k: v for k, v in (("src", src), ("dst", dst),
                                  ("kind", kind)) if v is not None}
        spec = faultplan.format_clause(
            action, args | {"after": after, "count": count})
        sim = NetFaultInjector(SimFaultPlan.parse(spec))
        dist = DistFaultInjector(DistFaultPlan.parse(spec), node=self.NODE)
        sim_hits, dist_hits = [], []
        for n, (to, is_ack) in enumerate(traffic):
            dec = sim.decide(self.NODE, to, "ack" if is_ack else "page")
            if dec.drop or dec.extra_us:
                sim_hits.append(n)
            drop, delay_s = dist.decide_frame(to,
                                              "ack" if is_ack else "data")
            if drop or delay_s:
                dist_hits.append(n)
        assert sim_hits == dist_hits
        if count:
            assert len(sim_hits) <= count

    def test_trigger_counts_per_event_and_filters_by_generation(self):
        hits = []

        class Probe(faultplan.EventTrigger):
            def act(self, f, count):
                if count == f.after:
                    hits.append((f.action, count))

        plan = FaultPlan.parse("hang:worker=0,on=write,after=2,seconds=0;"
                               "hang:worker=0,on=iter,gen=2,seconds=0")
        probe = Probe(plan.faults, ("iter", "write"))
        for _ in range(4):
            probe.fire("iter")   # gen=2 clause is not armed in gen 1
            probe.fire("write")
        assert hits == [("hang", 2)]
        probe.arm(2)             # counts restart; gen=1 clause disarmed
        probe.fire("iter")
        assert hits == [("hang", 2), ("hang", 0)]

    def test_unarmed_triggers_are_no_ops(self):
        for trigger in (FaultInjector(FaultPlan(), 0),
                        DistFaultInjector(DistFaultPlan(), node=0),
                        CoordKillSwitch(None)):
            trigger.fire("anything-at-all")  # never indexes the counters

    def test_planned_is_about_every_generation_and_this_process_only(self):
        # What the SPMD core asks before putting ``fire`` in a hot seam:
        # a clause for a later generation counts (a takeover re-arms the
        # trigger under a running executor), another worker's does not.
        later = FaultInjector(
            FaultPlan.parse("kill:worker=1,on=iter,after=3,gen=2"), 1)
        assert later.planned and not later._armed
        assert not FaultInjector(
            FaultPlan.parse("kill:worker=1,on=iter,after=3"), 0).planned
        assert not FaultInjector(FaultPlan(), 0).planned
        # dist: only kill clauses addressed to the node reach the trigger.
        frames = DistFaultPlan.parse("drop:kind=data,count=1")
        assert not DistFaultInjector(frames, node=0).planned
        assert DistFaultInjector(DistFaultPlan.parse(
            "node-kill:node=1,on=write,after=2"), node=1).planned
