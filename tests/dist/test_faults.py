"""The distributed fault dialect: parsing and the runtime injector."""

import pytest

from repro.dist.faults import (ANY, DEFAULT_KILL_EXITCODE, DistFault,
                               DistFaultInjector, DistFaultPlan)
from repro.dist.transport import COORD


class TestParse:
    def test_drop_clause(self):
        plan = DistFaultPlan.parse("drop:kind=data,count=4")
        (f,) = plan.faults
        assert f.action == "drop" and f.kind == "data" and f.count == 4
        assert f.src == ANY and f.dst == ANY

    def test_delay_defaults_half_second(self):
        (f,) = DistFaultPlan.parse("delay:kind=hb").faults
        assert f.seconds == 0.5

    def test_partition_clause(self):
        (f,) = DistFaultPlan.parse("partition:a=0,b=2,at=0.1,dur=0.4").faults
        assert (f.a, f.b, f.at, f.dur) == (0, 2, 0.1, 0.4)

    def test_node_kill_defaults(self):
        (f,) = DistFaultPlan.parse("node-kill:node=1").faults
        assert f.on == "iter" and f.gen == 1
        assert f.exitcode == DEFAULT_KILL_EXITCODE

    def test_splits_frame_and_kill_clauses(self):
        plan = DistFaultPlan.parse(
            "drop:kind=ack;node-kill:node=0,on=result")
        assert [f.action for f in plan.frame_faults()] == ["drop"]
        assert [f.action for f in plan.kill_faults()] == ["node-kill"]

    @pytest.mark.parametrize("spec,match", [
        ("explode:node=1", "explode"),
        ("drop:kind=bogus", "bogus"),
        ("drop:after=-1", "after"),
        ("delay:seconds=-2", "seconds"),
        ("partition:a=1,b=1", "distinct"),
        ("partition:a=0", "distinct"),
        ("node-kill:node=-1", "node"),
        ("node-kill:node=1,on=bogus", "bogus"),
        ("node-kill:bogus=1", "bogus"),
    ])
    def test_bad_clause_names_the_problem(self, spec, match):
        with pytest.raises(ValueError, match=match):
            DistFaultPlan.parse(spec)

    def test_empty_is_falsy(self):
        assert not DistFaultPlan.parse(None)
        assert not DistFaultPlan.parse("  ")
        assert DistFaultPlan.parse("drop:count=1")


class TestFrameDecisions:
    def test_after_and_count_window(self):
        plan = DistFaultPlan.parse("drop:kind=data,after=2,count=2")
        inj = DistFaultInjector(plan, node=0)
        decisions = [inj.decide_frame(1, "data")[0] for _ in range(6)]
        # skip 2, fire 2, then disarmed
        assert decisions == [False, False, True, True, False, False]

    def test_kind_filter(self):
        plan = DistFaultPlan.parse("drop:kind=ack,count=0")
        inj = DistFaultInjector(plan, node=0)
        assert inj.decide_frame(1, "ack")[0]
        assert not inj.decide_frame(1, "data")[0]

    def test_src_filter_is_the_injectors_node(self):
        plan = DistFaultPlan.parse("drop:src=2,count=0")
        assert DistFaultInjector(plan, node=2).decide_frame(0, "data")[0]
        assert not DistFaultInjector(plan, node=1).decide_frame(
            0, "data")[0]

    def test_dst_filter_coordinator(self):
        plan = DistFaultPlan.parse(f"drop:dst={COORD},kind=hb,count=0")
        inj = DistFaultInjector(plan, node=1)
        assert inj.decide_frame(COORD, "hb")[0]
        assert not inj.decide_frame(0, "hb")[0]

    def test_delays_accumulate(self):
        plan = DistFaultPlan.parse(
            "delay:seconds=0.2,count=0;delay:seconds=0.3,count=0")
        inj = DistFaultInjector(plan, node=0)
        drop, delay_s = inj.decide_frame(1, "data")
        assert not drop
        assert delay_s == pytest.approx(0.5)

    def test_partition_matches_both_directions(self):
        plan = DistFaultPlan.parse("partition:a=0,b=1,dur=0")
        assert DistFaultInjector(plan, node=0).decide_frame(1, "data")[0]
        assert DistFaultInjector(plan, node=1).decide_frame(0, "data")[0]
        assert not DistFaultInjector(plan, node=2).decide_frame(
            0, "data")[0]
        assert not DistFaultInjector(plan, node=0).decide_frame(
            2, "data")[0]

    def test_partition_window_not_yet_open(self):
        # Window opens far in the future: frames pass now.
        plan = DistFaultPlan.parse("partition:a=0,b=1,at=3600,dur=1")
        inj = DistFaultInjector(plan, node=0)
        assert not inj.decide_frame(1, "data")[0]


class TestGenerations:
    def test_kills_armed_per_generation(self):
        plan = DistFaultPlan.parse("node-kill:node=1,on=iter,gen=2")
        inj = DistFaultInjector(plan, node=1, generation=1)
        assert inj._kills == []
        inj.set_generation(2)
        assert len(inj._kills) == 1

    def test_gen_zero_arms_every_generation(self):
        plan = DistFaultPlan.parse("node-kill:node=1,on=iter,gen=0")
        inj = DistFaultInjector(plan, node=1, generation=1)
        assert len(inj._kills) == 1
        inj.set_generation(3)
        assert len(inj._kills) == 1

    def test_counters_reset_on_adoption(self):
        plan = DistFaultPlan.parse("node-kill:node=1,on=write,after=5")
        inj = DistFaultInjector(plan, node=1)
        inj._counts["write"] = 4
        inj.set_generation(1)
        assert inj._counts["write"] == 0

    def test_other_nodes_never_armed(self):
        plan = DistFaultPlan.parse("node-kill:node=1,on=iter,gen=0")
        inj = DistFaultInjector(plan, node=0)
        assert inj._kills == []
        inj.fire("iter")  # must be a no-op, not an os._exit
