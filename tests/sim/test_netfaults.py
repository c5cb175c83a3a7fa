"""The simulator fault-plan dialect and the deterministic injector."""

import pytest

from repro.common.faultplan import resolve
from repro.sim.netfaults import (
    ANY,
    DELAY_DEFAULT_US,
    REORDER_DEFAULT_US,
    NetFault,
    NetFaultInjector,
    SimFaultPlan,
)


class TestPlanParsing:
    def test_message_and_pe_faults_split(self):
        plan = SimFaultPlan.parse(
            "drop:kind=page,count=2;pe-halt:pe=1,at=300;dup:src=0")
        assert [f.action for f in plan.message_faults()] == ["drop", "dup"]
        assert [f.action for f in plan.pe_faults()] == ["pe-halt"]
        assert bool(plan)

    def test_qualifier_defaults(self):
        (f,) = SimFaultPlan.parse("drop").faults
        assert (f.src, f.dst, f.kind, f.after, f.count) == \
            (ANY, ANY, "", 0, 1)

    def test_delay_and_reorder_default_lags(self):
        delay, reorder = SimFaultPlan.parse("delay;reorder").faults
        assert delay.us == DELAY_DEFAULT_US
        assert reorder.us == REORDER_DEFAULT_US
        assert reorder.us > delay.us

    def test_matches_filters_src_dst_kind(self):
        f = NetFault(action="drop", src=0, dst=2, kind="page")
        assert f.matches(0, 2, "page")
        assert not f.matches(1, 2, "page")
        assert not f.matches(0, 1, "page")
        assert not f.matches(0, 2, "token")
        assert NetFault(action="drop").matches(3, 1, "ack")

    @pytest.mark.parametrize("spec,complaint", [
        ("explode:count=1", "unknown sim fault action"),
        ("drop:kind=carrier-pigeon", "unknown message kind"),
        ("drop:worker=1", "unknown fault key"),
        ("drop:prob=1.5", "prob must be"),
        ("drop:count=-1", "count must be"),
        ("drop:after=-1", "after must be"),
        ("delay:us=-5", "us must be"),
        ("pe-halt:at=0", "needs pe="),
        ("pe-degrade:pe=1,factor=0", "factor must be"),
        ("pe-halt:pe=1,at=-1", "at must be"),
    ])
    def test_strict_validation(self, spec, complaint):
        with pytest.raises(ValueError, match=complaint):
            SimFaultPlan.parse(spec)

    def test_resolve_coercions(self):
        plan = SimFaultPlan.parse("drop")
        assert resolve(plan, SimFaultPlan) is plan
        assert resolve("drop", SimFaultPlan).faults == plan.faults
        with pytest.raises(ValueError, match="cannot build"):
            resolve(42, SimFaultPlan)


class TestInjector:
    def test_count_window(self):
        inj = NetFaultInjector(SimFaultPlan.parse("drop:count=2"))
        hits = [inj.decide(0, 1, "page").drop for _ in range(4)]
        assert hits == [True, True, False, False]

    def test_after_skips_leading_matches(self):
        inj = NetFaultInjector(SimFaultPlan.parse("drop:after=2,count=1"))
        hits = [inj.decide(0, 1, "page").drop for _ in range(4)]
        assert hits == [False, False, True, False]

    def test_kind_filter_does_not_consume_window(self):
        inj = NetFaultInjector(SimFaultPlan.parse("drop:kind=page,count=1"))
        assert not inj.decide(0, 1, "token").drop
        assert inj.decide(0, 1, "page").drop

    def test_unlimited_count(self):
        inj = NetFaultInjector(SimFaultPlan.parse("dup:count=0"))
        assert all(inj.decide(0, 1, "page").dup for _ in range(10))

    def test_clauses_compose(self):
        inj = NetFaultInjector(
            SimFaultPlan.parse("delay:us=100,count=1;delay:us=50,count=1"))
        first = inj.decide(0, 1, "page")
        assert first.extra_us == 150.0
        assert inj.decide(0, 1, "page").extra_us == 0.0

    def test_probabilistic_drops_replay_identically(self):
        spec = "drop:prob=0.3,seed=42,count=0"
        traffic = [(s, d, k) for s in range(2) for d in range(2)
                   for k in ("page", "token", "ack") for _ in range(20)]
        runs = []
        for _ in range(2):
            inj = NetFaultInjector(SimFaultPlan.parse(spec))
            runs.append([inj.decide(*t).drop for t in traffic])
        assert runs[0] == runs[1]
        assert any(runs[0]) and not all(runs[0])

    def test_different_seeds_differ(self):
        traffic = [(0, 1, "page")] * 64

        def draws(seed):
            inj = NetFaultInjector(SimFaultPlan.parse(
                f"drop:prob=0.5,seed={seed},count=0"))
            return [inj.decide(*t).drop for t in traffic]

        assert draws(1) != draws(2)
