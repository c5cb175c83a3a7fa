"""Unit tests of simulator internals: broadcast tree, batching,
tombstones, stall bounding, tracing, gathering, spawn placement."""

import pytest

from repro.api import compile_source
from repro.common.config import MachineConfig, ObsConfig, SimConfig
from repro.sim.machine import Machine


def machine_for(src, **cfg_kwargs):
    trace = cfg_kwargs.pop("trace", False)
    program = compile_source(src)
    config = SimConfig(machine=MachineConfig(**cfg_kwargs),
                       obs=ObsConfig(trace=trace))
    return Machine(program.pods, config), program


FILL = """
function main(n) {
    A = array(n);
    for i = 1 to n { A[i] = i * 3; }
    return A;
}
"""


class TestBroadcastTree:
    def children(self, machine, pid, root):
        return machine._bcast_children(pid, root)

    def test_tree_reaches_every_pe_exactly_once(self):
        m, _ = machine_for(FILL, num_pes=32)
        for root in (0, 5, 31):
            reached = {root}
            frontier = [root]
            while frontier:
                node = frontier.pop()
                for child in self.children(m, node, root):
                    assert child not in reached, "duplicate delivery"
                    reached.add(child)
                    frontier.append(child)
            assert reached == set(range(32))

    def test_tree_depth_is_logarithmic(self):
        m, _ = machine_for(FILL, num_pes=32)

        def depth(node, root):
            kids = self.children(m, node, root)
            return 1 + max((depth(k, root) for k in kids), default=0)

        assert depth(0, 0) <= 6  # log2(32) + 1

    def test_fanout_bounded_by_log(self):
        m, _ = machine_for(FILL, num_pes=32)
        for pid in range(32):
            assert len(self.children(m, pid, 0)) <= 5

    def test_non_power_of_two(self):
        m, _ = machine_for(FILL, num_pes=7)
        reached = {0}
        frontier = [0]
        while frontier:
            node = frontier.pop()
            for child in self.children(m, node, 0):
                assert child not in reached
                assert 0 <= child < 7
                reached.add(child)
                frontier.append(child)
        assert reached == set(range(7))


class TestTokenBatching:
    def test_partial_batches_flush_by_timer(self):
        # A 2-PE fill sends few tokens; they must still arrive.
        m, _ = machine_for(FILL, num_pes=2)
        result = m.run((8,))
        assert result.value.flat == [3 * i for i in range(1, 9)]
        # Nothing left in any batch.
        for pe in m.pes:
            assert all(not b for b in pe.batches.values())

    def test_remote_token_stats_counted(self):
        m, _ = machine_for(FILL, num_pes=4)
        m.run((64,))
        sent = sum(pe.stats.tokens_sent_remote for pe in m.pes)
        assert sent > 0


class TestTombstones:
    # The loop body uses n (a body-only import): replicas whose Range
    # Filter is empty terminate before that token arrives.
    STRAGGLER = """
    function main(n) {
        A = array(n);
        for i = 1 to n { A[i] = n - i; }
        return A;
    }
    """

    def test_empty_rf_replicas_do_not_ghost(self):
        # 4 elements over 8 PEs: most replicas exit with an empty Range
        # Filter before their imports arrive; stragglers must be dropped
        # and the run must terminate cleanly.
        m, _ = machine_for(self.STRAGGLER, num_pes=8)
        result = m.run((4,))
        assert result.value.flat == [3, 2, 1, 0]
        assert m.frames == {}
        assert m.late_tokens > 0  # stragglers did happen and were dropped

    def test_match_table_eventually_clean(self):
        m, _ = machine_for(self.STRAGGLER, num_pes=8)
        m.run((4,))
        for pe in m.pes:
            assert pe.match_table == {}, "tombstones must retire"


class TestSuspendMode:
    SRC = """
    function main(n) {
        A = array(n);
        for i = 1 to n { A[i] = i; }
        s = 0;
        for i = 1 to n { next s = s + A[i]; }
        return s;
    }
    """

    def test_blocking_mode_correct_and_bounded(self):
        m, _ = machine_for(self.SRC, num_pes=4, split_phase_reads=False)
        result = m.run((64,))
        assert result.value == 64 * 65 // 2
        for pe in m.pes:
            assert pe.suspended_on is None

    def test_blocking_mode_slower(self):
        m1, _ = machine_for(self.SRC, num_pes=4)
        m2, _ = machine_for(self.SRC, num_pes=4, split_phase_reads=False)
        t_split = m1.run((64,)).finish_time_us
        t_block = m2.run((64,)).finish_time_us
        assert t_block >= t_split


class TestTracing:
    def test_trace_records_lifecycle(self):
        m, _ = machine_for(FILL, num_pes=2, trace=True)
        m.run((40,))
        counts = m.tracer.counts()
        assert counts["frame-create"] == counts["frame-end"]
        assert counts["token-match"] > 0
        assert "message" in counts

    def test_trace_format_and_summary(self):
        m, _ = machine_for(FILL, num_pes=2, trace=True)
        m.run((8,))
        text = m.tracer.format(limit=5)
        assert "PE0" in text and "us" in text
        assert "trace summary" in m.tracer.summary()

    def test_trace_off_by_default(self):
        m, _ = machine_for(FILL, num_pes=2)
        m.run((8,))
        assert m.tracer is None


class TestFunctionPlacement:
    FIB = """
    function fib(n) { return if n < 2 then n else fib(n - 1) + fib(n - 2); }
    function main(n) { return fib(n); }
    """

    def test_round_robin_spreads_frames(self):
        m, _ = machine_for(self.FIB, num_pes=4,
                           function_placement="round_robin")
        result = m.run((12,))
        assert result.value == 144
        created = [pe.stats.frames_created for pe in m.pes]
        assert all(c > 0 for c in created), created

    def test_local_placement_stays_on_pe0(self):
        m, _ = machine_for(self.FIB, num_pes=4)
        result = m.run((12,))
        assert result.value == 144
        created = [pe.stats.frames_created for pe in m.pes]
        assert created[1] == created[2] == created[3] == 0

    def test_round_robin_speeds_up_call_trees(self):
        m1, _ = machine_for(self.FIB, num_pes=1)
        m8, _ = machine_for(self.FIB, num_pes=8,
                            function_placement="round_robin")
        t1 = m1.run((13,)).finish_time_us
        t8 = m8.run((13,)).finish_time_us
        assert t1 / t8 > 1.5

    def test_bad_placement_rejected(self):
        with pytest.raises(ValueError):
            MachineConfig(function_placement="everywhere")


class TestGather:
    def test_read_array_collects_all_segments(self):
        m, _ = machine_for(FILL, num_pes=5)
        result = m.run((100,))
        assert result.value.dims == (100,)
        assert result.value.flat == [3 * i for i in range(1, 101)]

    def test_partial_arrays_surface_none(self):
        src = """
        function main(n) {
            A = array(n);
            for i = 1 to n - 1 { A[i] = i; }
            return A;
        }
        """
        m, _ = machine_for(src, num_pes=2)
        result = m.run((6,))
        assert result.value.flat == [1, 2, 3, 4, 5, None]


class TestEventAccounting:
    def test_deterministic_event_count(self):
        m1, _ = machine_for(FILL, num_pes=3)
        m2, _ = machine_for(FILL, num_pes=3)
        r1 = m1.run((32,))
        r2 = m2.run((32,))
        assert r1.stats.events_processed == r2.stats.events_processed

    def test_event_limit_guard(self):
        program = compile_source(FILL)
        config = SimConfig(machine=MachineConfig(num_pes=1), max_events=50)
        from repro.common.errors import ExecutionError

        with pytest.raises(ExecutionError) as exc:
            Machine(program.pods, config).run((64,))
        assert "event limit" in str(exc.value)


class TestDiagnostics:
    def test_rf_range_trace_shows_per_pe_subranges(self):
        m, _ = machine_for(FILL, num_pes=4, trace=True)
        m.run((128,))
        events = m.tracer.of_kind("rf-range")
        assert len(events) == 4
        spans = sorted(e.detail.split("-> ")[1] for e in events)
        assert spans == ["1..32", "33..64", "65..96", "97..128"]

    def test_deadlock_reports_element_indices(self):
        from repro.common.errors import DeadlockError

        src = """
        function main(n) {
            A = matrix(n, n);
            A[1, 1] = 1;
            return A[2, 3];
        }
        """
        program = compile_source(src)
        from repro.common.config import MachineConfig, ObsConfig, SimConfig

        with pytest.raises(DeadlockError) as exc:
            Machine(program.pods,
                    SimConfig(machine=MachineConfig(num_pes=1))).run((4,))
        assert "(2, 3)" in str(exc.value)
