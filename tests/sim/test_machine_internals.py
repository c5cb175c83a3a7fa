"""Unit tests of simulator internals: broadcast tree, batching,
tombstones, stall bounding, tracing, gathering, spawn placement, the
event order, and the host's call budget per event."""

import math
import sys

import pytest

from repro.api import compile_source
from repro.common.config import MachineConfig, ObsConfig, SimConfig
from repro.obs.spanlog import listing, summary
from repro.sim import ru
from repro.sim import timing as T
from repro.sim.machine import Machine
from repro.translator import isa
from repro.translator.isa import Instr, SPTemplate, const, slot


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
        return ru.bcast_children(pid, root, machine.mc.num_pes)

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
        counts = {}
        for e in m.log.events:
            counts[e.kind] = counts.get(e.kind, 0) + 1
        assert counts["frame-create"] == counts["frame-end"]
        assert counts["token-match"] > 0
        assert "message" in counts

    def test_trace_format_and_summary(self):
        m, _ = machine_for(FILL, num_pes=2, trace=True)
        m.run((8,))
        text = "\n".join(listing(m.log.events, limit=5))
        assert "PE0" in text and "us" in text
        assert "trace summary" in summary(m.log)

    def test_trace_off_by_default(self):
        m, _ = machine_for(FILL, num_pes=2)
        m.run((8,))
        assert m.log is None


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


@pytest.mark.parametrize("jitter_seed", [None, 7], ids=["exact", "jitter"])
class TestEventOrder:
    """The event order as a contract of its own (the fingerprints pin it
    only through whole programs): recorder callbacks put on a real
    machine through ``schedule``."""

    @staticmethod
    def machine(jitter_seed):
        # main (PE 0) replicates `worker` - six NOPs - on every PE with a
        # distributed spawn; PE 1's copy arrives over the network, so its
        # start time moves with the jitter seed.
        worker = SPTemplate(block_id=1, name="worker", kind="loop",
                            code=[Instr(isa.NOP)] * 6 + [Instr(isa.END)],
                            num_slots=1, inputs=(0,))
        main = SPTemplate(block_id=0, name="main", kind="function", code=[
            Instr(isa.SPAWN, block=1, args=(const(0),), distributed=True),
            Instr(isa.SENDR, a=slot(0), b=const(1)),
            Instr(isa.END),
        ], num_slots=1, inputs=(0,))
        program = isa.PodsProgram({0: main, 1: worker}, entry_block=0,
                                  arity=0)
        return Machine(program, SimConfig(machine=MachineConfig(num_pes=2),
                                          jitter_seed=jitter_seed))

    def test_same_time_events_run_in_schedule_order(self, jitter_seed):
        m, log = self.machine(jitter_seed), []
        for tag in "abc":
            m.schedule(50.0, log.append, tag)
        # Whoever schedules: "d" is queued from inside an earlier event,
        # after "e" was queued by the host, so it runs after "e".
        m.schedule(10.0, m.schedule, 50.0, log.append, "d")
        m.schedule(50.0, log.append, "e")
        assert m.run(()).value == 1
        assert log == ["a", "b", "c", "e", "d"]

    def test_event_scheduled_at_now_runs_after_those_queued(self, jitter_seed):
        m, log = self.machine(jitter_seed), []

        def first():
            log.append("first")
            m.schedule(m.now, log.append, "nested")

        m.schedule(5.0, first)
        m.schedule(5.0, log.append, "second")
        m.schedule(5.0, log.append, "third")
        m.run(())
        assert log == ["first", "second", "third", "nested"]

    def test_earlier_time_runs_first_however_late_scheduled(self, jitter_seed):
        m, log = self.machine(jitter_seed), []
        m.schedule(9.0, log.append, "late")
        m.schedule(9.0, m.schedule, 9.5, log.append, "later")
        m.schedule(3.0, log.append, "early")
        m.run(())
        assert log == ["early", "late", "later"]

    def probe_run(self, jitter_seed):
        """Run with two recorders aimed at PE 1's worker: one an ulp
        before NOP 2 starts, one at exactly NOP 4's start.  Returns what
        each saw (instructions PE 1 had executed) and NOP 0's start."""
        m, log, started = self.machine(jitter_seed), [], []
        first_nop = m._dcode[1][0]

        def seen(tag, pe, base):
            log.append((tag, pe.stats.instructions - base))

        def probe(M, pe, frame, t):
            if pe.pid == 1:
                # Local start times of the six NOPs, summed the way the
                # EU sums them.
                starts = [t]
                for _ in range(5):
                    starts.append(starts[-1] + T.INT_ADD)
                base = pe.stats.instructions
                M.schedule(math.nextafter(starts[2], 0.0), seen, "before-2",
                           pe, base)
                M.schedule(starts[4], seen, "at-4", pe, base)
                started.append(t)
            return first_nop(M, pe, frame, t)

        m._dcode[1][0] = probe
        m.run(())
        return log, started

    def test_eu_yields_to_earlier_events_only(self, jitter_seed):
        """An EU at local time ``t`` stops for an event at a time ``< t``
        and runs on past one at exactly ``t``."""
        log, started = self.probe_run(jitter_seed)
        assert log == [("before-2", 2), ("at-4", 5)]
        if jitter_seed is not None:
            # The jitter did move the worker: the rule held at other times.
            assert started != self.probe_run(None)[1]


def test_finished_machine_is_freed_by_reference_count():
    # The compiled EU steps take the machine and the PE as arguments; a
    # step that closed over them would leave every finished machine, and
    # the arrays it holds, to the cyclic collector.  Frames and segments
    # travel in the local Array Manager's event arguments too, so the
    # second run is an observed SIMPLE with remote reads and deferrals.
    import gc
    import weakref

    from repro.apps import compile_simple

    def finished(m, args):
        stats = m.run(args).stats
        return weakref.ref(m), stats

    observed = SimConfig(machine=MachineConfig(num_pes=8),
                         obs=ObsConfig(metrics=True, timelines=True,
                                       waits=True))
    simple = compile_simple().pods
    gc.disable()
    try:
        runs = [finished(machine_for(FILL, num_pes=4)[0], (32,)),
                finished(Machine(simple, observed), (8, 1))]
        assert [ref() for ref, _ in runs] == [None, None]
    finally:
        gc.enable()
    stats = runs[1][1]
    assert stats.total("array_reads_remote") > 0
    assert stats.total("deferred_local") > 0
    assert stats.total("deferred_remote") > 0


class TestHostWorkBudget:
    """A standing budget for Python work per simulated event: what an
    event costs the host is the calls around it (docs/simulator.md,
    "Where an event goes"), so a simulator change is held to this count
    the way an SPMD-core change is held to its call count."""

    # Upper bounds.  Obs off: 9.7-10.2 while every array access went
    # AREAD -> _eu_aread -> _am_read -> _deliver_waiter; 8.48-8.89 once
    # AREAD/AWRITE are compiled whole and a local access's reply goes
    # straight into the frame (docs/simulator.md, "Where an event goes").
    CALLS_PER_EVENT = 9.1
    # With metrics, timelines and waits on: 17.7-18.5 while every hook
    # went through a store method, 12.7-13.7 once each writes its
    # record in one step (docs/observability.md, "What observing costs"),
    # 11.44-12.41 with the local access compiled whole.
    OBSERVED_CALLS_PER_EVENT = 12.7

    @pytest.mark.parametrize("pes", [4, 8])
    @pytest.mark.parametrize("app", ["simple", "matmul"])
    def test_python_calls_per_event(self, app, pes):
        per_event = self.calls_per_event(app, pes, ObsConfig())
        assert per_event <= self.CALLS_PER_EVENT, per_event

    @pytest.mark.parametrize("pes", [4, 8])
    @pytest.mark.parametrize("app", ["simple", "matmul"])
    def test_python_calls_per_event_observed(self, app, pes):
        obs = ObsConfig(metrics=True, timelines=True, waits=True)
        per_event = self.calls_per_event(app, pes, obs)
        assert per_event <= self.OBSERVED_CALLS_PER_EVENT, per_event

    @staticmethod
    def calls_per_event(app, pes, obs) -> float:
        from repro.apps import compile_matmul, compile_simple

        program, args = ((compile_simple(), (8, 1)) if app == "simple"
                         else (compile_matmul(), (8,)))
        config = SimConfig(machine=MachineConfig(num_pes=pes), obs=obs)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" or event == "c_call":
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            result = Machine(program.pods, config).run(args)
        finally:
            sys.setprofile(previous)
        return calls / result.stats.events_processed


class TestObserverMemory:
    """Standing bounds on what a run keeps and peaks at, in
    ``tracemalloc`` bytes.  The machine is built outside the window, so
    the reading is the run and what its stats retain once the machine is
    gone, taken after a warm-up run (the first run in a process pays
    first-use allocations).

    An observed SIMPLE ``(8, 1)`` on 4 PEs with metrics, timelines and
    waits on (first run: 0.92 MB retained, 1.94 MB peak); with obs off
    the same run retains 1.4 KB and peaks at 0.30 MB.  An unobserved
    SIMPLE ``(16, 1)`` on 8 PEs peaks at 808 248 B with a PE's remote
    copies held page by page; held as one list per array it read
    914 036 B, which the bound refuses."""

    # Upper bounds, a little above the readings of 870 801 B retained
    # and 1 250 920 B peak.
    RETAINED_BYTES = 900_000
    PEAK_BYTES = 1_300_000
    # A little above the reading of 808 248 B.
    UNOBSERVED_PEAK_BYTES = 850_000

    @staticmethod
    def _reading(program, config, args):
        import gc
        import tracemalloc

        machine = Machine(program, config)
        gc.collect()
        tracemalloc.start()
        try:
            stats = machine.run(args).stats
            del machine
            gc.collect()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return retained, peak, stats.events_processed

    def test_observed_run_retains_and_peaks_within_bounds(self):
        from repro.apps import compile_simple

        program = compile_simple().pods
        config = SimConfig(machine=MachineConfig(num_pes=4),
                           obs=ObsConfig(metrics=True, timelines=True,
                                         waits=True))
        self._reading(program, config, (8, 1))  # warm-up
        retained, peak, events = self._reading(program, config, (8, 1))
        assert events == 27993
        assert retained <= self.RETAINED_BYTES, retained
        assert peak <= self.PEAK_BYTES, peak

    def test_unobserved_run_peaks_within_bound(self):
        from repro.apps import compile_simple

        program = compile_simple().pods
        Machine(program, SimConfig(machine=MachineConfig(num_pes=4))).run(
            (8, 1))  # warm-up, untraced
        config = SimConfig(machine=MachineConfig(num_pes=8))
        _, peak, events = self._reading(program, config, (16, 1))
        assert events == 136386
        assert peak <= self.UNOBSERVED_PEAK_BYTES, peak


class TestDiagnostics:
    def test_rf_range_trace_shows_per_pe_subranges(self):
        m, _ = machine_for(FILL, num_pes=4, trace=True)
        m.run((128,))
        events = [e for e in m.log.events if e.kind == "rf-range"]
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
