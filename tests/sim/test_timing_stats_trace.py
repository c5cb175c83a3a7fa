"""Unit tests for the timing model, statistics, and the trace (the span
log's instants)."""

import pytest

from repro.common.config import ObsConfig
from repro.obs.spanlog import (
    Instant,
    SpanLog,
    activity,
    drop_warning,
    listing,
    summary,
)
from repro.runtime.frames import Frame
from repro.sim import timing as T
from repro.sim.decode import compile_template
from repro.sim.pe import PE
from repro.sim.stats import PEStats, RunStats, UNITS
from repro.translator import isa
from repro.translator.isa import Instr, SPTemplate, slot


def eu_charge(fn, *operands):
    """What the Execution Unit bills for ``fn`` on these operands: the
    ``t2 - t`` of the decoded handler the machine actually runs."""
    n = len(operands)
    instr = Instr(isa.BIN if n == 2 else isa.UN, dst=n, fn=fn, a=slot(0),
                  b=slot(1) if n == 2 else None)
    handler, = compile_template(SPTemplate(0, "t", "function", [instr], n + 1))
    pe, frame = PE(0), Frame(1, 0, (), 0, n + 1)
    for i, value in enumerate(operands):
        frame.put(i, value)
    t2, _ = handler(None, pe, frame, 0.0)
    assert pe.stats.busy["EU"] == t2 and pe.stats.instructions == 1
    return t2


class TestTimingModel:
    def test_type_sensitive_costs(self):
        # Integer vs floating point, per the paper's table.
        assert eu_charge("add", 1, 2) == 0.300
        assert eu_charge("add", 1.0, 2) == 6.753
        assert eu_charge("add", 1, 2.0) == 6.753
        assert eu_charge("mul", 2, 3) == pytest.approx(1.2)
        assert eu_charge("mul", 2.0, 3.0) == 7.217

    def test_division_always_float_cost(self):
        # '/' produces a float even on int operands.
        assert eu_charge("div", 4, 2) == 10.707

    def test_comparison_costs(self):
        assert eu_charge("lt", 1, 2) == 0.300
        assert eu_charge("lt", 1.0, 2.0) == 5.803

    def test_unary_costs(self):
        assert eu_charge("sqrt", 2.0) == 18.929
        assert eu_charge("abs", -1) == 0.300
        assert eu_charge("abs", -1.0) == 12.626
        assert eu_charge("neg", 1.0) == 0.555

    def test_message_latency_regimes(self):
        # Dunigan: <=100 bytes flat, then linear.
        flat = T.message_latency(50)
        assert flat == T.message_latency(100)
        assert T.message_latency(101) > flat
        long = T.message_latency(1000)
        assert long == pytest.approx(697.0 + 400.0 + T.NET_PROPAGATION)

    def test_array_manager_formulas(self):
        assert T.am_array_write(0) == pytest.approx(0.4)
        assert T.am_array_write(3) == pytest.approx(0.4 + 3.0)
        assert T.am_send_page(32) == pytest.approx(32 * 0.3 + 1.0)
        assert T.am_receive_page(32) == pytest.approx(32 * 0.4)
        assert T.am_allocate() == pytest.approx(101.0)

    def test_local_read_identity(self):
        # 1 int mul + 1 int add + 3 int cmp + 1 read = 2.7 us.
        assert T.INT_MUL + T.INT_ADD + 3 * T.INT_CMP + T.MEM_READ == \
            pytest.approx(T.LOCAL_ARRAY_ACCESS)


class TestStats:
    def make_stats(self, busy_eu=50.0, finish=100.0, pes=2):
        pe_stats = []
        for _ in range(pes):
            s = PEStats()
            s.busy["EU"] = busy_eu
            s.instructions = 10
            pe_stats.append(s)
        return RunStats(num_pes=pes, finish_time_us=finish,
                        pe_stats=pe_stats)

    def test_utilization_average_and_per_pe(self):
        stats = self.make_stats()
        assert stats.utilization("EU") == pytest.approx(0.5)
        assert stats.utilization("EU", pe=0) == pytest.approx(0.5)
        assert stats.utilization("MU") == 0.0

    def test_utilizations_cover_all_units(self):
        stats = self.make_stats()
        util = stats.utilizations()
        assert set(util) == set(UNITS)

    def test_zero_time_guard(self):
        stats = RunStats(num_pes=1, finish_time_us=0.0,
                         pe_stats=[PEStats()])
        assert stats.utilization("EU") == 0.0

    def test_totals(self):
        stats = self.make_stats()
        assert stats.instructions == 20

    def test_cache_hit_rate(self):
        s = PEStats()
        s.cache_hits = 3
        s.cache_misses = 1
        stats = RunStats(num_pes=1, finish_time_us=1.0, pe_stats=[s])
        assert stats.cache_hit_rate == pytest.approx(0.75)
        empty = RunStats(num_pes=1, finish_time_us=1.0,
                         pe_stats=[PEStats()])
        assert empty.cache_hit_rate == 0.0

    def test_report_is_readable(self):
        text = self.make_stats().report()
        assert "utilization" in text
        assert "EU=50.0%" in text


def trace_log(num_pes=1, **obs):
    return SpanLog(num_pes, ObsConfig(trace=True, **obs))


class TestTracer:
    def test_record_and_query(self):
        t = trace_log(2)
        t.instant(1.0, 0, "frame-create", "a")
        t.instant(2.0, 1, "block", "b")
        t.instant(3.0, 0, "block", "c")
        assert len([e for e in t.events if e.kind == "block"]) == 2
        assert len([e for e in t.events if e.pe == 0]) == 2
        assert summary(t).splitlines()[1:] == [
            "  block          2", "  frame-create   1"]

    def test_limit_drops_and_reports(self):
        t = trace_log(trace_limit=2)
        for i in range(5):
            t.instant(float(i), 0, "x", "d")
        assert len(t.events) == 2
        assert t.dropped == 3
        assert "3 of 5 events dropped" in drop_warning(t)

    def test_format_truncation(self):
        t = trace_log()
        for i in range(10):
            t.instant(float(i), 0, "x", f"event {i}")
        lines = listing(t.events, limit=3)
        assert len(lines) == 4 and lines[-1] == "... 7 more events"

    def test_event_format(self):
        e = Instant(12.5, 3, "message", "hello")
        line = e.format()
        assert "12.5us" in line and "PE3" in line and "hello" in line

    def test_golden_line_stable_fields(self):
        e = Instant(12.5, 3, "block", "main uid=7 slot=2",
                    unit="EU", sp=7, seq=41)
        assert e.golden_line() == "41 3 EU block 7"
        bare = Instant(1.0, 0, "message", "x")
        assert bare.golden_line() == "0 0 - message -"


class TestTracerOverflow:
    def test_drop_mode_keeps_oldest(self):
        t = trace_log(trace_limit=2, trace_mode="drop")
        for i in range(5):
            t.instant(float(i), 0, "x", f"e{i}")
        assert [e.detail for e in t.events] == ["e0", "e1"]
        assert t.dropped == 3

    def test_ring_mode_keeps_newest(self):
        t = trace_log(trace_limit=2, trace_mode="ring")
        for i in range(5):
            t.instant(float(i), 0, "x", f"e{i}")
        assert [e.detail for e in t.events] == ["e3", "e4"]
        assert t.dropped == 3
        # seq numbering is global, so the survivors still show where
        # they sat in the full stream
        assert [e.seq for e in t.events] == [4, 5]

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ObsConfig(trace=True, trace_mode="spill")

    def test_complete_trace_has_no_warning(self):
        t = trace_log(trace_limit=10)
        t.instant(1.0, 0, "x", "a")
        assert not t.dropped
        assert drop_warning(t) == ""
        assert "WARNING" not in summary(t)

    def test_drop_warning_prominent_in_summary(self):
        for mode in ("drop", "ring"):
            t = trace_log(trace_limit=2, trace_mode=mode)
            for i in range(5):
                t.instant(float(i), 0, "x", "d")
            warning = drop_warning(t)
            assert "WARNING" in warning
            assert "3 of 5 events dropped" in warning
            # the summary must lead with it: a truncated trace should
            # never read as complete
            assert summary(t).startswith(warning)


class TestTimeline:
    def test_timeline_shape(self):
        t = trace_log(2)
        for i in range(50):
            t.instant(float(i), i % 2, "x", "d")
        text = activity(t, finish_us=50.0, buckets=10)
        lines = text.splitlines()
        assert lines[0].startswith("PE0")
        assert lines[1].startswith("PE1")
        assert len(lines) == 3

    def test_timeline_empty(self):
        assert activity(trace_log(2), 0.0) == "(no events)"

    def test_timeline_from_real_run(self):
        from repro.api import compile_source
        from repro.common.config import MachineConfig, SimConfig
        from repro.sim.machine import Machine

        program = compile_source("""
        function main(n) {
            A = array(n);
            for i = 1 to n { A[i] = i; }
            return A[n];
        }
        """)
        m = Machine(program.pods,
                    SimConfig(machine=MachineConfig(num_pes=3),
                              obs=ObsConfig(trace=True)))
        r = m.run((48,))
        text = activity(m.log, r.finish_time_us, buckets=20)
        assert text.count("PE") == 3
