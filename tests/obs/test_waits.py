"""Wait-state attribution and the critical-path profiler.

The acceptance properties of PR 3: per-PE busy + wait spans account for
(at least) 99% of simulated time, and the extracted critical path's
total length equals the run's makespan within 1%.  Both actually hold
exactly by construction; the tests assert the looser contract plus the
tight one so a future refactor that only *approximately* tiles time
still fails loudly.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest

import repro.obs.critpath as critpath
from repro.api import compile_source
from repro.apps import compile_matmul
from repro.common.config import MachineConfig, ObsConfig, SimConfig
from repro.common.errors import PEHaltError
from repro.obs.critpath import (
    _EPS,
    IDLE,
    _edges_inside,
    _merge,
    critical_path,
    pe_wait_breakdown,
    pe_wait_intervals,
    sp_names,
)
from repro.obs.profile import Profile
from repro.obs.spanlog import (
    RUN,
    WAIT_CATEGORIES,
    SpanLog,
    final_sp,
    wait_spans_by_pe,
)
from repro.sim.machine import Machine
from repro.translator import isa
from repro.translator.isa import Instr, SPTemplate, const, slot
from tests.obs.conftest import FILL_AND_SUM


def waits_log():
    return SpanLog(4, ObsConfig(waits=True))


def frame(uid, name="f", ctx=("root",)):
    """What the log's SP hooks read of a frame."""
    return SimpleNamespace(uid=uid, name=name, ctx=ctx)


def sp_lane(created_at=0.0):
    """A log holding one SP (uid 1, on PE 0) and that SP's frame."""
    log, f = waits_log(), frame(1)
    log.sp_create(created_at, 0, f)
    return log, f


def accounted_fraction(profile: Profile, pe: int) -> float:
    """(busy + attributed waits) / makespan for one PE: 1.0 by
    construction (the breakdown tiles the idle complement)."""
    if profile.finish_us <= 0:
        return 1.0
    total = profile.busy_us[pe] + sum(profile.breakdown[pe].values())
    return total / profile.finish_us


class TestSpRecord:
    def test_lifecycle_alternates_run_and_wait(self):
        log, f = sp_lane(0.0)
        log.run_begin(1, 2.0)       # sched-queue 0..2
        log.block(5.0, 0, f)        # run 2..5
        log.wake(9.0, 1, "token-wait", 7)
        log.run_begin(1, 9.0)
        log.sp_end(11.0, 0, f)      # run 9..11
        assert log.sps[1].segments == [
            (0.0, 2.0, "sched-queue", None),
            (2.0, 5.0, RUN, None),
            (5.0, 9.0, "token-wait", 7),
            (9.0, 11.0, RUN, None),
        ]
        assert log.sps[1].ended_at == 11.0

    def test_zero_length_segments_dropped(self):
        log, f = sp_lane(3.0)
        log.run_begin(1, 3.0)       # zero-length sched wait: dropped
        log.block(3.0, 0, f)        # zero-length run: dropped
        log.wake(6.0, 1, "istructure-defer", None)
        log.run_begin(1, 6.0)
        log.sp_end(6.0, 0, f)
        assert log.sps[1].segments == [(3.0, 6.0, "istructure-defer", None)]

    def test_wake_clamps_out_of_order_time(self):
        # A wake timestamped before the block must not create a
        # negative-length segment.
        log, f = sp_lane(0.0)
        log.run_begin(1, 0.0)
        log.block(5.0, 0, f)
        log.wake(4.0, 1, "net-queue", None)
        log.run_begin(1, 8.0)
        log.sp_end(9.0, 0, f)
        for s, e, _, _ in log.sps[1].segments:
            assert e >= s

    def test_adjacent_same_cause_waits_coalesce(self):
        log, f = sp_lane(0.0)
        log.run_begin(1, 0.0)
        log.block(1.0, 0, f)
        log.wake(2.0, 1, "token-wait", 4)
        # Immediately re-blocked on the same producer, no run between.
        log.block(2.0, 0, f)
        log.wake(3.0, 1, "token-wait", 4)
        log.run_begin(1, 3.0)
        log.sp_end(4.0, 0, f)
        segments = log.sps[1].segments
        assert [(k, r) for _, _, k, r in segments].count(
            ("token-wait", 4)) == 1
        assert [(s, e) for s, e, k, _ in segments if k == "token-wait"] \
            == [(1.0, 3.0)]


class TestWaitStore:
    def test_pe_stalls_become_remote_read_spans(self):
        log = waits_log()
        log.stall_begin(0, 1.0)
        log.stall_end(0, 4.0)
        log.stall_begin(0, 4.0)     # zero-length stall: dropped
        log.stall_end(0, 4.0)
        spans = wait_spans_by_pe(log)
        assert spans.get(0) == [(1.0, 4.0, "remote-read")]
        assert spans.get(1, []) == []

    def test_final_sp_prefers_result_producer(self):
        log = waits_log()
        main, loop = frame(1, "main"), frame(2, "main.for_i", (1, 0))
        log.sp_create(0.0, 0, main)
        log.sp_create(0.0, 0, loop)
        assert log.sps[2].parent == 1
        log.sp_end(5.0, 0, main)
        log.sp_end(9.0, 0, loop)
        assert final_sp(log) == 2           # last to end
        log.result(1)
        assert final_sp(log) == 1           # explicit producer wins

    def test_hooks_ignore_unknown_uids(self):
        # The machine reaches only SPs it created; a result produced by
        # an SP the log never saw falls back to the last SP to end.
        log, f = sp_lane(0.0)
        log.sp_end(4.0, 0, f)
        log.result(42)
        assert final_sp(log) == 1
        assert [r.uid for r in log.records()] == [1]
        spans = wait_spans_by_pe(log)
        assert spans.get(0, []) == spans.get(3, []) == []


class TestSimulatedRun:
    """Properties of a real 4-PE fill-and-sum run (module fixture)."""

    def test_waits_recorded(self, waits_run):
        _, result = waits_run
        waits = result.stats.waits
        assert waits is not None
        recs = waits.records()
        assert len(recs) > 4                       # main + loop SPs
        cats = {k for r in recs for _, _, k, _ in r.segments if k != RUN}
        assert "token-wait" in cats
        assert cats <= set(WAIT_CATEGORIES)

    def test_segments_well_formed(self, waits_run):
        _, result = waits_run
        finish = result.stats.finish_time_us
        for rec in result.stats.waits.records():
            prev_end = rec.created_at
            for s, e, kind, _ in rec.segments:
                assert e > s
                assert s >= prev_end - 1e-9        # ordered, no overlap
                # Trailing drain events may run slightly past the result's
                # arrival, but must start inside the run.
                assert 0.0 <= s <= finish + 1e-9
                assert kind == RUN or kind in WAIT_CATEGORIES
                prev_end = e

    def test_busy_plus_waits_accounts_for_makespan(self, waits_run):
        """Acceptance: per-PE busy + wait spans cover >= 99% of the
        simulated time (they tile it exactly)."""
        _, result = waits_run
        profile = Profile.from_stats(result.stats)
        for pe in range(profile.num_pes):
            frac = accounted_fraction(profile, pe)
            assert frac >= 0.99
            assert frac == pytest.approx(1.0, abs=1e-6)

    def test_pe_wait_intervals_tile_the_gaps(self, waits_run):
        _, result = waits_run
        stats = result.stats
        finish = stats.finish_time_us
        for pe in range(stats.num_pes):
            intervals = pe_wait_intervals(stats.log, pe, finish)
            prev = 0.0
            for s, e, cat in intervals:
                assert e > s
                assert s >= prev - 1e-9
                assert cat in WAIT_CATEGORIES or cat == IDLE
                prev = e
            covered = sum(e - s for s, e, _ in intervals)
            busy = Profile.from_stats(stats).busy_us[pe]
            assert covered + busy == pytest.approx(finish, rel=1e-9)

    def test_breakdown_matches_intervals(self, waits_run):
        _, result = waits_run
        stats = result.stats
        rows = pe_wait_breakdown(stats.log, stats.finish_time_us)
        assert len(rows) == stats.num_pes
        for pe, row in enumerate(rows):
            intervals = pe_wait_intervals(stats.log, pe,
                                          stats.finish_time_us)
            for cat in list(row):
                ref = sum(e - s for s, e, c in intervals if c == cat)
                assert row[cat] == pytest.approx(ref, rel=1e-9)

    def test_critical_path_equals_makespan(self, waits_run):
        """Acceptance: the critical path's total length equals the run's
        makespan within 1% (it equals it exactly)."""
        _, result = waits_run
        makespan = result.stats.finish_time_us
        path = critical_path(result.stats.waits, makespan)
        assert path.total_us == pytest.approx(makespan, rel=0.01)
        assert path.total_us == pytest.approx(makespan, rel=1e-6)
        # The steps tile [0, makespan] back to front.
        assert path.steps[0].start == pytest.approx(0.0, abs=1e-9)
        assert path.steps[-1].end == pytest.approx(makespan, rel=1e-9)
        for a, b in zip(path.steps, path.steps[1:]):
            assert b.start == pytest.approx(a.end, rel=1e-9, abs=1e-9)

    def test_critical_path_fully_attributed(self, waits_run):
        _, result = waits_run
        path = critical_path(result.stats.waits,
                             result.stats.finish_time_us)
        contrib = path.contributions()
        assert contrib.get("unattributed", 0.0) == pytest.approx(0.0)
        assert sum(contrib.values()) == pytest.approx(path.total_us,
                                                      rel=1e-9)
        assert contrib.get(RUN, 0.0) > 0.0

    def test_what_if_estimates_are_sane(self, waits_run):
        _, result = waits_run
        path = critical_path(result.stats.waits,
                             result.stats.finish_time_us)
        for cat, predicted, speedup in path.what_if():
            assert cat in WAIT_CATEGORIES
            assert 0.0 < predicted <= path.total_us + 1e-9
            assert speedup >= 1.0 - 1e-9
            assert speedup == pytest.approx(path.total_us / predicted)

    def test_top_sps_named(self, waits_run):
        _, result = waits_run
        stats = result.stats
        path = critical_path(stats.waits, stats.finish_time_us)
        top = path.top_sps(3, sp_names(stats.waits))
        assert 0 < len(top) <= 3
        # Sorted by critical-path share, named after real frames.
        path_us = [us for _, us, _ in top]
        assert path_us == sorted(path_us, reverse=True)
        for label, us, share in top:
            assert label
            assert us > 0.0
            assert 0.0 < share <= 1.0

    def test_wait_metric_family_in_registry(self, waits_run):
        """metrics + waits => per-(pe, cause) wait.us gauges, the family
        the parallel backend's telemetry shares."""
        _, result = waits_run
        registry = result.stats.registry
        rows = registry.select("wait.us")
        assert rows
        for row in rows:
            labels = row.labels_dict()
            assert labels["cause"] in WAIT_CATEGORIES + (IDLE,)
            assert row.value >= 0.0

    def test_profile_render(self, waits_run):
        _, result = waits_run
        text = Profile.from_stats(result.stats).render(top=5)
        assert "blocked-time breakdown" in text
        assert "critical path" in text
        assert "what-if" in text
        for cat in WAIT_CATEGORIES:
            assert cat in text

    def test_profile_requires_waits(self, observed_run):
        _, result = observed_run       # metrics+timelines, no waits
        with pytest.raises(ValueError):
            Profile.from_stats(result.stats)


class TestOneBreakdown:
    def test_registry_record_and_profile_share_one_breakdown(
            self, monkeypatch):
        """The per-PE wait breakdown is derived once, when the run ends;
        the registry's ``wait.us`` rows, the run record's ``waits``
        section and ``pods profile`` all read that one derivation."""
        calls = []
        derive = critpath.pe_wait_breakdown

        def counted(*args):
            calls.append(args)
            return derive(*args)

        monkeypatch.setattr(critpath, "pe_wait_breakdown", counted)
        program = compile_source(FILL_AND_SUM)
        result = program.run((4,), backend="sim", config=SimConfig(
            machine=MachineConfig(num_pes=4),
            obs=ObsConfig(metrics=True, timelines=True, waits=True)))
        record = result.to_run_record(program, (4,))
        profile = Profile.from_stats(result.stats)
        assert len(calls) == 1

        breakdown = result.stats.wait_breakdown
        rows = [(pe, cat, us) for pe, per_cause in enumerate(breakdown)
                for cat, us in sorted(per_cause.items())]
        assert rows
        assert sorted((int(r.labels_dict()["pe"]), r.labels_dict()["cause"],
                       r.value)
                      for r in result.registry.select("wait.us")) == rows
        assert [(w["pe"], w["category"], w["us"])
                for w in record["waits"]] == rows
        assert profile.breakdown is breakdown


class TestOpenRunSegment:
    """An SP's run segment stays open across an EU yield and is closed
    at the yield only when something comes between yield and resume —
    recording what closing at every yield and reopening at every resume
    recorded."""

    @staticmethod
    def machine():
        # main (PE 0) replicates `worker` - 40 NOPs - on both PEs.
        worker = SPTemplate(block_id=1, name="worker", kind="loop",
                            code=[Instr(isa.NOP)] * 40 + [Instr(isa.END)],
                            num_slots=1, inputs=(0,))
        main = SPTemplate(block_id=0, name="main", kind="function", code=[
            Instr(isa.SPAWN, block=1, args=(const(0),), distributed=True),
            Instr(isa.SENDR, a=slot(0), b=const(1)),
            Instr(isa.END),
        ], num_slots=1, inputs=(0,))
        program = isa.PodsProgram({0: main, 1: worker}, entry_block=0,
                                  arity=0)
        return Machine(program, SimConfig(machine=MachineConfig(num_pes=2),
                                          obs=ObsConfig(waits=True)))

    @staticmethod
    def worker_runs(m):
        """The run segments of PE 1's worker."""
        rec, = [r for r in m.log.sps.values()
                if r.name == "worker" and r.pe == 1]
        return [(s, e) for s, e, kind, _ in rec.segments if kind == RUN]

    def interrupted(self, action):
        """A machine that calls ``action(m, pe)`` half-way through PE 1's
        worker, and what PE 1's EU was doing then: ``yielded`` (to that
        very call) and ``eu_time`` (the yield time)."""
        plain = self.machine()
        plain.run(())
        (start, end), = self.worker_runs(plain)
        m, seen = self.machine(), {}

        def probe():
            pe = m.pes[1]
            seen.update(yielded=pe.eu_scheduled, eu_time=pe.eu_time)
            action(m, pe)

        m.schedule((start + end) / 2, probe)
        return m, seen

    def test_resume_at_the_yield_instant_continues_the_run(self):
        m, seen = self.interrupted(lambda m, pe: None)
        m.run(())
        assert seen["yielded"]
        (start, end), = self.worker_runs(m)
        assert start < seen["eu_time"] < end

    def test_later_resume_keeps_two_runs_with_the_gap(self):
        def suspend(m, pe):
            pe.suspended_on = ("probe", 0)

            def resume():
                pe.suspended_on = None
                m._resume_eu(pe)

            m.schedule(m.now + 100.0, resume)

        m, seen = self.interrupted(suspend)
        m.run(())
        assert seen["yielded"]
        (_, first_end), (second_start, _) = self.worker_runs(m)
        assert first_end == seen["eu_time"]
        assert second_start > first_end

    def test_halt_after_a_yield_ends_the_run_at_the_yield(self):
        m, seen = self.interrupted(lambda m, pe: m._pe_halt(pe))
        with pytest.raises(PEHaltError):
            m.run(())
        assert seen["yielded"]
        (_, end), = self.worker_runs(m)
        assert end == seen["eu_time"]

    def test_blocking_read_suspension_closes_the_run_at_the_yield(self):
        """Split-phase reads off: the whole PE stalls on a remote read,
        and the running SP's run ends where its EU last yielded."""
        m = Machine(compile_matmul().pods, SimConfig(
            machine=MachineConfig(num_pes=4, split_phase_reads=False),
            obs=ObsConfig(waits=True)))
        log, stalling, stalls = m.log, {}, []
        stall_begin, stall_end = log.stall_begin, log.stall_end

        def begin(pid, t):
            pe = m.pes[pid]
            if pe.running is not None and pe.eu_scheduled:
                # The EU yielded to this read: (SP, yield time).
                stalling[pid] = (pe.running.uid, pe.eu_time)
            stall_begin(pid, t)

        def end(pid, t):
            if pid in stalling:
                stalls.append(stalling.pop(pid) + (t,))
            stall_end(pid, t)

        log.stall_begin, log.stall_end = begin, end
        m.run((6,))
        assert stalls
        for uid, yielded, resumed in stalls:
            assert resumed > yielded
            runs = [(s, e) for s, e, kind, _ in log.sps[uid].segments
                    if kind == RUN]
            assert any(e == yielded for _, e in runs)
            assert not any(s < resumed and e > yielded for s, e in runs)


class TestAttributeGap:
    """The windowed span scan finds exactly the edges the exhaustive one
    did, also where gap and span edges touch or sit ``_EPS``-close."""

    @pytest.mark.parametrize("seed", range(25))
    def test_windowed_scan_equals_exhaustive(self, seed):
        rng = random.Random(seed)
        nudges = (0.0, 0.0, _EPS / 2, -_EPS / 2, 2 * _EPS, -2 * _EPS)

        def point():
            # A coarse grid makes touching edges common; the nudges put
            # others within (and just beyond) _EPS of them.
            return rng.randrange(0, 60) + rng.choice(nudges)

        def interval():
            a = point()
            return a, a + rng.randrange(1, 9) + rng.choice(nudges)

        spans = _merge([interval() for _ in range(rng.randrange(1, 14))])
        edges = [edge for span in spans for edge in span]
        found = 0
        for _ in range(40):
            lo, hi = interval()
            if rng.random() < 0.5:
                lo = rng.choice(edges)  # a gap starting on a span edge
                hi = max(hi, lo + 1.0)
            got = _edges_inside(lo, hi, spans)
            assert sorted(got) == [e for e in edges if lo < e < hi]
            found += len(got)
        assert found


class TestZeroCostWhenOff:
    def test_waits_off_by_default(self, observed_run):
        _, result = observed_run
        assert result.stats.waits is None
