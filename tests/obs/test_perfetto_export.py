"""Tests for the Perfetto/Chrome trace_event exporter."""

from __future__ import annotations

import json

from repro.obs import critpath
from repro.obs.export import SP_TRACK, filter_events, perfetto_json, \
    perfetto_trace, validate_trace_events
from repro.obs.spanlog import Instant, busy
from repro.sim.stats import UNITS

from tests.obs.conftest import run_observed


class TestExportedTrace:
    def test_validates_clean(self, observed_run):
        machine, result = observed_run
        trace = perfetto_trace(machine.log)
        assert validate_trace_events(trace) == []

    def test_track_metadata_per_pe_and_unit(self, observed_run):
        machine, result = observed_run
        trace = perfetto_trace(machine.log)
        names = {(e["pid"], e["tid"]): e["args"]["name"]
                 for e in trace["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        for pe in (0, 1):
            for tid, unit in enumerate(UNITS):
                assert names[(pe, tid)] == f"PE{pe} {unit}"
            assert names[(pe, SP_TRACK)] == f"PE{pe} SP"

    def test_sp_lifecycle_spans_and_flows_balanced(self, observed_run):
        machine, result = observed_run
        trace = perfetto_trace(machine.log)
        by_ph: dict[str, list] = {}
        for e in trace["traceEvents"]:
            by_ph.setdefault(e["ph"], []).append(e)
        # every async SP span opens and closes; every flow start finishes
        assert len(by_ph["b"]) == len(by_ph["e"]) > 0
        assert len(by_ph["s"]) == len(by_ph["f"]) > 0
        assert {e["id"] for e in by_ph["s"]} == {e["id"] for e in by_ph["f"]}

    def test_unit_spans_cover_busy_time(self, observed_run):
        machine, result = observed_run
        trace = perfetto_trace(machine.log)
        x_total = sum(e["dur"] for e in trace["traceEvents"]
                      if e["ph"] == "X" and e["name"] == "EU")
        assert x_total > 0
        derived = busy(result.stats.log, "EU")
        assert abs(x_total - derived) < 1e-6

    def test_byte_identical_and_parseable(self, observed_run):
        machine, result = observed_run
        a = perfetto_json(result.stats.log)
        b = perfetto_json(result.stats.log)
        assert a == b
        assert validate_trace_events(json.loads(a)) == []

    def test_pe_and_since_filters(self, observed_run):
        machine, result = observed_run
        trace = perfetto_trace(machine.log, pe=1, since_us=10.0)
        assert validate_trace_events(trace) == []
        for e in trace["traceEvents"]:
            assert e["pid"] == 1
            if e["ph"] not in ("M", "X"):
                assert e["ts"] >= 10.0

    def test_wait_tracks_walk_the_sp_lanes_once(self, waits_run,
                                                monkeypatch):
        # Every PE's WAIT track comes from one pass over every SP's
        # segments, not one pass per PE.
        machine, result = waits_run
        calls = []
        walk = critpath.wait_spans_by_pe

        def counted(log):
            calls.append(log)
            return walk(log)

        monkeypatch.setattr(critpath, "wait_spans_by_pe", counted)
        trace = perfetto_trace(machine.log, result.stats.finish_time_us)
        assert len(calls) == 1
        assert any(e.get("cat") == "wait" for e in trace["traceEvents"])
        assert {e["pid"] for e in trace["traceEvents"]
                if e.get("cat") == "wait"} == {0, 1, 2, 3}


class TestFilterEvents:
    EVENTS = [
        Instant(1.0, 0, "block", "a"),
        Instant(2.0, 1, "block", "b"),
        Instant(3.0, 0, "message", "c"),
    ]

    def test_by_pe(self):
        assert [e.detail for e in filter_events(self.EVENTS, pe=0)] \
            == ["a", "c"]

    def test_by_since(self):
        assert [e.detail for e in filter_events(self.EVENTS, since_us=2.0)] \
            == ["b", "c"]

    def test_by_kind(self):
        assert [e.detail for e in filter_events(self.EVENTS, kind="message")] \
            == ["c"]


class TestValidator:
    def test_rejects_non_trace(self):
        assert validate_trace_events([]) != []
        assert validate_trace_events({"foo": 1}) != []

    def test_rejects_bad_events(self):
        bad = {"traceEvents": [
            {"ph": "X", "pid": 0, "tid": 0, "name": "x", "ts": 1.0},
            {"ph": "f", "bp": "e", "pid": 0, "tid": 0, "name": "y",
             "ts": 1.0, "cat": "sp-flow", "id": 9},
        ]}
        problems = validate_trace_events(bad)
        assert any("dur" in p for p in problems)
        assert any("without a start" in p for p in problems)
