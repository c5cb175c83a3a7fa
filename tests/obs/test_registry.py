"""Unit tests for the metrics registry (repro.obs.registry)."""

import json

import pytest

from repro.obs.registry import Histogram, MetricsRegistry
from tests.obs.conftest import to_csv


class TestCountersAndGauges:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.inc("tokens", pe=0)
        reg.inc("tokens", 4, pe=0)
        reg.inc("tokens", pe=1)
        assert reg.value("tokens", pe=0) == 5
        assert reg.value("tokens", pe=1) == 1
        assert reg.total("tokens") == 6

    def test_label_values_stringified(self):
        reg = MetricsRegistry()
        reg.inc("m", pe=0)
        reg.inc("m", pe="0")
        assert reg.value("m", pe=0) == 2

    def test_gauge_overwrites(self):
        reg = MetricsRegistry()
        reg.set_gauge("util", 0.25, unit="EU")
        reg.set_gauge("util", 0.5, unit="EU")
        assert reg.value("util", unit="EU") == 0.5

    def test_absent_metric_reads_zero(self):
        assert MetricsRegistry().value("nope", pe=3) == 0

    def test_select_filters_by_name(self):
        reg = MetricsRegistry()
        reg.inc("a", pe=0)
        reg.inc("a", pe=1)
        reg.inc("b")
        rows = reg.select("a")
        assert [dict(r.labels) for r in rows] == [{"pe": "0"}, {"pe": "1"}]


class TestHistogram:
    def test_summary_moments(self):
        hist = Histogram()
        for v in (1.0, 2.0, 6.0):
            hist.observe(v)
        s = hist.summary()
        assert s["count"] == 3
        assert s["sum"] == pytest.approx(9.0)
        assert s["min"] == 1.0
        assert s["max"] == 6.0
        assert s["mean"] == pytest.approx(3.0)

    def test_empty_summary_is_finite(self):
        s = Histogram().summary()
        assert s["count"] == 0 and s["min"] == 0.0 and s["max"] == 0.0

    def test_registry_observe(self):
        reg = MetricsRegistry()
        reg.observe("wait", 0.5, worker=0)
        reg.observe("wait", 1.5, worker=0)
        (row,) = reg.select("wait")
        assert row.kind == "histogram"
        assert row.value["count"] == 2


class TestMerge:
    def test_counters_add_gauges_overwrite_hists_accumulate(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("c", 2, pe=0)
        b.inc("c", 3, pe=0)
        a.set_gauge("g", 1.0)
        b.set_gauge("g", 9.0)
        a.observe("h", 1.0)
        b.observe("h", 3.0)
        a.merge(b)
        assert a.value("c", pe=0) == 5
        assert a.value("g") == 9.0
        (row,) = a.select("h")
        assert row.value["count"] == 2
        assert row.value["sum"] == pytest.approx(4.0)


class TestDumps:
    def _populated(self):
        reg = MetricsRegistry()
        reg.inc("z.counter", 7, pe=1, unit="EU")
        reg.inc("a.counter", 1)
        reg.set_gauge("m.gauge", 0.5, pe=0)
        reg.observe("h.hist", 2.0)
        return reg

    def test_rows_sorted_by_kind_name_labels(self):
        rows = self._populated().rows()
        keys = [(r.kind, r.name, r.labels) for r in rows]
        assert keys == sorted(keys)

    def test_jsonl_byte_stable_and_parseable(self):
        a, b = self._populated(), self._populated()
        assert a.to_jsonl() == b.to_jsonl()
        for line in a.to_jsonl().splitlines():
            obj = json.loads(line)
            assert set(obj) == {"kind", "name", "labels", "value"}

    def test_csv_header_and_labels(self):
        text = to_csv(self._populated())
        lines = text.splitlines()
        assert lines[0] == "kind,name,labels,value"
        assert any("pe=1;unit=EU" in line for line in lines)
