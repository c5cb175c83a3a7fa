"""OpenMetrics exposition: golden output from a hand-built registry,
determinism, escaping, and live-vs-stored agreement."""

from __future__ import annotations

from repro.obs.export import openmetrics_from_rows
from repro.obs.registry import MetricsRegistry

from tests.obs.conftest import run_observed


def small_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.inc("instructions", 40, pe="0")
    reg.inc("instructions", 2, pe="1")
    reg.inc("rf.subrange", 4)
    reg.set_gauge("finish_time_us", 1234.5)
    reg.observe("match_wait_us", 0.5, pe="0")
    reg.observe("match_wait_us", 3.0, pe="0")
    return reg


GOLDEN = """\
# TYPE pods_instructions counter
pods_instructions_total{pe="0"} 40
pods_instructions_total{pe="1"} 2
# TYPE pods_rf_subrange counter
pods_rf_subrange_total 4
# TYPE pods_finish_time_us gauge
pods_finish_time_us 1234.5
# TYPE pods_match_wait_us histogram"""


class TestGolden:
    def test_small_registry_exposition(self):
        text = small_registry().to_openmetrics()
        lines = text.split("\n")
        assert text.startswith(GOLDEN)
        assert lines[-1] == "# EOF"
        # The two observations (0.5 and 3.0) land in the right
        # cumulative buckets: le=0.5 sees one, le=5 onwards see both.
        assert 'pods_match_wait_us_bucket{pe="0",le="0.5"} 1' in lines
        assert 'pods_match_wait_us_bucket{pe="0",le="2"} 1' in lines
        assert 'pods_match_wait_us_bucket{pe="0",le="5"} 2' in lines
        assert 'pods_match_wait_us_bucket{pe="0",le="+Inf"} 2' in lines
        assert 'pods_match_wait_us_count{pe="0"} 2' in lines
        assert 'pods_match_wait_us_sum{pe="0"} 3.5' in lines

    def test_type_line_emitted_once_per_family(self):
        text = small_registry().to_openmetrics()
        assert text.count("# TYPE pods_instructions counter") == 1
        assert text.count("# EOF") == 1

    def test_deterministic(self):
        assert small_registry().to_openmetrics() == \
            small_registry().to_openmetrics()
        # Insertion order must not leak into the page.
        reg = MetricsRegistry()
        reg.inc("instructions", 2, pe="1")
        reg.set_gauge("finish_time_us", 1234.5)
        reg.observe("match_wait_us", 3.0, pe="0")
        reg.observe("match_wait_us", 0.5, pe="0")
        reg.inc("rf.subrange", 4)
        reg.inc("instructions", 40, pe="0")
        assert reg.to_openmetrics() == small_registry().to_openmetrics()

    def test_prefix_and_name_sanitizing(self):
        reg = MetricsRegistry()
        reg.inc("rf.sub-range", 1)
        assert "custom_rf_sub_range_total 1" in \
            reg.to_openmetrics(prefix="custom")

    def test_label_escaping(self):
        reg = MetricsRegistry()
        reg.set_gauge("g", 1.0, detail='say "hi"\nback\\slash')
        text = reg.to_openmetrics()
        assert 'detail="say \\"hi\\"\\nback\\\\slash"' in text


class TestStoredRows:
    def rows(self, reg: MetricsRegistry) -> list[dict]:
        return [{"kind": r.kind, "name": r.name,
                 "labels": dict(r.labels), "value": r.value}
                for r in reg.rows()]

    def test_counters_and_gauges_match_live(self):
        reg = small_registry()
        live = [ln for ln in reg.to_openmetrics().split("\n")
                if "_bucket" not in ln and "histogram" not in ln
                and "_count" not in ln and "_sum" not in ln]
        stored = [ln for ln in openmetrics_from_rows(self.rows(reg))
                  .split("\n")
                  if "histogram" not in ln and "_count" not in ln
                  and "_sum" not in ln]
        assert live == stored

    def test_histogram_summary_from_stored_rows(self):
        text = openmetrics_from_rows(self.rows(small_registry()))
        assert 'pods_match_wait_us_count{pe="0"} 2' in text
        assert 'pods_match_wait_us_sum{pe="0"} 3.5' in text
        assert "_bucket" not in text
        assert text.endswith("# EOF")

    def test_record_rows_round_trip(self):
        """A record's metrics section re-exposes every non-bucket sample
        of the live page."""
        _, result = run_observed()
        reg = result.stats.registry
        live = set(reg.to_openmetrics().split("\n"))
        stored = openmetrics_from_rows(self.rows(reg)).split("\n")
        for line in stored:
            if line.startswith("# TYPE") or line == "# EOF":
                continue
            assert line in live, line


class TestLiveRun:
    def test_observed_run_exposes_core_series(self):
        _, result = run_observed()
        text = result.stats.registry.to_openmetrics()
        assert text.endswith("# EOF")
        assert 'pods_sim_instructions_total{pe="0"}' in text
        lines = text.split("\n")
        assert len(lines) == len(set(lines)), "duplicate exposition lines"
