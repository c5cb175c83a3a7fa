"""Run records: schema validation, capture from live backends, diff
gating, and determinism."""

from __future__ import annotations

import json

import pytest

from repro.api import compile_source
from repro.apps.matmul import compile_matmul
from repro.backend import config_fingerprint, get_backend
from repro.common.config import MachineConfig, ObsConfig, SimConfig
from repro.obs import runrecord

from tests.obs.conftest import FILL_AND_SUM

FULL_OBS = ObsConfig(metrics=True, timelines=True, waits=True)


def observed_result(pes: int = 2):
    program = compile_source(FILL_AND_SUM)
    config = SimConfig(machine=MachineConfig(num_pes=pes), obs=FULL_OBS)
    result = program.run((3,), backend="sim", config=config)
    return program, result


class TestBuild:
    def test_record_is_valid_and_complete(self):
        program, result = observed_result()
        doc = result.to_run_record(program=program, args=(3,))
        assert runrecord.validate(doc) == []
        assert doc["schema"] == runrecord.SCHEMA
        assert doc["program"]["name"] == "main"
        assert len(doc["program"]["source_sha256"]) == 64
        assert doc["config"]["backend"] == "sim"
        assert doc["config"]["parallelism"] == 2
        assert doc["config"]["machine.num_pes"] == 2
        assert doc["result"]["value"] == 36
        assert doc["result"]["time_us"] == result.time_us
        assert doc["result"]["wall_time_s"] is None
        assert doc["metrics"], "metrics registry must be captured"
        assert doc["waits"], "wait attribution must be captured"
        assert doc["critpath"]["total_us"] == pytest.approx(result.time_us)

    def test_fingerprint_attached_by_backend_run(self):
        _, result = observed_result()
        assert result.fingerprint["backend"] == "sim"
        assert result.fingerprint["config_type"] == "SimConfig"
        assert result.fingerprint["obs.metrics"] is True

    def test_unobserved_run_yields_minimal_record(self):
        program = compile_source(FILL_AND_SUM)
        result = program.run((3,), backend="sim", parallelism=2)
        doc = result.to_run_record(program=program, args=(3,))
        assert runrecord.validate(doc) == []
        assert "metrics" not in doc
        assert "waits" not in doc
        assert "critpath" not in doc

    def test_seq_backend_record(self):
        program = compile_source(FILL_AND_SUM)
        result = get_backend("seq").run(program, (3,))
        doc = result.to_run_record(program=program, args=(3,))
        assert runrecord.validate(doc) == []
        assert doc["config"]["backend"] == "seq"

    def test_fingerprint_flattens_nested_dataclasses(self):
        fp = config_fingerprint("sim", 4, SimConfig(
            machine=MachineConfig(num_pes=4, page_size=16)))
        assert fp["machine.page_size"] == 16
        assert fp["obs.trace_mode"] == "drop"
        assert all(isinstance(v, (int, float, str, bool, type(None)))
                   for v in fp.values())


class TestNetSection:
    """The reliable layer's counters are recorded when the run met a
    fault — on every backend that has a network, from the one list
    ``NetStats`` owns."""

    def test_a_dist_run_under_faults_records_its_network_plane(self):
        # n = 12 is one run of each node's rows: the first data frames
        # are the whole exchange, so those are the ones dropped.
        program = compile_matmul()
        result = program.run((12,), backend="dist", parallelism=2,
                             faults="drop:kind=data,count=2")
        assert result.netstats.dropped >= 2
        assert result.netstats.retransmits >= 1
        doc = result.to_run_record(program=program, args=(12,))
        assert doc["net"] == result.netstats.counters()
        assert set(doc["net"]) == {
            "sent", "retransmits", "dropped", "duplicated", "delayed",
            "dup_discarded", "acks_sent", "halt_lost", "auth_rejected"}
        # ... and only then.
        clean = program.run((12,), backend="dist", parallelism=2)
        assert clean.netstats.sent > 0
        assert "net" not in clean.to_run_record(program=program, args=(12,))

    def test_the_sim_section_is_what_it_always_was(self):
        program = compile_matmul()
        result = program.run((12,), backend="sim", parallelism=2,
                             faults="drop:after=2,count=2")
        doc = result.to_run_record(program=program, args=(12,))
        assert runrecord.canonical_json(doc["net"]) == (
            '{"acks_sent":79,"auth_rejected":0,"delayed":0,"dropped":2,'
            '"dup_discarded":0,"duplicated":0,"halt_lost":0,'
            '"retransmits":2,"sent":79}')
        clean = program.run((12,), backend="sim", parallelism=2)
        assert "net" not in clean.to_run_record(program=program, args=(12,))


class TestValidate:
    def base(self) -> dict:
        return {
            "schema": runrecord.SCHEMA,
            "program": {"name": "main"},
            "args": [3],
            "config": {"backend": "sim", "parallelism": 2},
            "result": {"value": 1, "time_us": 10.0, "wall_time_s": None},
        }

    def test_minimal_ok(self):
        assert runrecord.validate(self.base()) == []

    def test_bad_schema(self):
        doc = self.base()
        doc["schema"] = "pods-run/v0"
        assert any("schema" in p for p in runrecord.validate(doc))

    def test_bool_parallelism_rejected(self):
        doc = self.base()
        doc["config"]["parallelism"] = True
        assert any("parallelism" in p for p in runrecord.validate(doc))

    def test_nan_time_rejected(self):
        doc = self.base()
        doc["result"]["time_us"] = float("nan")
        assert any("time_us" in p for p in runrecord.validate(doc))

    def test_duplicate_metric_rows_rejected(self):
        doc = self.base()
        row = {"kind": "counter", "name": "x", "labels": {"pe": "0"},
               "value": 1}
        doc["metrics"] = [row, dict(row)]
        assert any("duplicate" in p for p in runrecord.validate(doc))

    def test_nonscalar_config_rejected(self):
        doc = self.base()
        doc["config"]["machine"] = {"num_pes": 2}
        assert any("scalar" in p for p in runrecord.validate(doc))


class TestIds:
    def test_id_ignores_wall_time(self):
        program, result = observed_result()
        doc = result.to_run_record(program=program, args=(3,))
        other = json.loads(runrecord.canonical_json(doc))
        other["result"]["wall_time_s"] = 123.456
        assert runrecord.record_id(doc) == runrecord.record_id(other)

    def test_id_sees_value_change(self):
        program, result = observed_result()
        doc = result.to_run_record(program=program, args=(3,))
        other = json.loads(runrecord.canonical_json(doc))
        other["result"]["value"] = 999
        assert runrecord.record_id(doc) != runrecord.record_id(other)


class TestDiff:
    def test_self_diff_is_empty(self):
        program, result = observed_result()
        doc = result.to_run_record(program=program, args=(3,))
        d = runrecord.diff(doc, doc)
        assert d.ok and d.empty
        assert "no differences" in d.render()

    def test_identical_config_reruns_diff_empty(self):
        _, a = observed_result()
        _, b = observed_result()
        d = runrecord.diff(a.to_run_record(args=(3,)),
                           b.to_run_record(args=(3,)))
        assert d.ok and d.empty

    def test_value_change_is_regression(self):
        program, result = observed_result()
        doc = result.to_run_record(program=program, args=(3,))
        bad = json.loads(runrecord.canonical_json(doc))
        bad["result"]["value"] = 999
        d = runrecord.diff(doc, bad)
        assert not d.ok
        assert any("value" in r for r in d.regressions)

    def test_slower_time_is_regression_faster_is_improvement(self):
        program, result = observed_result()
        doc = result.to_run_record(program=program, args=(3,))
        slow = json.loads(runrecord.canonical_json(doc))
        slow["result"]["time_us"] = doc["result"]["time_us"] * 1.5
        assert not runrecord.diff(doc, slow).ok
        assert runrecord.diff(slow, doc).improvements

    def test_config_change_downgrades_to_notes(self):
        program, a = observed_result(pes=2)
        config = SimConfig(machine=MachineConfig(num_pes=4), obs=FULL_OBS)
        b = program.run((3,), backend="sim", config=config)
        d = runrecord.diff(a.to_run_record(program=program, args=(3,)),
                           b.to_run_record(program=program, args=(3,)))
        assert d.ok, d.regressions
        assert any("config changed" in n for n in d.notes)

    def test_wall_time_never_gates(self):
        program, result = observed_result()
        doc = result.to_run_record(program=program, args=(3,))
        a = json.loads(runrecord.canonical_json(doc))
        b = json.loads(runrecord.canonical_json(doc))
        a["result"]["wall_time_s"] = 1.0
        b["result"]["wall_time_s"] = 10.0
        d = runrecord.diff(a, b)
        assert d.ok
        assert any("host-dependent" in n for n in d.notes)

    def test_metric_row_changes_are_notes(self):
        program, result = observed_result()
        doc = result.to_run_record(program=program, args=(3,))
        other = json.loads(runrecord.canonical_json(doc))
        other["metrics"][0]["value"] = 10_000
        d = runrecord.diff(doc, other)
        assert d.ok
        assert any("metric " in n for n in d.notes)


class TestSemanticDiff:
    """``diff(semantic=True)``: the checkpoint/resume parity gate."""

    def _pair(self, pes_a=2, pes_b=2):
        program, a = observed_result(pes=pes_a)
        config = SimConfig(machine=MachineConfig(num_pes=pes_b),
                           obs=FULL_OBS)
        b = program.run((3,), backend="sim", config=config)
        return (a.to_run_record(program=program, args=(3,)),
                b.to_run_record(program=program, args=(3,)))

    def test_same_width_rerun_gates_clean(self):
        a, b = self._pair()
        d = runrecord.diff(a, b, semantic=True)
        assert d.ok, d.regressions
        assert any("semantic" in n for n in d.notes)

    def test_value_gates_even_across_config_change(self):
        # Without semantic=True a value change under a config change is
        # merely a note; the semantic gate hardens it to a regression.
        a, b = self._pair(pes_a=2, pes_b=4)
        bad = json.loads(runrecord.canonical_json(b))
        bad["result"]["value"] = 999
        assert runrecord.diff(a, bad).ok
        d = runrecord.diff(a, bad, semantic=True)
        assert not d.ok
        assert any("value" in r for r in d.regressions)

    def test_family_total_change_is_regression(self):
        a, b = self._pair()
        bad = json.loads(runrecord.canonical_json(b))
        for row in bad["metrics"]:
            if row["name"] == "array.element_writes":
                row["value"] += 1
        d = runrecord.diff(a, bad, semantic=True)
        assert not d.ok
        assert any("array.element_writes" in r for r in d.regressions)

    def test_width_scaled_family_is_informational_across_widths(self):
        # rf.subrange counts per-identity activations, which scale with
        # the partition width: exact at equal width, a note otherwise.
        a, b = self._pair(pes_a=2, pes_b=4)
        d = runrecord.diff(a, b, semantic=True)
        assert d.ok, d.regressions
        assert any("rf.subrange" in n and "width" in n for n in d.notes)

    def test_missing_metrics_side_is_regression(self):
        a, b = self._pair()
        bare = json.loads(runrecord.canonical_json(b))
        del bare["metrics"]
        d = runrecord.diff(a, bare, semantic=True)
        assert not d.ok


class TestDeterminism:
    def test_record_bytes_stable_across_runs(self):
        program, a = observed_result()
        _, b = observed_result()
        assert runrecord.canonical_json(
            a.to_run_record(program=program, args=(3,))) == \
            runrecord.canonical_json(
                b.to_run_record(program=program, args=(3,)))


class TestRender:
    def test_render_shows_the_shared_wait_table(self):
        program, result = observed_result()
        doc = result.to_run_record(program=program, args=(3,))
        text = runrecord.render_record(doc)
        assert "blocked causes (us per PE):" in text
        assert "critical path:" in text
        assert "what-if" in text
        assert "backend: sim x 2" in text
