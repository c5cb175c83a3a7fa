"""Tests for the ``pods`` command line."""

import pytest

from repro.cli import main

PROGRAM = """
function main(n) {
    A = array(n);
    for i = 1 to n { A[i] = i * i; }
    s = 0;
    for i = 1 to n { next s = s + A[i]; }
    return s;
}
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.idl"
    path.write_text(PROGRAM)
    return str(path)


class TestRun:
    def test_run_sim(self, program_file, capsys):
        assert main(["run", program_file, "--args", "5", "--pes", "2"]) == 0
        out = capsys.readouterr().out
        assert "value: 55" in out
        assert "2 PEs" in out

    def test_run_with_stats(self, program_file, capsys):
        assert main(["run", program_file, "--args", "4", "--stats"]) == 0
        out = capsys.readouterr().out
        assert "utilization" in out

    def test_run_sequential(self, program_file, capsys):
        assert main(["run", program_file, "--backend", "sequential",
                     "--args", "5"]) == 0
        assert "value: 55" in capsys.readouterr().out

    def test_run_static(self, program_file, capsys):
        assert main(["run", program_file, "--backend", "static",
                     "--args", "5", "--pes", "3"]) == 0
        assert "value: 55" in capsys.readouterr().out

    def test_float_args_parsed(self, tmp_path, capsys):
        path = tmp_path / "f.idl"
        path.write_text("function main(x) { return x * 2.0; }")
        assert main(["run", str(path), "--args", "1.5"]) == 0
        assert "value: 3.0" in capsys.readouterr().out


class TestInspection:
    def test_listing(self, program_file, capsys):
        assert main(["listing", program_file]) == 0
        out = capsys.readouterr().out
        assert "SP 0 main" in out
        assert "RFRANGE" in out

    def test_graph_text(self, program_file, capsys):
        assert main(["graph", program_file]) == 0
        out = capsys.readouterr().out
        assert "function main" in out
        assert "LD+RF" in out

    def test_graph_dot(self, program_file, capsys):
        assert main(["graph", program_file, "--dot"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("digraph")

    def test_partition(self, program_file, capsys):
        assert main(["partition", program_file]) == 0
        out = capsys.readouterr().out
        assert "distribute (LD + RF)" in out
        assert "keep local (LCD)" in out


class TestSimple:
    def test_simple_subcommand(self, capsys):
        assert main(["simple", "--size", "8", "--steps", "1",
                     "--pes", "1,2"]) == 0
        out = capsys.readouterr().out
        assert "speed-up" in out
        assert out.count("PEs:") == 2

    def test_simple_deposits_gateable_records(self, tmp_path, capsys,
                                              monkeypatch):
        from repro.obs.store import RunStore

        monkeypatch.chdir(tmp_path)
        sweep = ["simple", "--size", "4", "--steps", "1", "--pes", "1,2"]

        # Without --record-dir it just prints.
        assert main(sweep) == 0
        table = capsys.readouterr().out
        assert [line.split()[0] for line in table.splitlines()] == ["1", "2"]
        assert "critical path" in table
        assert list(tmp_path.iterdir()) == []

        assert main(sweep + ["--record-dir", "ledger"]) == 0
        assert capsys.readouterr().out == table
        store = RunStore("ledger")
        entries = store.entries()
        assert [e.parallelism for e in entries] == [1, 2]
        for entry in entries:
            record = store.get(entry.id)          # re-validates + re-hashes
            assert record["args"] == [4, 1]
            assert record["critpath"]["total_us"] > 0
            assert main(["runs", "regress", "--baseline",
                         store.object_path(entry.id), "--store",
                         "ledger"]) == 0
            assert "no differences" in capsys.readouterr().out


class TestErrors:
    def test_missing_file(self, capsys):
        assert main(["run", "/nonexistent.idl"]) == 2
        assert "error" in capsys.readouterr().err

    def test_compile_error_reported(self, tmp_path, capsys):
        path = tmp_path / "bad.idl"
        path.write_text("function main() { return x; }")
        assert main(["run", str(path)]) == 1
        assert "undefined name" in capsys.readouterr().err

    def test_runtime_fault_reported(self, tmp_path, capsys):
        path = tmp_path / "fault.idl"
        path.write_text("""
        function main() {
            A = array(2);
            A[1] = 1;
            A[1] = 2;
            return A;
        }
        """)
        assert main(["run", str(path)]) == 1
        assert "single-assignment" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "trace", "profile"])
    def test_bad_fault_plan_is_one_line_not_a_traceback(
            self, command, program_file, capsys):
        assert main([command, program_file, "--args", "5", "--pes", "2",
                     "--faults", "bogus:x=1"]) == 1
        err = capsys.readouterr().err.strip()
        assert err.startswith("error[BackendConfigError/compile]: ")
        assert "bogus:x=1" in err and "\n" not in err


class TestTraceAndOptimize:
    def test_trace_subcommand(self, program_file, capsys):
        assert main(["trace", program_file, "--args", "5",
                     "--pes", "2", "--limit", "10"]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "frame-create" in out

    def test_trace_kind_filter(self, program_file, capsys):
        assert main(["trace", program_file, "--args", "5",
                     "--kind", "frame-create"]) == 0
        out = capsys.readouterr().out
        body = out.split("summary:")[1]
        assert "frame-create" in body
        assert "token-match" not in body.split("\n", 1)[1] or True

    def test_run_with_optimize(self, program_file, capsys):
        assert main(["run", program_file, "--args", "5", "--optimize"]) == 0
        assert "value: 55" in capsys.readouterr().out

    def test_trace_summary_has_blocked_causes(self, program_file, capsys):
        assert main(["trace", program_file, "--args", "5", "--pes", "2",
                     "--format", "summary"]) == 0
        out = capsys.readouterr().out
        assert "blocked causes (us per PE):" in out
        assert "token-wait" in out
        assert "still blocked" not in out

    def test_trace_summary_lists_reads_left_deferred(self, tmp_path, capsys):
        """An SP may end without using a value it asked for; if nothing
        ever writes the element, the run returns with that read still
        deferred — the one thing left blocked when a machine drains."""
        path = tmp_path / "dead_read.idl"
        path.write_text("function main() {\n    A = array(4);\n"
                        "    A[1] = 1;\n    x = A[3];\n    return A[1];\n}\n")
        assert main(["trace", str(path), "--pes", "2",
                     "--format", "summary"]) == 0
        out = capsys.readouterr().out
        assert "  still blocked at end of run:\n" \
               "    PE 0: array 1 has deferred reads at elements (3,)" in out


class TestProfile:
    def test_profile_subcommand(self, program_file, capsys):
        assert main(["profile", program_file, "--args", "5",
                     "--pes", "2", "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "value: 55" in out
        assert "blocked-time breakdown" in out
        assert "critical path" in out
        assert "what-if" in out

    def test_profile_writes_output_file(self, program_file, tmp_path,
                                        capsys):
        dest = tmp_path / "profile.txt"
        assert main(["profile", program_file, "--args", "5",
                     "-o", str(dest)]) == 0
        assert "critical path" in dest.read_text()

    def test_profile_parallel_backend(self, program_file, capsys):
        assert main(["profile", program_file, "--backend", "parallel",
                     "--args", "5", "--pes", "2"]) == 0
        out = capsys.readouterr().out
        assert "value: 55" in out
        assert "parallel run:" in out
        assert "sh-writes" in out
        assert "recovery" in out


class TestParallelBackend:
    def test_run_parallel(self, program_file, capsys):
        assert main(["run", program_file, "--backend", "parallel",
                     "--args", "5", "--pes", "2"]) == 0
        out = capsys.readouterr().out
        assert "value: 55" in out
        assert "2 workers" in out
        # No faults injected -> no recovery table in the output.
        assert "respawn" not in out

    def test_run_parallel_heals_and_reports(self, program_file, capsys):
        assert main(["run", program_file, "--backend", "parallel",
                     "--args", "5", "--pes", "2", "--retries", "2",
                     "--faults", "kill:worker=1,on=iter,after=1"]) == 0
        out = capsys.readouterr().out
        assert "value: 55" in out
        assert "respawn" in out
        assert "respawns=1" in out

    def test_run_parallel_no_recovery_fails_fast(self, program_file,
                                                 capsys):
        assert main(["run", program_file, "--backend", "parallel",
                     "--args", "5", "--pes", "2", "--no-recovery",
                     "--faults", "kill:worker=1,on=iter,after=1"]) == 1
        err = capsys.readouterr().err
        assert "crash" in err

    def test_run_parallel_trace_json(self, program_file, tmp_path, capsys):
        import json

        from repro.obs.export import validate_trace_events

        dest = tmp_path / "trace.json"
        assert main(["run", program_file, "--backend", "parallel",
                     "--args", "5", "--pes", "2",
                     "--trace-json", str(dest)]) == 0
        trace = json.loads(dest.read_text())
        assert validate_trace_events(trace) == []
        names = {e["name"] for e in trace["traceEvents"]}
        assert "exec" in names


class TestDistBackend:
    def test_run_dist(self, program_file, capsys):
        assert main(["run", program_file, "--backend", "dist",
                     "--args", "5", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "value: 55" in out
        # --nodes must win over the default --pes of 1.
        assert "2 nodes" in out

    def test_distributed_alias_and_pes_fallback(self, program_file,
                                                capsys):
        assert main(["run", program_file, "--backend", "distributed",
                     "--args", "5", "--pes", "2"]) == 0
        out = capsys.readouterr().out
        assert "value: 55" in out
        assert "2 nodes" in out

    def test_run_dist_heals_and_reports(self, program_file, capsys):
        assert main(["run", program_file, "--backend", "dist",
                     "--args", "5", "--nodes", "3",
                     "--faults", "node-kill:node=1,on=iter,after=1"]) == 0
        out = capsys.readouterr().out
        assert "value: 55" in out
        assert "takeover" in out

    def test_run_dist_no_recovery_fails_fast(self, program_file, capsys):
        assert main(["run", program_file, "--backend", "dist",
                     "--args", "5", "--nodes", "2", "--no-recovery",
                     "--faults", "node-kill:node=1,on=iter,after=1"]) == 1
        err = capsys.readouterr().err
        assert "error[NodeLossError/node-loss]" in err


class TestFormat:
    def test_format_round_trips(self, program_file, capsys):
        assert main(["format", program_file]) == 0
        printed = capsys.readouterr().out
        from repro.lang.parser import parse
        from repro.lang.pprint import ast_fingerprint

        original = parse(PROGRAM)
        assert ast_fingerprint(parse(printed)) == ast_fingerprint(original)


class TestRunLedger:
    """The ``--record`` flag and the ``pods runs`` family."""

    @pytest.fixture
    def ledger(self, tmp_path):
        return str(tmp_path / "ledger")

    def record_run(self, program_file, ledger, pes="2", args="5"):
        return main(["run", program_file, "--args", args, "--pes", pes,
                     "--record", "--runs-dir", ledger])

    def test_record_and_list(self, program_file, ledger, capsys):
        assert self.record_run(program_file, ledger) == 0
        out = capsys.readouterr().out
        assert "recorded " in out
        assert main(["runs", "list", "--store", ledger]) == 0
        out = capsys.readouterr().out
        assert "main" in out and "sim" in out
        assert main(["runs", "list", "--store", ledger,
                     "--backend", "parallel"]) == 0
        assert "(no run records" in capsys.readouterr().out

    def test_show_latest_and_openmetrics(self, program_file, ledger,
                                         capsys):
        assert self.record_run(program_file, ledger) == 0
        capsys.readouterr()
        assert main(["runs", "show", "latest", "--store", ledger]) == 0
        out = capsys.readouterr().out
        assert "backend: sim x 2" in out
        assert "blocked causes (us per PE):" in out
        assert "critical path:" in out
        assert main(["runs", "show", "latest", "--store", ledger,
                     "--openmetrics"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE pods_sim_instructions counter" in out
        assert out.strip().endswith("# EOF")

    def test_diff_identical_runs_is_empty(self, program_file, ledger,
                                          capsys):
        assert self.record_run(program_file, ledger) == 0
        assert self.record_run(program_file, ledger) == 0
        capsys.readouterr()
        assert main(["runs", "diff", "latest", "latest",
                     "--store", ledger]) == 0
        assert "no differences" in capsys.readouterr().out

    def test_diff_config_change_is_notes_only(self, program_file, ledger,
                                              capsys):
        assert self.record_run(program_file, ledger, pes="1") == 0
        assert self.record_run(program_file, ledger, pes="2") == 0
        capsys.readouterr()
        ids = [e.id for e in self._entries(ledger)]
        assert main(["runs", "diff", ids[0], ids[1],
                     "--store", ledger]) == 0
        out = capsys.readouterr().out
        assert "config changed" in out
        assert "REGRESSION" not in out

    def test_diff_regression_exits_one_with_taxonomy_line(
            self, program_file, ledger, tmp_path, capsys):
        import json

        from repro.obs import runrecord

        assert self.record_run(program_file, ledger) == 0
        capsys.readouterr()
        store = self._store(ledger)
        doc = store.get("latest")
        doctored = json.loads(runrecord.canonical_json(doc))
        doctored["result"]["value"] = -1
        bad = tmp_path / "bad.json"
        bad.write_text(runrecord.canonical_json(doctored) + "\n")

        assert main(["runs", "diff", "latest", str(bad),
                     "--store", ledger]) == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "error[RunRegressionError/regression]" in captured.err
        # --report-only keeps the findings but drops the gate.
        assert main(["runs", "diff", "latest", str(bad),
                     "--store", ledger, "--report-only"]) == 0

    def test_regress_against_committed_baseline(self, program_file,
                                                ledger, tmp_path, capsys):
        from repro.obs import runrecord

        assert self.record_run(program_file, ledger) == 0
        capsys.readouterr()
        store = self._store(ledger)
        baseline = tmp_path / "baseline.json"
        baseline.write_text(
            runrecord.canonical_json(store.get("latest")) + "\n")

        assert main(["runs", "regress", "--baseline", str(baseline),
                     "--store", ledger]) == 0
        assert "regress: ok" in capsys.readouterr().out

    def test_regress_against_stale_baseline_fails(
            self, program_file, ledger, tmp_path, capsys):
        """A baseline recorded under a different config gates nothing
        (diff() reports across configs, it does not judge), so regress
        must refuse it rather than print ``regress: ok``."""
        import json

        from repro.obs import runrecord

        assert self.record_run(program_file, ledger) == 0
        capsys.readouterr()
        doc = json.loads(runrecord.canonical_json(
            self._store(ledger).get("latest")))
        doc["config"]["retired_knob"] = True  # a key dropped since
        doc["result"]["value"] = -1           # a wrong answer behind it
        baseline = tmp_path / "baseline.json"
        baseline.write_text(runrecord.canonical_json(doc) + "\n")

        assert main(["runs", "regress", "--baseline", str(baseline),
                     "--store", ledger]) == 1
        captured = capsys.readouterr()
        assert "regress: ok" not in captured.out
        assert "error[RunRegressionError/regression]" in captured.err
        assert "retired_knob" in captured.err
        assert "regenerate" in captured.err
        assert main(["runs", "regress", "--baseline", str(baseline),
                     "--store", ledger, "--report-only"]) == 0

    def test_regress_across_an_args_change_fails(
            self, program_file, ledger, tmp_path, capsys):
        """Same program, same config, other arguments: not the run the
        baseline describes, so nothing about it can pass the gate."""
        from repro.obs import runrecord

        assert self.record_run(program_file, ledger) == 0
        baseline = tmp_path / "baseline.json"
        baseline.write_text(runrecord.canonical_json(
            self._store(ledger).get("latest")) + "\n")
        assert self.record_run(program_file, ledger, args="6") == 0
        capsys.readouterr()

        assert main(["runs", "regress", "--baseline", str(baseline),
                     "--store", ledger, "--record", "latest"]) == 1
        captured = capsys.readouterr()
        assert "regress: ok" not in captured.out
        assert "error[RunRegressionError/regression]" in captured.err
        assert "args changed: [5] -> [6]" in captured.err
        assert main(["runs", "regress", "--baseline", str(baseline),
                     "--store", ledger, "--record", "latest",
                     "--report-only"]) == 0
        capsys.readouterr()
        # The default selection skips the newer run on other arguments.
        assert main(["runs", "regress", "--baseline", str(baseline),
                     "--store", ledger]) == 0
        assert "no differences" in capsys.readouterr().out

    def test_regress_across_a_program_change_fails(
            self, program_file, ledger, tmp_path, capsys):
        """Every program's record name is ``main``; only the content
        hash tells two programs apart."""
        from repro.obs import runrecord

        assert self.record_run(program_file, ledger) == 0
        baseline = tmp_path / "baseline.json"
        baseline.write_text(runrecord.canonical_json(
            self._store(ledger).get("latest")) + "\n")
        other = tmp_path / "other.idl"
        other.write_text(PROGRAM.replace("i * i", "i"))
        other_ledger = str(tmp_path / "other-ledger")
        assert self.record_run(str(other), other_ledger) == 0
        capsys.readouterr()

        assert main(["runs", "regress", "--baseline", str(baseline),
                     "--store", other_ledger, "--record", "latest"]) == 1
        captured = capsys.readouterr()
        assert "regress: ok" not in captured.out
        assert "error[RunRegressionError/regression]" in captured.err
        assert "program changed: 'main'" in captured.err
        # Nothing in that ledger is a run of the baseline's program.
        assert main(["runs", "regress", "--baseline", str(baseline),
                     "--store", other_ledger]) == 1
        err = capsys.readouterr().err
        assert "no stored run matches" in err
        assert "args [5]" in err

    def test_regress_without_matching_run_is_structured_error(
            self, program_file, ledger, tmp_path, capsys):
        from repro.obs import runrecord

        assert self.record_run(program_file, ledger) == 0
        capsys.readouterr()
        store = self._store(ledger)
        import json

        doc = json.loads(runrecord.canonical_json(store.get("latest")))
        doc["config"]["parallelism"] = 16   # nothing stored matches
        baseline = tmp_path / "baseline.json"
        baseline.write_text(runrecord.canonical_json(doc) + "\n")
        assert main(["runs", "regress", "--baseline", str(baseline),
                     "--store", ledger]) == 1
        assert "no stored run matches" in capsys.readouterr().err

    def test_metrics_out_writes_exposition(self, program_file, tmp_path,
                                           capsys):
        dest = tmp_path / "metrics.prom"
        assert main(["run", program_file, "--args", "5", "--pes", "2",
                     "--metrics-out", str(dest)]) == 0
        text = dest.read_text()
        assert text.startswith("# TYPE ")
        assert text.endswith("# EOF\n")
        assert 'pods_sim_instructions_total{pe="0"}' in text

    def test_record_parallel_backend(self, program_file, ledger, capsys):
        assert main(["run", program_file, "--backend", "parallel",
                     "--args", "5", "--pes", "2",
                     "--record", "--runs-dir", ledger]) == 0
        capsys.readouterr()
        assert main(["runs", "list", "--store", ledger]) == 0
        out = capsys.readouterr().out
        assert "parallel" in out
        assert " sw" in out   # wall clock, flagged as such

    def _store(self, ledger):
        from repro.obs.store import RunStore

        return RunStore(ledger)

    def _entries(self, ledger):
        return self._store(ledger).entries()
