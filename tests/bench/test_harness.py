"""``python -m repro.bench.harness``: one table, one record per width."""

from repro.bench.harness import main
from repro.cli import main as pods
from repro.obs.store import RunStore


def test_harness_cli_deposits_gateable_records(tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    sweep = ["--size", "4", "--steps", "1", "--pes", "1,2"]

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
        assert pods(["runs", "regress", "--baseline",
                     store.object_path(entry.id), "--store", "ledger"]) == 0
        assert "no differences" in capsys.readouterr().out
