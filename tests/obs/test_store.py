"""RunStore: content addressing, the append-only index, reference
resolution, and the Hypothesis round-trip property (record -> put ->
get -> diff-against-self is empty and byte-stable)."""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import runrecord
from repro.obs.store import (MIN_PREFIX, RunStore, RunStoreError,
                             load_record)

# ---------------------------------------------------------------------
# strategies: arbitrary *valid* pods-run/v1 records
# ---------------------------------------------------------------------

_names = st.text(alphabet="abcdefghij._", min_size=1, max_size=12)
_scalars = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=12),
    st.booleans(),
    st.none(),
)

_metric_rows = st.lists(
    st.builds(
        dict,
        kind=st.sampled_from(["counter", "gauge", "histogram"]),
        name=_names,
        labels=st.dictionaries(st.sampled_from(["pe", "unit", "op"]),
                               st.text(max_size=6), max_size=2),
        value=st.integers(min_value=0, max_value=10**9),
    ),
    max_size=6,
    unique_by=lambda r: (r["kind"], r["name"],
                         tuple(sorted(r["labels"].items()))),
)

_wait_rows = st.lists(
    st.builds(
        dict,
        pe=st.integers(min_value=0, max_value=7),
        category=st.sampled_from(["token-wait", "remote-read",
                                  "net-queue"]),
        us=st.floats(min_value=0, max_value=1e9, allow_nan=False,
                     allow_infinity=False),
    ),
    max_size=6,
)


@st.composite
def records(draw):
    doc = {
        "schema": runrecord.SCHEMA,
        "program": {"name": draw(_names)},
        "args": draw(st.lists(_scalars, max_size=3)),
        "config": {
            "backend": draw(st.sampled_from(["sim", "seq", "parallel"])),
            "parallelism": draw(st.integers(min_value=1, max_value=64)),
            **draw(st.dictionaries(_names, _scalars, max_size=4)),
        },
        "result": {
            "value": draw(_scalars),
            "time_us": draw(st.one_of(
                st.none(),
                st.floats(min_value=0, max_value=1e12, allow_nan=False,
                          allow_infinity=False))),
            "wall_time_s": draw(st.one_of(
                st.none(),
                st.floats(min_value=0, max_value=1e6, allow_nan=False,
                          allow_infinity=False))),
        },
    }
    if draw(st.booleans()):
        doc["metrics"] = draw(_metric_rows)
    if draw(st.booleans()):
        doc["waits"] = draw(_wait_rows)
    return doc


# ---------------------------------------------------------------------
# the round-trip property
# ---------------------------------------------------------------------


class TestRoundTripProperty:
    @settings(max_examples=60, deadline=None)
    @given(doc=records())
    def test_put_get_diff_self_empty_and_byte_stable(self, tmp_path_factory,
                                                     doc):
        assert runrecord.validate(doc) == [], "strategy must emit valid docs"
        root = str(tmp_path_factory.mktemp("ledger"))
        store = RunStore(root)

        rid = store.put(doc)
        loaded = store.get(rid)

        # Round trip: a loaded record diffs empty against its source
        # (wall time is identical, so even the wall note stays silent).
        d = runrecord.diff(doc, loaded)
        assert d.ok and d.empty, d.render()

        # Byte stability: the object file holds exactly the canonical
        # encoding, and depositing again neither rewrites the object nor
        # changes the id.
        path = store.object_path(rid)
        with open(path, "rb") as fh:
            first = fh.read()
        assert first == (runrecord.canonical_json(doc) + "\n").encode()
        before = os.path.getmtime(path)
        assert store.put(json.loads(first)) == rid
        with open(path, "rb") as fh:
            assert fh.read() == first
        assert os.path.getmtime(path) == before

        # The ledger recorded both deposits of the one object.
        entries = store.entries()
        assert [e.id for e in entries] == [rid, rid]
        assert [e.seq for e in entries] == [0, 1]

    @settings(max_examples=30, deadline=None)
    @given(doc=records())
    def test_id_invariant_under_wall_time(self, doc):
        other = json.loads(runrecord.canonical_json(doc))
        other["result"]["wall_time_s"] = 42.0
        assert runrecord.record_id(doc) == runrecord.record_id(other)


# ---------------------------------------------------------------------
# deterministic store mechanics
# ---------------------------------------------------------------------


def simple_record(name: str = "demo", pes: int = 2, value=7,
                  backend: str = "sim") -> dict:
    return {
        "schema": runrecord.SCHEMA,
        "program": {"name": name},
        "args": [3],
        "config": {"backend": backend, "parallelism": pes},
        "result": {"value": value, "time_us": 100.0, "wall_time_s": None},
    }


class TestStore:
    def test_put_rejects_invalid(self, tmp_path):
        store = RunStore(str(tmp_path / "ledger"))
        with pytest.raises(RunStoreError, match="invalid record"):
            store.put({"schema": "nope"})
        assert store.entries() == []

    def test_resolve_prefix_and_latest(self, tmp_path):
        store = RunStore(str(tmp_path / "ledger"))
        a = store.put(simple_record(value=1))
        b = store.put(simple_record(value=2))
        assert store.resolve(a[:MIN_PREFIX]) in (a, b)
        assert store.resolve(a[:12]) == a
        assert store.resolve("latest") == b
        assert store.get("latest")["result"]["value"] == 2

    def test_resolve_rejects_short_and_unknown(self, tmp_path):
        store = RunStore(str(tmp_path / "ledger"))
        store.put(simple_record())
        with pytest.raises(RunStoreError, match="too short"):
            store.resolve("abc")
        with pytest.raises(RunStoreError, match="no record matching"):
            store.resolve("0" * 16)

    def test_latest_on_empty_ledger(self, tmp_path):
        with pytest.raises(RunStoreError, match="empty"):
            RunStore(str(tmp_path / "ledger")).resolve("latest")

    def test_select_filters(self, tmp_path):
        store = RunStore(str(tmp_path / "ledger"))
        store.put(simple_record(name="a", pes=2))
        store.put(simple_record(name="a", pes=4))
        store.put(simple_record(name="b", pes=2, backend="seq"))
        assert len(store.select(program="a")) == 2
        assert len(store.select(program="a", parallelism=4)) == 1
        assert [e.backend for e in store.select(backend="seq")] == ["seq"]
        assert store.select(program="zzz") == []

    def test_get_detects_tampered_object(self, tmp_path):
        store = RunStore(str(tmp_path / "ledger"))
        rid = store.put(simple_record())
        path = store.object_path(rid)
        doc = json.load(open(path))
        doc["result"]["value"] = 999
        with open(path, "w") as fh:
            fh.write(runrecord.canonical_json(doc) + "\n")
        with pytest.raises(RunStoreError, match="content hash mismatch"):
            store.get(rid)

    @pytest.mark.parametrize("damage", [
        lambda whole: whole[:len(whole) // 2],
        lambda whole: whole[:10] + b"\xff\xfe" + whole[12:],
    ], ids=["truncated", "not-utf8"])
    def test_torn_object_is_one_error_line_and_a_redeposit_mends_it(
            self, tmp_path, capsys, damage):
        from repro.cli import main

        root = str(tmp_path / "ledger")
        store = RunStore(root)
        rid = store.put(simple_record())
        path = store.object_path(rid)
        whole = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(damage(whole))
        with pytest.raises(RunStoreError, match="not JSON"):
            store.get(rid)
        capsys.readouterr()
        assert main(["runs", "show", rid, "--store", root]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error[") and err.count("\n") == 1, err
        assert path in err
        assert store.put(simple_record()) == rid
        assert open(path, "rb").read() == whole
        assert main(["runs", "show", rid, "--store", root]) == 0

    def test_corrupt_index_line_is_a_structured_error(self, tmp_path):
        store = RunStore(str(tmp_path / "ledger"))
        store.put(simple_record())
        with open(store.index_path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(RunStoreError, match="corrupt index line"):
            store.entries()

    def test_two_ledgers_same_runs_byte_identical(self, tmp_path):
        docs = [simple_record(value=v) for v in (1, 2, 3)]
        roots = []
        for sub in ("one", "two"):
            store = RunStore(str(tmp_path / sub))
            for doc in docs:
                store.put(json.loads(json.dumps(doc)))
            roots.append(store)
        for a, b in [(roots[0], roots[1])]:
            assert open(a.index_path, "rb").read() == \
                open(b.index_path, "rb").read()
            for e in a.entries():
                assert open(a.object_path(e.id), "rb").read() == \
                    open(b.object_path(e.id), "rb").read()

    def test_env_var_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PODS_RUNS_DIR", str(tmp_path / "env-ledger"))
        store = RunStore()
        assert store.root == str(tmp_path / "env-ledger")

    def test_load_record_file(self, tmp_path):
        doc = simple_record()
        path = tmp_path / "baseline.json"
        path.write_text(runrecord.canonical_json(doc) + "\n")
        assert load_record(str(path)) == doc
        path.write_text("{\"schema\": \"nope\"}\n")
        with pytest.raises(RunStoreError):
            load_record(str(path))
