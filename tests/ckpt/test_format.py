"""Unit tests for the ``pods-ckpt/v2`` snapshot format.

Pins the properties the durability layer rests on: an array entry is
its present elements in ascending offset order, the canonical bytes
(and therefore the content address) are deterministic, invalid and
``pods-ckpt/v1`` documents are refused at both the build and the
restore boundary, ``load`` is the one way to open a checkpoint, pacing
is exact, and a restore re-addresses arrays by allocation ordinal
regardless of the width that wrote them.
"""

import json
import os

import pytest

import repro.ckpt.format as ckpt_format
from repro.ckpt.format import (LATEST, SCHEMA, CheckpointError,
                               CkptRestore, CkptSpec, CkptWriter,
                               array_entry, build_checkpoint,
                               canonical_json, ckpt_id, load,
                               program_section, validate)

# The retired schema's shape: a presence bitmap, page-grouped elements,
# a page size and a progress table.  Nothing reads it any more.
V1_DOC = {
    "schema": "pods-ckpt/v1",
    "program": {"entry": "main", "name": "main"},
    "args": [], "config": {}, "epoch": 0,
    "arrays": [{"seq": 1, "dims": [2], "page_size": 2, "bitmap": "01",
                "pages": {"0": [[0, 1.0]]}}],
    "progress": [{"identity": 0, "complete": True}],
}


class TestArrayEntry:
    def test_elements_ascend_and_nothing_else_is_stored(self):
        entry = array_entry(1, (4, 4), {15: 3.0, 0: 1.5, 5: 2.5})
        assert entry == {"seq": 1, "dims": [4, 4],
                         "elements": [[0, 1.5], [5, 2.5], [15, 3.0]]}

    def test_non_scalar_element_refused(self):
        with pytest.raises(CheckpointError, match="scalar"):
            build_checkpoint([array_entry(1, (2,), {0: [1, 2]})], epoch=0)


def _doc(**over):
    entry = array_entry(1, (2, 2), {0: 1.0, 3: 4.0})
    doc = build_checkpoint(
        [entry], epoch=0,
        fingerprint={"backend": "sim", "parallelism": 2},
        program=program_section("function main() { return 1; }"),
        args=(8,))
    doc.update(over)
    return doc


class TestCanonicalBytes:
    def test_id_is_deterministic(self):
        assert ckpt_id(_doc()) == ckpt_id(_doc())

    def test_id_tracks_content(self):
        assert ckpt_id(_doc()) != ckpt_id(_doc(epoch=1))

    def test_canonical_json_is_key_order_independent(self):
        doc = _doc()
        shuffled = json.loads(json.dumps(doc))
        shuffled = dict(reversed(list(shuffled.items())))
        assert canonical_json(doc) == canonical_json(shuffled)


class TestValidate:
    def test_good_doc_is_clean(self):
        assert validate(_doc()) == []

    def test_missing_schema_flagged(self):
        doc = _doc()
        del doc["schema"]
        assert validate(doc)

    def test_build_refuses_invalid(self):
        entry = array_entry(1, (2,), {0: 1.0})
        entry["elements"].append([2, 2.0])  # past the array's end
        with pytest.raises(CheckpointError, match="refusing"):
            build_checkpoint([entry], epoch=0)

    @pytest.mark.parametrize("cells, problem", [
        ([[1, 1.0], [0, 2.0]], "ascend"),
        ([[1, 1.0], [1, 2.0]], "ascend"),
        ([[-1, 1.0]], "outside"),
        ([[4, 1.0]], "outside"),
        ([[True, 1.0]], "pairs"),
        ([[0, "x"]], "pairs"),
        ([[0]], "pairs"),
    ])
    def test_elements_checked(self, cells, problem):
        doc = _doc()
        doc["arrays"][0]["elements"] = cells
        problems = validate(doc)
        assert len(problems) == 1 and problem in problems[0]

    def test_restore_refuses_invalid(self):
        doc = _doc()
        doc["arrays"] = "nope"
        with pytest.raises(CheckpointError, match="invalid checkpoint"):
            CkptRestore(doc)

    def test_v1_document_refused_naming_the_schema(self, tmp_path):
        assert validate(V1_DOC) == [
            f"schema must be {SCHEMA!r}, got 'pods-ckpt/v1'"]
        with pytest.raises(CheckpointError, match="pods-ckpt/v1"):
            CkptRestore(V1_DOC)
        path = tmp_path / "old.json"
        path.write_text(json.dumps(V1_DOC))
        with pytest.raises(CheckpointError, match="pods-ckpt/v1"):
            load(str(path))


def _written(tmp_path, *elements) -> CkptWriter:
    """A writer that has written one snapshot per ``{offset: value}``."""
    w = CkptWriter(CkptSpec(dir=str(tmp_path / "ckpt")),
                   fingerprint={"backend": "sim", "parallelism": 2},
                   program=program_section("function main() { return 1; }"),
                   args=(8,))
    for cells in elements:
        w.snapshot([(1, (2, 2), cells)])
    return w


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        w = _written(tmp_path, {3: 4.0, 0: 1.0})
        r = load(w.last_path)
        with open(w.last_path) as fh:
            assert r.doc == json.load(fh)
        assert r.doc == _doc()
        assert r.array(1) == ((2, 2), {0: 1.0, 3: 4.0})

    def test_load_dir_joins_latest(self, tmp_path):
        w = _written(tmp_path, {0: 1.0}, {0: 1.0, 3: 4.0})
        assert load(w.spec.dir).doc == load(w.last_path).doc
        assert load(w.spec.dir).total_elements == 2

    def test_load_dir_without_latest_is_structured(self, tmp_path):
        with pytest.raises(CheckpointError):
            load(str(tmp_path))

    def test_load_validates_once(self, tmp_path, monkeypatch):
        w = _written(tmp_path, {0: 1.0})
        seen = []

        def counting(doc):
            seen.append(doc)
            return validate(doc)

        monkeypatch.setattr(ckpt_format, "validate", counting)
        load(w.spec.dir)
        assert len(seen) == 1

    def test_the_id_is_encoded_once(self, tmp_path, monkeypatch):
        w = _written(tmp_path, {0: 1.0})
        encoded = []
        address = ckpt_format.content_address

        def counting(doc):
            encoded.append(doc)
            return address(doc)

        monkeypatch.setattr(ckpt_format, "content_address", counting)
        r = load(w.spec.dir)
        first, second = r.id, r.id
        assert len(encoded) == 1
        assert first == second == ckpt_id(r.doc)

    def test_unparsable_file_is_structured(self, tmp_path):
        path = tmp_path / LATEST
        path.write_text("{not json")
        with pytest.raises(CheckpointError, match="not JSON"):
            load(str(tmp_path))


class TestWriterPacing:
    def test_interval_pacing(self):
        w = CkptWriter(CkptSpec(dir="/tmp/x", interval_s=1.0))
        assert not w.due(100.0)   # first call arms the timer
        assert not w.due(100.5)
        assert w.due(101.0)

    def test_a_failed_write_still_paces_the_next(self, tmp_path):
        """A wall-clock caller waits until ``next_due``: a write that
        fails must move it, or a failing disk is retried at once."""
        (tmp_path / "file").write_text("")
        w = CkptWriter(CkptSpec(dir=str(tmp_path / "file"), interval_s=1.0))
        assert not w.due(100.0)
        assert w.due(101.0)
        with pytest.raises(OSError):
            w.snapshot([], now=101.0)
        assert not w.due(101.5)
        assert w.next_due() == 102.0

    FILL =("function main(n) { A = array(n);"
            " for i = 1 to n { A[i] = i; } return A; }")

    def simulated_snapshots(self, tmp_path, **spec) -> tuple[int, int]:
        """(snapshots written, events run) of one simulated run."""
        from repro.api import compile_source

        w = CkptWriter(CkptSpec(dir=str(tmp_path), **spec))
        result = compile_source(self.FILL).run((6,), backend="sim", ckpt=w)
        return w.snapshots, result.stats.events_processed

    def test_event_pacing(self, tmp_path):
        snapshots, events = self.simulated_snapshots(tmp_path,
                                                     every_events=10)
        assert events > 20
        # One at every 10th event boundary, plus the final one.
        assert snapshots == events // 10 + 1

    def test_event_pacing_off_by_default(self, tmp_path):
        snapshots, _ = self.simulated_snapshots(tmp_path)
        assert snapshots == 1              # the final checkpoint only


class TestWriterSnapshot:
    def test_snapshot_writes_numbered_and_latest(self, tmp_path):
        spec = CkptSpec(dir=str(tmp_path / "ckpt"))
        w = CkptWriter(spec, fingerprint={"backend": "sim",
                                          "parallelism": 2})
        p0 = w.snapshot([(1, (2, 2), {0: 1.0})])
        p1 = w.snapshot([(1, (2, 2), {0: 1.0, 3: 4.0})])
        assert os.path.basename(p0) == "ckpt-000000.json"
        assert os.path.basename(p1) == "ckpt-000001.json"
        assert load(os.path.join(spec.dir, LATEST)).doc == load(p1).doc
        assert w.stats() == {"snapshots": 2, "elements": 2,
                             "dir": spec.dir}

    def test_written_document_is_v2(self, tmp_path):
        w = _written(tmp_path, {0: 1.0})
        with open(w.last_path) as fh:
            doc = json.load(fh)
        assert doc["schema"] == "pods-ckpt/v2"
        assert "progress" not in doc
        assert set(doc["arrays"][0]) == {"seq", "dims", "elements"}

    def test_inactive_writer_reports_none(self):
        w = CkptWriter(CkptSpec(dir="/tmp/x"))
        assert w.stats() is None


class TestRestore:
    def test_ordinals_follow_allocation_order(self):
        e2 = array_entry(7, (2,), {1: 9.0})
        e1 = array_entry(3, (2, 2), {0: 1.0, 3: 4.0})
        doc = build_checkpoint([e2, e1], epoch=0)  # unsorted on seq
        r = CkptRestore(doc)
        assert r.ordinals() == [1, 2]
        dims, elements = r.array(1)     # lowest seq first
        assert dims == (2, 2)
        assert elements == {0: 1.0, 3: 4.0}
        assert r.array(2) == ((2,), {1: 9.0})
        assert r.array(3) is None
        assert r.total_elements == 3

    def test_identity_properties(self):
        r = CkptRestore(_doc())
        assert r.source == "function main() { return 1; }"
        assert r.entry == "main"
        assert r.args == (8,)
        assert r.backend == "sim"
        assert r.parallelism == 2
        assert r.id == ckpt_id(_doc())
