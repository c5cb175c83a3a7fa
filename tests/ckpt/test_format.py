"""Unit tests for the ``pods-ckpt/v1`` snapshot format.

Pins the properties the durability layer rests on: presence bitmaps
round-trip, the canonical bytes (and therefore the content address) are
deterministic, invalid documents are refused at both the build and the
restore boundary, pacing is exact, and a restore re-addresses arrays by
allocation ordinal regardless of the width that wrote them.
"""

import json
import os

import pytest

from repro.ckpt.format import (LATEST, CheckpointError, CkptRestore,
                               CkptSpec, CkptWriter, array_entry,
                               bitmap_hex, bitmap_offsets,
                               build_checkpoint, canonical_json, ckpt_id,
                               load, program_section, save, validate)


class TestBitmap:
    def test_round_trip(self):
        offsets = {0, 1, 7, 8, 63, 64, 99}
        assert bitmap_offsets(bitmap_hex(100, offsets)) == offsets

    def test_empty(self):
        assert bitmap_offsets(bitmap_hex(16, ())) == set()

    def test_out_of_range_offset_refused(self):
        with pytest.raises(CheckpointError, match="outside"):
            bitmap_hex(8, [8])


class TestArrayEntry:
    def test_pages_and_bitmap_agree(self):
        entry = array_entry(1, (4, 4), page_size=4,
                            elements={0: 1.5, 5: 2.5, 15: 3.0})
        assert bitmap_offsets(entry["bitmap"]) == {0, 5, 15}
        assert entry["pages"] == {"0": [[0, 1.5]], "1": [[5, 2.5]],
                                  "3": [[15, 3.0]]}

    def test_non_scalar_element_refused(self):
        with pytest.raises(CheckpointError, match="cannot checkpoint"):
            array_entry(1, (2,), 2, {0: [1, 2]})


def _doc(**over):
    entry = array_entry(1, (2, 2), 2, {0: 1.0, 3: 4.0})
    doc = build_checkpoint(
        [entry], [{"identity": 0, "complete": True}], epoch=0,
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
        entry = array_entry(1, (2,), 2, {0: 1.0})
        entry["bitmap"] = "zz"  # not hex
        with pytest.raises(CheckpointError, match="refusing"):
            build_checkpoint([entry], [], epoch=0)

    def test_restore_refuses_invalid(self):
        doc = _doc()
        doc["arrays"] = "nope"
        with pytest.raises(CheckpointError, match="invalid checkpoint"):
            CkptRestore(doc)


class TestSaveLoad:
    def test_round_trip(self, tmp_path):
        doc = _doc()
        path = str(tmp_path / "ckpt.json")
        save(doc, path)
        assert load(path) == doc

    def test_load_dir_joins_latest(self, tmp_path):
        doc = _doc()
        save(doc, str(tmp_path / LATEST))
        assert load(str(tmp_path)) == doc

    def test_load_dir_without_latest_is_structured(self, tmp_path):
        with pytest.raises(CheckpointError):
            load(str(tmp_path))


class TestWriterPacing:
    def test_interval_pacing(self):
        w = CkptWriter(CkptSpec(dir="/tmp/x", interval_s=1.0))
        assert not w.due(100.0)   # first call arms the timer
        assert not w.due(100.5)
        assert w.due(101.0)

    FILL = ("function main(n) { A = array(n);"
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
        p0 = w.snapshot([(1, (2, 2), 2, {0: 1.0})], {0}, 2)
        p1 = w.snapshot([(1, (2, 2), 2, {0: 1.0, 3: 4.0})], {0, 1}, 2)
        assert os.path.basename(p0) == "ckpt-000000.json"
        assert os.path.basename(p1) == "ckpt-000001.json"
        assert load(os.path.join(spec.dir, LATEST)) == load(p1)
        assert w.stats() == {"snapshots": 2, "elements": 2,
                             "dir": spec.dir}

    def test_inactive_writer_reports_none(self):
        w = CkptWriter(CkptSpec(dir="/tmp/x"))
        assert w.stats() is None


class TestRestore:
    def test_ordinals_follow_allocation_order(self):
        e2 = array_entry(7, (2,), 2, {1: 9.0})
        e1 = array_entry(3, (2, 2), 2, {0: 1.0, 3: 4.0})
        doc = build_checkpoint([e2, e1], [], epoch=0)  # unsorted on seq
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

    def test_page_size_is_advisory(self):
        # The restore flattens pages back to offsets; the resuming run
        # re-derives pagination at its own width, so the page size the
        # snapshot was written with must not leak into the view.
        a = array_entry(1, (2, 2), 1, {0: 1.0, 3: 4.0})
        b = array_entry(1, (2, 2), 4, {0: 1.0, 3: 4.0})
        ra = CkptRestore(build_checkpoint([a], [], epoch=0))
        rb = CkptRestore(build_checkpoint([b], [], epoch=0))
        assert ra.array(1) == rb.array(1)
