"""API-level checkpoint → resume round trips.

The crash-restart driver (:mod:`repro.ckpt.crashtest`) kills real
processes; these tests pin the same contract at the Python API level
where it is cheap enough for tier-1: a resumed run reproduces the exact
value at the same width *and* at a different width, the snapshot writer
stays zero-cost when absent, and the failure modes (no embedded source,
missing checkpoint file) are structured errors.
"""

import os

import pytest

from repro.api import compile_source
from repro.backend import get_backend
from repro.ckpt import (CheckpointError, CkptRestore, CkptSpec,
                        CkptWriter, build_checkpoint, load,
                        program_section, resume)

SWEEP = """
function main(n) {
    B = matrix(n, n);
    for j = 1 to n { B[1, j] = 1.0 * j; }
    for i = 2 to n {
        for j = 1 to n { B[i, j] = B[i - 1, j] * 0.5 + 1.0; }
    }
    s = 0.0;
    for j = 1 to n { next s = s + B[n, j]; }
    return s;
}
"""

N = 8


def _checkpointed_run(tmp_path, every_events=25):
    """One sim run that leaves snapshots behind; returns (result, dir)."""
    ckpt_dir = str(tmp_path / "ckpt")
    program = compile_source(SWEEP)
    writer = CkptWriter(
        CkptSpec(dir=ckpt_dir, every_events=every_events),
        fingerprint={"backend": "sim", "parallelism": 2},
        program=program_section(SWEEP), args=(N,))
    result = get_backend("sim").run(program, (N,), parallelism=2,
                                    ckpt=writer)
    return result, ckpt_dir


class TestResume:
    def test_same_width_reproduces_value(self, tmp_path):
        original, ckpt_dir = _checkpointed_run(tmp_path)
        assert original.ckpt and original.ckpt["snapshots"] >= 1
        res, _, restore = resume(ckpt_dir, parallelism=2)
        assert res.value == original.value
        assert restore.total_elements >= 1

    def test_different_width_reproduces_value(self, tmp_path):
        original, ckpt_dir = _checkpointed_run(tmp_path)
        res, _, _ = resume(ckpt_dir, parallelism=3)
        assert res.value == original.value
        assert res.parallelism == 3

    def test_resume_defaults_to_snapshot_identity(self, tmp_path):
        original, ckpt_dir = _checkpointed_run(tmp_path)
        res, _, _ = resume(ckpt_dir)  # backend + width from the snapshot
        assert res.backend == "sim"
        assert res.parallelism == 2
        assert res.value == original.value

    def test_resumed_run_can_rearm_checkpointing(self, tmp_path):
        _, ckpt_dir = _checkpointed_run(tmp_path)
        spec = CkptSpec(dir=str(tmp_path / "ckpt2"), every_events=25)
        res, _, _ = resume(ckpt_dir, ckpt=spec)
        assert res.ckpt and res.ckpt["dir"] == spec.dir
        assert os.path.exists(os.path.join(spec.dir, "latest.json"))

    def test_sourceless_checkpoint_is_structured(self, tmp_path):
        doc = build_checkpoint([], epoch=0,
                               program=program_section(None))
        restore = CkptRestore(doc)
        with pytest.raises(CheckpointError, match="source"):
            resume(restore)

    def test_missing_path_is_structured(self, tmp_path):
        with pytest.raises(CheckpointError):
            load(str(tmp_path / "nope.json"))
        with pytest.raises(CheckpointError):
            resume(str(tmp_path / "nope.json"))


class TestZeroCost:
    def test_no_writer_no_ckpt_section(self):
        program = compile_source(SWEEP)
        res = get_backend("sim").run(program, (N,), parallelism=2)
        assert res.ckpt is None

    def test_writer_does_not_perturb_modeled_time(self, tmp_path):
        # Snapshots happen at event boundaries in host code; the
        # modeled machine must not see them.
        program = compile_source(SWEEP)
        clean = get_backend("sim").run(program, (N,), parallelism=2)
        ckpt, _ = _checkpointed_run(tmp_path)
        assert ckpt.time_us == clean.time_us
        assert ckpt.value == clean.value


class TestLatestPointer:
    def test_resume_consumes_the_newest_snapshot(self, tmp_path):
        _, ckpt_dir = _checkpointed_run(tmp_path)
        names = sorted(n for n in os.listdir(ckpt_dir)
                       if n.startswith("ckpt-"))
        assert len(names) >= 2  # pacing produced a history
        latest = load(os.path.join(ckpt_dir, "latest.json"))
        newest = load(os.path.join(ckpt_dir, names[-1]))
        assert latest.doc == newest.doc
