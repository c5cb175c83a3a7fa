"""Durable execution: ``pods-ckpt/v2`` checkpoints and restart.

See :mod:`repro.ckpt.format` for the schema and the monotonicity
argument, :mod:`repro.ckpt.resume` for the restart driver behind
``pods resume``.
"""

from repro.ckpt.format import (  # noqa: F401
    LATEST,
    SCHEMA,
    CheckpointError,
    CkptRestore,
    CkptSpec,
    CkptWriter,
    array_entry,
    build_checkpoint,
    canonical_json,
    ckpt_id,
    load,
    program_section,
    validate,
)
from repro.ckpt.resume import resume  # noqa: F401

__all__ = [
    "LATEST", "SCHEMA", "CheckpointError", "CkptRestore", "CkptSpec",
    "CkptWriter", "array_entry", "build_checkpoint", "canonical_json",
    "ckpt_id", "load", "program_section", "resume", "validate",
]
