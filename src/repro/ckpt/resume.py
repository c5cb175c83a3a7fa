"""Resume a run from a ``pods-ckpt/v2`` snapshot.

A checkpoint is self-describing: it embeds the program source, entry
point and call arguments alongside the element state, so resuming needs
nothing but the snapshot file.  :func:`resume` rebuilds the program
from the embedded source, hands the element state to the chosen backend
as a :class:`~repro.ckpt.format.CkptRestore`, and re-executes.  Because
restore addresses arrays by allocation ordinal and re-derives ownership
at the resuming run's own width, the backend and parallelism may differ
from the run that wrote the snapshot — a checkpoint taken at 8 workers
resumes cleanly at 2 nodes.

Replay is verification, not trust: the resumed run re-executes every
iteration and checks restored elements against what it recomputes
(single-assignment makes the check exact), so a corrupt value surfaces
as a multiple-write violation instead of a silently wrong answer.
"""

from __future__ import annotations

from repro.ckpt.format import (CheckpointError, CkptRestore, CkptSpec,
                               CkptWriter, load)

__all__ = ["resume"]


def resume(path, backend: str | None = None,
           parallelism: int | None = None, config=None, ckpt=None,
           optimize: bool = False):
    """Re-execute the run captured in the checkpoint at ``path``
    (a snapshot file / checkpoint directory, or an already-loaded
    :class:`~repro.ckpt.format.CkptRestore`).

    ``backend`` / ``parallelism`` default to what the original run used
    (recorded in the snapshot's config section); either may be
    overridden — the checkpoint's element state is re-partitioned at
    the resuming width.  ``ckpt`` optionally re-arms checkpointing on
    the resumed run, so a resume that is itself interrupted can be
    resumed again: pass a :class:`~repro.ckpt.format.CkptSpec` (the
    writer inherits the snapshot's program identity) or a ready
    :class:`~repro.ckpt.format.CkptWriter`.

    Returns the backend's :class:`~repro.backend.BackendResult`; its
    ``ckpt`` summary carries ``resumed_from`` (the snapshot's content
    id) as provenance, which ``pods run --record`` persists into the
    run ledger.
    """
    from repro.api import compile_source
    from repro.backend import get_backend

    restore = path if isinstance(path, CkptRestore) else load(path)
    if restore.source is None:
        raise CheckpointError(
            "checkpoint does not embed program source; cannot resume")
    program = compile_source(restore.source, entry=restore.entry,
                             optimize=optimize)
    name = backend or restore.backend or "sim"
    width = parallelism if parallelism is not None else restore.parallelism
    if isinstance(ckpt, CkptSpec):
        ckpt = CkptWriter(ckpt,
                          fingerprint={"backend": name,
                                       "parallelism": width or 1},
                          program=dict(restore.doc.get("program", {})),
                          args=restore.args)
    result = get_backend(name).run(program, restore.args,
                                   parallelism=width, config=config,
                                   restore=restore, ckpt=ckpt)
    return result, program, restore
