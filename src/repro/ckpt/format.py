"""Durable checkpoints: schema ``pods-ckpt/v2`` + writers/restores.

The I-structure memory is *monotone*: presence bits only ever flip on
and every element is written exactly once.  A point-in-time snapshot
taken with **no coordination at all** is therefore always a consistent
cut — there is no torn state a checkpoint could capture, because state
never changes once written.  Restart is the same presence-bit
verify-not-rewrite replay the recovery layers already use for a single
dead worker or node, applied to the whole job: re-execute from the
entry point with the checkpointed elements pre-seeded, and every write
of an already-present element becomes a verification instead of a
violation.

A checkpoint is a plain JSON document in the ``pods-run/v1`` style
(:mod:`repro.obs.runrecord`): a ``schema`` tag, a structural
:func:`validate` returning a problem list, canonical sorted-key bytes,
and a sha256 content address.  Unlike run records it embeds the full
program source — a checkpoint must be self-sufficient to resume from.

Schema ``pods-ckpt/v2``::

    {
      "schema": "pods-ckpt/v2",
      "program": {"name": "main", "entry": "main",
                  "source_sha256": "...", "source": "..."},
      "args": [8, 1],
      "config": {"backend": "parallel", "parallelism": 2, ...},
      "epoch": 3,                       # writer's snapshot ordinal
      "arrays": [
        {"seq": 1, "dims": [8, 8],
         "elements": [[0, 1.0], [1, 2.0], ...]}   # [offset, value]
      ]
    }

Single assignment makes a snapshot just the set of elements present at
the cut, so an array entry is its present elements in ascending flat
offset order and nothing else.  Pages, segments and ownership are
deliberately **absent**: which worker/node holds which element follows
from first-element ownership at whatever width the resume runs at,
which is what lets a 2-worker checkpoint resume on 4 workers (or 3
nodes).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

from repro.common.canonical import (canonical_json, content_address,
                                    source_hash, source_hash_problems,
                                    write_atomic)
from repro.common.errors import PodsError
from repro.runtime.arrays import flat_size

SCHEMA = "pods-ckpt/v2"


class CheckpointError(PodsError):
    """A checkpoint could not be built, validated, loaded or applied."""


# ---------------------------------------------------------------------
# knobs (passed beside — never inside — the backend config objects, so
# enabling checkpoints does not perturb config fingerprints and a
# resumed run record stays point-for-point comparable with an
# uninterrupted one)
# ---------------------------------------------------------------------


@dataclass(frozen=True)
class CkptSpec:
    """Where and how often to checkpoint.

    ``interval_s`` paces the wall-clock substrates (parallel supervisor,
    dist coordinator); ``every_events`` paces the simulator at event
    boundaries (0 = only the final event-drain checkpoint).  A spec is
    enabled by construction — no directory, no checkpointing.
    """

    dir: str
    interval_s: float = 0.25
    every_events: int = 0

    def __post_init__(self) -> None:
        if not self.dir:
            raise CheckpointError("checkpoint spec needs a directory")
        if not (isinstance(self.interval_s, (int, float))
                and math.isfinite(self.interval_s) and self.interval_s > 0):
            raise CheckpointError(
                f"ckpt interval_s must be positive and finite, got "
                f"{self.interval_s!r}")
        if not isinstance(self.every_events, int) or \
                isinstance(self.every_events, bool) or self.every_events < 0:
            raise CheckpointError(
                f"ckpt every_events must be a non-negative int, got "
                f"{self.every_events!r}")


# ---------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------


def array_entry(seq: int, dims, elements: dict[int, object]) -> dict:
    """One ``arrays[]`` entry from a flat ``offset -> value`` mapping
    (:func:`validate` refuses a non-scalar value)."""
    return {"seq": seq, "dims": list(dims),
            "elements": [[off, elements[off]] for off in sorted(elements)]}


def build_checkpoint(arrays: list[dict], epoch: int,
                     fingerprint: dict | None = None,
                     program: dict | None = None,
                     args: tuple = ()) -> dict:
    """Assemble (and validate) one ``pods-ckpt/v2`` document from
    :func:`array_entry` entries."""
    doc = {
        "schema": SCHEMA,
        "program": dict(program or {}),
        "args": [a if isinstance(a, (int, float, str, bool, type(None)))
                 else str(a) for a in args],
        "config": dict(fingerprint or {}),
        "epoch": epoch,
        "arrays": arrays,
    }
    problems = validate(doc)
    if problems:
        raise CheckpointError(
            "refusing to build an invalid checkpoint: "
            + "; ".join(problems))
    return doc


def program_section(source: str | None, entry: str = "main",
                    name: str | None = None) -> dict:
    """The embedded-program identity section of a checkpoint."""
    sec: dict = {"entry": entry, "name": name or entry}
    if isinstance(source, str):
        sec["source"] = source
        sec["source_sha256"] = source_hash(source)
    return sec


# ---------------------------------------------------------------------
# canonical bytes / content addressing
# ---------------------------------------------------------------------


def ckpt_id(doc: dict) -> str:
    """Content address: sha256 of the canonical bytes.

    Checkpoints carry no host-dependent fields (no wall times), so the
    id hashes the document as-is — no deterministic projection needed.
    """
    return content_address(doc)


# ---------------------------------------------------------------------
# validation (problem-list style, like runrecord.validate)
# ---------------------------------------------------------------------


def _is_scalar(v) -> bool:
    return isinstance(v, (int, float, str, bool, type(None)))


def validate(doc) -> list[str]:
    """Structural check; empty list = valid.  A document of another
    schema (``pods-ckpt/v1`` among them) gets that one problem only."""
    if not isinstance(doc, dict):
        return ["checkpoint must be an object"]
    if doc.get("schema") != SCHEMA:
        return [f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}"]
    problems: list[str] = []
    prog = doc.get("program")
    if not isinstance(prog, dict):
        problems.append("'program' must be an object")
    else:
        problems += source_hash_problems(prog)
        sha = prog.get("source_sha256")
        src = prog.get("source")
        if src is not None:
            if not isinstance(src, str):
                problems.append("'program.source' must be a string")
            elif isinstance(sha, str) and source_hash(src) != sha:
                problems.append("'program.source' does not hash to "
                                "'program.source_sha256'")
    if not isinstance(doc.get("args"), list):
        problems.append("'args' must be an array")
    config = doc.get("config")
    if not isinstance(config, dict):
        problems.append("'config' must be an object")
    else:
        for k, v in config.items():
            if not _is_scalar(v):
                problems.append(f"config[{k!r}] must be a scalar")
    epoch = doc.get("epoch")
    if not isinstance(epoch, int) or isinstance(epoch, bool) or epoch < 0:
        problems.append("'epoch' must be a non-negative integer")
    arrays = doc.get("arrays")
    if not isinstance(arrays, list):
        problems.append("'arrays' must be an array")
        arrays = []
    seqs: set = set()
    for i, a in enumerate(arrays):
        where = f"arrays[{i}]"
        if not isinstance(a, dict):
            problems.append(f"{where}: not an object")
            continue
        seq = a.get("seq")
        if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
            problems.append(f"{where}: 'seq' must be a non-negative int")
        elif seq in seqs:
            problems.append(f"{where}: duplicate seq {seq}")
        else:
            seqs.add(seq)
        dims = a.get("dims")
        if not (isinstance(dims, list) and dims
                and all(isinstance(d, int) and not isinstance(d, bool)
                        and d >= 1 for d in dims)):
            problems.append(f"{where}: 'dims' must be positive ints")
            continue
        total = flat_size(dims)
        cells = a.get("elements")
        if not isinstance(cells, list):
            problems.append(f"{where}: 'elements' must be an array")
            continue
        last = -1
        for cell in cells:
            if not (isinstance(cell, list) and len(cell) == 2
                    and isinstance(cell[0], int)
                    and not isinstance(cell[0], bool)
                    and isinstance(cell[1], (int, float, bool))):
                problems.append(f"{where}: elements must be "
                                "[offset, scalar] pairs")
                break
            off = cell[0]
            if not 0 <= off < total:
                problems.append(f"{where}: offset {off} outside the "
                                f"array's {total} elements")
                break
            if off <= last:
                problems.append(f"{where}: offsets must ascend "
                                f"({off} after {last})")
                break
            last = off
    return problems


# ---------------------------------------------------------------------
# files: atomic write, load
# ---------------------------------------------------------------------


LATEST = "latest.json"


def load(path: str) -> "CkptRestore":
    """Open a checkpoint: a snapshot file, or a checkpoint directory
    (its ``latest.json``), parsed and validated once."""
    if os.path.isdir(path):
        path = os.path.join(path, LATEST)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: not JSON ({exc})") from exc
    try:
        return CkptRestore(doc)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------
# the writer every substrate drives
# ---------------------------------------------------------------------


class CkptWriter:
    """Paced checkpoint emission into ``spec.dir``.

    Substrate-agnostic: callers hand :meth:`snapshot` an iterable of
    ``(ordinal, dims, {offset: value})`` triples, and the writer
    persists one numbered ``ckpt-NNNNNN.json`` and refreshes
    ``latest.json``.  The program / config identity is bound at
    construction (by the backend layer, which knows the source text and
    fingerprint).
    """

    def __init__(self, spec: CkptSpec, fingerprint: dict | None = None,
                 program: dict | None = None, args: tuple = ()) -> None:
        self.spec = spec
        self.fingerprint = dict(fingerprint or {})
        self.program = dict(program or {})
        self.args = tuple(args)
        self.snapshots = 0
        self.elements = 0
        self.last_path: str | None = None
        self._next_due: float | None = None

    # -- pacing -------------------------------------------------------

    def due(self, now: float) -> bool:
        """Interval pacing for wall-clock substrates (the simulator paces
        itself by ``spec.every_events``)."""
        if self._next_due is None:
            self._next_due = now + self.spec.interval_s
            return False
        return now >= self._next_due

    def next_due(self) -> float:
        """When :meth:`due` next holds, which a wall-clock caller's wait
        must not sleep past (``inf`` until :meth:`due` arms it)."""
        return math.inf if self._next_due is None else self._next_due

    # -- emission -----------------------------------------------------

    def snapshot(self, arrays, now: float | None = None) -> str:
        """Persist one checkpoint; returns the file path written."""
        if now is not None:  # paced even if the write fails
            self._next_due = now + self.spec.interval_s
        entries = [array_entry(seq, dims, elements)
                   for seq, dims, elements in arrays]
        doc = build_checkpoint(entries, epoch=self.snapshots,
                               fingerprint=self.fingerprint,
                               program=self.program, args=self.args)
        os.makedirs(self.spec.dir, exist_ok=True)
        path = os.path.join(self.spec.dir,
                            f"ckpt-{self.snapshots:06d}.json")
        text = canonical_json(doc) + "\n"  # encoded once, written twice
        write_atomic(text, path)
        write_atomic(text, os.path.join(self.spec.dir, LATEST))
        self.snapshots += 1
        self.elements = sum(len(entry["elements"]) for entry in entries)
        self.last_path = path
        return path

    def stats(self) -> dict | None:
        """The ``ckpt`` summary a run result carries (None = inactive)."""
        if not self.snapshots:
            return None
        return {"snapshots": self.snapshots, "elements": self.elements,
                "dir": self.spec.dir}


def run_summary(ckpt, restore, registry) -> dict | None:
    """The ``ckpt`` summary a run result carries, from its writer and/or
    restore (None = durable execution was off); nonzero counts also land
    in ``registry`` (when there is one) as the ``ckpt.*`` family."""
    info = ckpt.stats() if ckpt is not None else None
    if restore is not None:
        info = dict(info or {})
        info["restored_elements"] = restore.total_elements
        info["resumed_from"] = restore.id
    if registry is not None and info:
        for key in ("snapshots", "elements", "restored_elements"):
            if info.get(key):
                registry.inc(f"ckpt.{key}", info[key])
    return info


# ---------------------------------------------------------------------
# restore accessors
# ---------------------------------------------------------------------


class CkptRestore:
    """Read-side view of a checkpoint a resume seeds state from.

    Arrays are addressed by *allocation ordinal* (1-based position in
    ``seq`` order), because allocation order is replicated and
    deterministic across every substrate — the same program allocates
    the same arrays in the same order whether it runs on 2 workers,
    4 workers or 3 nodes.  Pages and ownership are re-derived by the
    resuming run at its own width.
    """

    def __init__(self, doc: dict) -> None:
        problems = validate(doc)
        if problems:
            raise CheckpointError("invalid checkpoint: "
                                  + "; ".join(problems))
        self.doc = doc
        self.id = ckpt_id(doc)  # read at least twice by a resume
        self._by_ordinal: dict[int, tuple[tuple[int, ...], dict[int, object]]] = {
            ordinal: (tuple(entry["dims"]), dict(entry["elements"]))
            for ordinal, entry in enumerate(
                sorted(doc["arrays"], key=lambda a: a["seq"]), start=1)}

    @property
    def source(self) -> str | None:
        return self.doc.get("program", {}).get("source")

    @property
    def entry(self) -> str:
        return self.doc.get("program", {}).get("entry", "main")

    @property
    def args(self) -> tuple:
        return tuple(self.doc.get("args", []))

    @property
    def backend(self) -> str | None:
        return self.doc.get("config", {}).get("backend")

    @property
    def parallelism(self) -> int | None:
        return self.doc.get("config", {}).get("parallelism")

    @property
    def total_elements(self) -> int:
        return sum(len(e) for _, e in self._by_ordinal.values())

    def ordinals(self) -> list[int]:
        return sorted(self._by_ordinal)

    def array(self, ordinal: int) -> tuple[tuple[int, ...], dict[int, object]] | None:
        """(dims, {offset: value}) for the ordinal-th allocation."""
        return self._by_ordinal.get(ordinal)
