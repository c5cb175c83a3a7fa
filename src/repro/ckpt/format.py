"""Durable checkpoints: schema ``pods-ckpt/v1`` + writers/restores.

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

Schema ``pods-ckpt/v1``::

    {
      "schema": "pods-ckpt/v1",
      "program": {"name": "main", "entry": "main",
                  "source_sha256": "...", "source": "..."},
      "args": [8, 1],
      "config": {"backend": "parallel", "parallelism": 2, ...},
      "epoch": 3,                       # writer's snapshot ordinal
      "arrays": [
        {"seq": 1, "dims": [8, 8], "page_size": 32,
         "bitmap": "ff03...",           # presence bits, LSB-first
         "pages": {"0": [[0, 1.0], [1, 2.0]], ...}}  # page -> [off, v]
      ],
      "progress": [{"identity": 0, "complete": true}, ...]
    }

``bitmap`` and ``pages`` are redundant by construction — the validator
cross-checks them — because the bitmap is the cheap *presence* query
(how much of the array exists?) while the element pages carry the
values replay needs.  Ownership is deliberately **absent** from the
format: which worker/node re-derives which element follows from
first-element ownership at whatever width the resume runs at, which is
what lets a 2-worker checkpoint resume on 4 workers (or 3 nodes).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

from repro.common.canonical import (canonical_json, content_address,
                                    source_hash, source_hash_problems)
from repro.common.errors import PodsError

SCHEMA = "pods-ckpt/v1"
ID_ABBREV = 12


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


def _flat_size(dims) -> int:
    total = 1
    for d in dims:
        total *= d
    return total


def bitmap_hex(total: int, offsets) -> str:
    """Presence bitmap over ``total`` elements as hex (LSB-first bits)."""
    buf = bytearray((total + 7) // 8)
    for off in offsets:
        if not 0 <= off < total:
            raise CheckpointError(
                f"offset {off} outside array of {total} elements")
        buf[off >> 3] |= 1 << (off & 7)
    return buf.hex()

def bitmap_offsets(hexmap: str) -> set[int]:
    """The set of present offsets encoded by :func:`bitmap_hex`."""
    out: set[int] = set()
    buf = bytes.fromhex(hexmap)
    for byte_i, byte in enumerate(buf):
        while byte:
            bit = byte & -byte
            out.add((byte_i << 3) + bit.bit_length() - 1)
            byte ^= bit
    return out


def array_entry(seq: int, dims, page_size: int,
                elements: dict[int, object]) -> dict:
    """One ``arrays[]`` entry from a flat ``offset -> value`` mapping."""
    total = _flat_size(dims)
    pages: dict[str, list] = {}
    for off in sorted(elements):
        value = elements[off]
        if not isinstance(value, (int, float, bool)):
            raise CheckpointError(
                f"cannot checkpoint a {type(value).__name__} element")
        pages.setdefault(str(off // page_size), []).append([off, value])
    return {"seq": seq, "dims": list(dims), "page_size": page_size,
            "bitmap": bitmap_hex(total, elements), "pages": pages}


def build_checkpoint(arrays: list[dict], progress: list[dict],
                     epoch: int, fingerprint: dict | None = None,
                     program: dict | None = None,
                     args: tuple = ()) -> dict:
    """Assemble (and validate) one ``pods-ckpt/v1`` document.

    ``arrays`` entries come from :func:`array_entry`; ``progress`` rows
    are ``{"identity": i, "complete": bool}`` — which identities'
    Range-Filter subranges had fully executed at the cut (informational:
    correctness rests on the presence bits alone).
    """
    doc = {
        "schema": SCHEMA,
        "program": dict(program or {}),
        "args": [a if isinstance(a, (int, float, str, bool, type(None)))
                 else str(a) for a in args],
        "config": dict(fingerprint or {}),
        "epoch": epoch,
        "arrays": arrays,
        "progress": progress,
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
    """Structural + cross-consistency check; empty list = valid."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["checkpoint must be an object"]
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema must be {SCHEMA!r}, got "
                        f"{doc.get('schema')!r}")
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
        total = _flat_size(dims)
        page_size = a.get("page_size")
        if not isinstance(page_size, int) or isinstance(page_size, bool) \
                or page_size < 1:
            problems.append(f"{where}: 'page_size' must be a positive int")
            continue
        bitmap = a.get("bitmap")
        if not isinstance(bitmap, str) or \
                len(bitmap) != 2 * ((total + 7) // 8):
            problems.append(f"{where}: 'bitmap' must be "
                            f"{2 * ((total + 7) // 8)} hex chars for "
                            f"{total} elements")
            continue
        try:
            present = bitmap_offsets(bitmap)
        except ValueError:
            problems.append(f"{where}: 'bitmap' is not hex")
            continue
        if present and max(present) >= total:
            problems.append(f"{where}: bitmap sets bits beyond the array")
        pages = a.get("pages")
        if not isinstance(pages, dict):
            problems.append(f"{where}: 'pages' must be an object")
            continue
        paged: set[int] = set()
        for key, cells in pages.items():
            pwhere = f"{where}.pages[{key!r}]"
            try:
                page = int(key)
            except ValueError:
                problems.append(f"{pwhere}: key must be a page index")
                continue
            if not isinstance(cells, list) or not cells:
                problems.append(f"{pwhere}: must be a non-empty array")
                continue
            for cell in cells:
                if not (isinstance(cell, list) and len(cell) == 2
                        and isinstance(cell[0], int)
                        and not isinstance(cell[0], bool)
                        and isinstance(cell[1], (int, float, bool))):
                    problems.append(f"{pwhere}: cells must be "
                                    "[offset, scalar] pairs")
                    break
                off = cell[0]
                if off // page_size != page:
                    problems.append(f"{pwhere}: offset {off} belongs to "
                                    f"page {off // page_size}")
                    break
                if off in paged:
                    problems.append(f"{pwhere}: offset {off} appears twice")
                    break
                paged.add(off)
        if paged != present:
            problems.append(f"{where}: bitmap and element pages disagree "
                            f"({len(present)} bits vs {len(paged)} "
                            "elements)")
    progress = doc.get("progress")
    if not isinstance(progress, list):
        problems.append("'progress' must be an array")
    else:
        for i, p in enumerate(progress):
            if not (isinstance(p, dict)
                    and isinstance(p.get("identity"), int)
                    and not isinstance(p.get("identity"), bool)
                    and isinstance(p.get("complete"), bool)):
                problems.append(f"progress[{i}]: must be "
                                "{identity, complete}")
    return problems


# ---------------------------------------------------------------------
# save / load
# ---------------------------------------------------------------------


def save(doc: dict, path: str) -> str:
    """Write canonical bytes atomically (tmp + rename); returns path."""
    return _write(canonical_json(doc) + "\n", path)


def _write(text: str, path: str) -> str:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)
    return path


def load(path: str) -> dict:
    """Load + validate a checkpoint file (or a directory's latest)."""
    if os.path.isdir(path):
        path = os.path.join(path, LATEST)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise CheckpointError(f"no checkpoint at {path}") from None
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: not JSON ({exc})") from exc
    problems = validate(doc)
    if problems:
        raise CheckpointError(f"{path}: " + "; ".join(problems))
    return doc


LATEST = "latest.json"


# ---------------------------------------------------------------------
# the writer every substrate drives
# ---------------------------------------------------------------------


class CkptWriter:
    """Paced checkpoint emission into ``spec.dir``.

    Substrate-agnostic: callers hand :meth:`snapshot` an iterable of
    ``(seq, dims, page_size, {offset: value})`` tuples plus the
    completed-identity set, and the writer persists one numbered
    ``ckpt-NNNNNN.json`` and refreshes ``latest.json``.  The program /
    config identity is bound at construction (by the backend layer,
    which knows the source text and fingerprint).
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

    # -- emission -----------------------------------------------------

    def snapshot(self, arrays, identities_done, identities_total: int,
                 now: float | None = None) -> str:
        """Persist one checkpoint; returns the file path written."""
        entries = [array_entry(seq, dims, page_size, elements)
                   for seq, dims, page_size, elements in arrays]
        progress = [{"identity": i, "complete": i in identities_done}
                    for i in range(identities_total)]
        doc = build_checkpoint(entries, progress, epoch=self.snapshots,
                               fingerprint=self.fingerprint,
                               program=self.program, args=self.args)
        os.makedirs(self.spec.dir, exist_ok=True)
        path = os.path.join(self.spec.dir,
                            f"ckpt-{self.snapshots:06d}.json")
        text = canonical_json(doc) + "\n"  # encoded once, written twice
        _write(text, path)
        _write(text, os.path.join(self.spec.dir, LATEST))
        self.snapshots += 1
        self.elements = sum(
            sum(len(cells) for cells in entry["pages"].values())
            for entry in entries)
        if now is not None:
            self._next_due = now + self.spec.interval_s
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
    4 workers or 3 nodes.  Page size and ownership are re-derived by
    the resuming run at its own width.
    """

    def __init__(self, doc: dict) -> None:
        problems = validate(doc)
        if problems:
            raise CheckpointError("invalid checkpoint: "
                                  + "; ".join(problems))
        self.doc = doc
        self._by_ordinal: dict[int, tuple[tuple[int, ...], dict[int, object]]] = {}
        for ordinal, entry in enumerate(
                sorted(doc.get("arrays", []), key=lambda a: a["seq"]),
                start=1):
            elements: dict[int, object] = {}
            for cells in entry["pages"].values():
                for off, value in cells:
                    elements[off] = value
            self._by_ordinal[ordinal] = (tuple(entry["dims"]), elements)

    @property
    def id(self) -> str:
        return ckpt_id(self.doc)

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
