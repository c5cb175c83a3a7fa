"""The run ledger: an append-only, content-addressed store of run records.

Layout (default root ``.pods-runs/``, override with ``PODS_RUNS_DIR``)::

    .pods-runs/
      index.jsonl             # one line per deposit, append-only
      objects/ab/abcdef....json   # canonical record bytes, one per id

Records are addressed by :func:`repro.obs.runrecord.record_id` — the
sha256 of the record's deterministic projection — so depositing the
same modeled run twice stores its bytes once while the index (the
ledger proper) gains a line per deposit.  Everything written is
deterministic: canonical JSON for objects, sorted-key JSONL for index
lines, no timestamps — two ledgers built from the same runs in the same
order are byte-identical directories.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

from repro.common.canonical import write_atomic
from repro.common.errors import PodsError
from repro.obs import runrecord

DEFAULT_ROOT = ".pods-runs"
_ENV = "PODS_RUNS_DIR"

# Shortest id prefix ``get`` resolves; shorter references are ambiguous
# by construction (and "latest" is reserved).
MIN_PREFIX = 6


class RunStoreError(PodsError):
    """A ledger lookup or deposit failed (missing/ambiguous/corrupt)."""


@dataclass(frozen=True)
class IndexEntry:
    """One ledger line: the identity columns ``pods runs list`` shows."""

    seq: int
    id: str
    program: str
    backend: str
    parallelism: int
    time_us: float | None
    wall_time_s: float | None

    def to_json(self) -> str:
        return json.dumps(
            {"seq": self.seq, "id": self.id, "program": self.program,
             "backend": self.backend, "parallelism": self.parallelism,
             "time_us": self.time_us, "wall_time_s": self.wall_time_s},
            sort_keys=True, separators=(",", ":"))


def default_root() -> str:
    return os.environ.get(_ENV) or DEFAULT_ROOT


class RunStore:
    """Deposit, enumerate and fetch ``pods-run/v1`` records."""

    def __init__(self, root: str | None = None) -> None:
        self.root = root or default_root()

    # -- paths -----------------------------------------------------------

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, "index.jsonl")

    def object_path(self, rid: str) -> str:
        return os.path.join(self.root, "objects", rid[:2], f"{rid}.json")

    # -- writing ---------------------------------------------------------

    def put(self, record: dict) -> str:
        """Deposit one record; returns its content address.

        Validates first, writes the canonical object bytes atomically
        unless the object already holds them (so a deposit repairs a
        torn object and leaves an intact one alone), and always appends
        an index line — the ledger records every deposit even when the
        content deduplicates.
        """
        problems = runrecord.validate(record)
        if problems:
            raise RunStoreError(
                "refusing to store an invalid record: "
                + "; ".join(problems))
        rid = runrecord.record_id(record)
        path = self.object_path(rid)
        text = runrecord.canonical_json(record) + "\n"
        try:
            with open(path, "rb") as fh:
                intact = fh.read() == text.encode()
        except FileNotFoundError:
            intact = False
        if not intact:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            write_atomic(text, path)
        entry = IndexEntry(
            seq=len(self.entries()),
            id=rid,
            program=str(record.get("program", {}).get("name", "?")),
            backend=str(record.get("config", {}).get("backend", "?")),
            parallelism=int(record.get("config", {}).get("parallelism", 1)),
            time_us=record.get("result", {}).get("time_us"),
            wall_time_s=record.get("result", {}).get("wall_time_s"),
        )
        os.makedirs(self.root, exist_ok=True)
        with open(self.index_path, "a") as fh:
            fh.write(entry.to_json() + "\n")
        return rid

    # -- reading ---------------------------------------------------------

    def entries(self) -> list[IndexEntry]:
        """Every ledger line, in deposit order."""
        out: list[IndexEntry] = []
        try:
            with open(self.index_path) as fh:
                lines = fh.readlines()
        except FileNotFoundError:
            return out
        for i, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                raw = json.loads(line)
                out.append(IndexEntry(
                    seq=int(raw.get("seq", i)),
                    id=str(raw["id"]),
                    program=str(raw.get("program", "?")),
                    backend=str(raw.get("backend", "?")),
                    parallelism=int(raw.get("parallelism", 1)),
                    time_us=raw.get("time_us"),
                    wall_time_s=raw.get("wall_time_s"),
                ))
            except (ValueError, KeyError) as exc:
                raise RunStoreError(
                    f"{self.index_path}:{i + 1}: corrupt index line "
                    f"({exc})") from exc
        return out

    def select(self, program: str | None = None,
               backend: str | None = None,
               parallelism: int | None = None) -> list[IndexEntry]:
        """Ledger lines matching every given filter, in deposit order."""
        out = []
        for e in self.entries():
            if program is not None and e.program != program:
                continue
            if backend is not None and e.backend != backend:
                continue
            if parallelism is not None and e.parallelism != parallelism:
                continue
            out.append(e)
        return out

    def resolve(self, ref: str) -> str:
        """A full id, an id prefix (>= MIN_PREFIX chars) or ``latest``
        -> the full id."""
        if ref == "latest":
            entries = self.entries()
            if not entries:
                raise RunStoreError(f"run ledger {self.root!r} is empty")
            return entries[-1].id
        if len(ref) < MIN_PREFIX:
            raise RunStoreError(
                f"record reference {ref!r} is too short "
                f"(need >= {MIN_PREFIX} hex chars or 'latest')")
        ids = sorted({e.id for e in self.entries()
                      if e.id.startswith(ref)})
        if not ids:
            raise RunStoreError(
                f"no record matching {ref!r} in {self.root!r}")
        if len(ids) > 1:
            raise RunStoreError(
                f"ambiguous record reference {ref!r}: "
                + ", ".join(i[:runrecord.ID_ABBREV] for i in ids))
        return ids[0]

    def get(self, ref: str) -> dict:
        """Load a record by id / prefix / ``latest`` and re-validate."""
        rid = self.resolve(ref)
        path = self.object_path(rid)
        try:
            doc = load_record(path)
        except FileNotFoundError:
            raise RunStoreError(
                f"ledger index knows {rid[:runrecord.ID_ABBREV]} but "
                f"{path} is missing") from None
        stored = runrecord.record_id(doc)
        if stored != rid:
            raise RunStoreError(
                f"{path}: content hash mismatch (file addresses "
                f"{stored[:runrecord.ID_ABBREV]})")
        return doc


def load_record(path: str) -> dict:
    """Load + validate a record file (a ledger object or a committed
    baseline)."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise RunStoreError(f"{path}: not JSON ({exc})") from None
    problems = runrecord.validate(doc)
    if problems:
        raise RunStoreError(f"{path}: " + "; ".join(problems))
    return doc
