"""The one canonical JSON encoding, content address, source hash and
file write shared by run records and checkpoints."""

from __future__ import annotations

import hashlib
import json
import os


def canonical_json(doc: dict) -> str:
    """The one byte encoding of a document (sorted keys, no whitespace)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def content_address(doc: dict) -> str:
    """sha256 hex digest of a document's canonical bytes."""
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def write_atomic(text: str, path: str) -> None:
    """Write ``text`` to ``path`` whole or not at all: a reader sees the
    old file or the new one, never a torn one (tmp file + ``os.replace``)."""
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def source_hash(source: str) -> str:
    """Content hash of a program's IdLite source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def source_hash_problems(program: dict) -> list[str]:
    """The one rule for ``program.source_sha256``: when present, a
    64-character string."""
    sha = program.get("source_sha256")
    if "source_sha256" in program and not (isinstance(sha, str)
                                           and len(sha) == 64):
        return ["'program.source_sha256' must be a sha256 hex digest"]
    return []
