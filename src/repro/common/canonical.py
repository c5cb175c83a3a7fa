"""The one canonical JSON encoding shared by run records and checkpoints."""

from __future__ import annotations

import json


def canonical_json(doc: dict) -> str:
    """The one byte encoding of a document (sorted keys, no whitespace)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
