"""Pinned token stream: every in-tree IdLite source (the same set the
compile fingerprint pins) is held to the sha256 of its tokens, each
written as ``(kind, repr(value), line, column)``.

``token_stream.json`` was generated before a token stopped being an
object with a ``SourceLocation`` and became a plain tuple; the change
was required to leave every kind, value and position alone, and this
test holds it (and any later lexer change) to that with ``==``.

A diff here is a behaviour change to review, never a fixture to
refresh.  Regenerate only for a deliberate lexer change, with::

    PYTHONPATH=src python -m tests.lang.test_token_stream
"""

from __future__ import annotations

import hashlib
import json
import os

import pytest

from repro.lang.lexer import tokenize
from tests.translator.test_compile_fingerprint import sources

FIXTURE = os.path.join(os.path.dirname(__file__), "token_stream.json")


def digest(text: str) -> str:
    rows = [[kind, repr(value), line, column]
            for kind, value, line, column in tokenize(text)]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def current() -> dict[str, str]:
    return {name: digest(text) for name, text in sources().items()}


def pinned() -> dict[str, str]:
    if not os.path.exists(FIXTURE):
        return {}
    with open(FIXTURE) as fh:
        return json.load(fh)


PINNED = pinned()


def test_every_in_tree_source_is_pinned():
    assert sorted(PINNED) == sorted(sources())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_token_stream_is_unchanged(name):
    assert digest(sources()[name]) == PINNED[name]


if __name__ == "__main__":  # regenerate the fixture
    text = json.dumps(current(), indent=1, sort_keys=True) + "\n"
    with open(FIXTURE, "w") as fh:
        fh.write(text)
    print(f"wrote {FIXTURE} ({len(text)} bytes)")
