"""Pinned compiler output: every in-tree IdLite source, compiled with and
without ``optimize``, is held to the sha256 of its SP listing and of its
``.pods`` serialization.

The fixture ``compile_fingerprint.json`` was generated before the lexer,
parser and per-node dispatch of the front end were rewritten for speed;
the rewrite was required to leave every byte the compiler emits alone,
and this test holds it (and any later front-end change) to that with
``==``.

If a deliberate codegen change moves a hash, regenerate with::

    PYTHONPATH=src python -m tests.translator.test_compile_fingerprint

and review the listing diff that caused it.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import sys

import pytest

from repro.api import compile_source
from repro.apps.livermore import KERNELS
from repro.apps.matmul import MATMUL_CHECKSUM_SOURCE, MATMUL_SOURCE
from repro.apps.nbody import NBODY_SOURCE
from repro.apps.simple_app import simple_source
from repro.apps.stencil import STENCIL_SOURCE
from repro.lang.lexer import tokenize
from repro.translator.serialize import program_to_dict

FIXTURE = os.path.join(os.path.dirname(__file__), "compile_fingerprint.json")
EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples",
                        "programs")


def sources() -> dict[str, str]:
    """name -> source text of every IdLite program the repository ships."""
    out = {
        "simple": simple_source(),
        "simple-conduction": simple_source(conduction_only=True),
        "matmul": MATMUL_SOURCE,
        "matmul-checksum": MATMUL_CHECKSUM_SOURCE,
        "stencil": STENCIL_SOURCE,
        "nbody": NBODY_SOURCE,
    }
    out.update((f"lk-{name}", KERNELS[name]) for name in sorted(KERNELS))
    for path in sorted(glob.glob(os.path.join(EXAMPLES, "*.idl"))):
        with open(path) as fh:
            out[f"example-{os.path.basename(path)[:-4]}"] = fh.read()
    return out


def fingerprint(source: str, optimize: bool) -> dict[str, str]:
    program = compile_source(source, optimize=optimize)
    # The bytes ``save_program`` writes.
    pods = json.dumps(program_to_dict(program.pods), indent=1)
    return {"listing": hashlib.sha256(program.listing().encode()).hexdigest(),
            "pods": hashlib.sha256(pods.encode()).hexdigest()}


def current() -> dict[str, dict[str, str]]:
    return {f"{name}{'+opt' if optimize else ''}": fingerprint(text, optimize)
            for name, text in sources().items()
            for optimize in (False, True)}


def pinned() -> dict[str, dict[str, str]]:
    if not os.path.exists(FIXTURE):
        return {}
    with open(FIXTURE) as fh:
        return json.load(fh)


PINNED = pinned()


def test_every_in_tree_source_is_pinned():
    assert sorted(PINNED) == sorted(current())


@pytest.mark.parametrize("name", sorted(PINNED))
def test_compile_output_is_unchanged(name):
    text = sources()[name.removesuffix("+opt")]
    assert fingerprint(text, name.endswith("+opt")) == PINNED[name]


class TestCompileHostWorkBudget:
    """A standing budget for Python work per source token: the compile
    counterpart of the simulator's ``TestHostWorkBudget``, over the
    same in-tree sources the fingerprint pins."""

    # An upper bound; 27.7 when it was set.  Before the front end lexed
    # one match per token, parsed expressions by precedence climbing and
    # chose node handlers by ``type()``, it was 39.8.
    CALLS_PER_TOKEN = 29

    def test_python_calls_per_token(self):
        per_token = self.calls_per_token()
        assert per_token <= self.CALLS_PER_TOKEN, per_token

    @staticmethod
    def calls_per_token() -> float:
        texts = list(sources().values())
        tokens = sum(len(tokenize(text)) for text in texts)
        calls = 0

        def count(frame, event, arg):
            nonlocal calls
            if event == "call" or event == "c_call":
                calls += 1

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            for text in texts:
                compile_source(text)
        finally:
            sys.setprofile(previous)
        return calls / tokens


if __name__ == "__main__":  # regenerate the fixture
    text = json.dumps(current(), indent=1, sort_keys=True) + "\n"
    with open(FIXTURE, "w") as fh:
        fh.write(text)
    print(f"wrote {FIXTURE} ({len(text)} bytes)")
