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

import functools
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


def count_calls(work) -> int:
    """Python calls and builtin calls made while ``work()`` runs."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        work()
    finally:
        sys.setprofile(previous)
    return calls


@functools.cache
def compile_work() -> tuple[int, int, int]:
    """(calls, tokens, graph nodes) of one ``compile_source`` of every
    in-tree source."""
    texts = list(sources().values())
    tokens = sum(len(tokenize(text)) for text in texts)
    programs = []
    calls = count_calls(lambda: programs.extend(map(compile_source, texts)))
    nodes = sum(len(block.defs) for program in programs
                for block in program.graph.blocks.values())
    return calls, tokens, nodes


class TestCompileHostWorkBudget:
    """A standing budget for the compiler's Python work: calls (Python
    frames and builtins) per source token and per graph node over
    ``compile_source``, and per instruction over ``listing()``.  The
    compile counterpart of the simulator's ``TestHostWorkBudget``, over
    the same in-tree sources the fingerprint pins (7 139 tokens, 2 603
    graph nodes, 2 441 instructions)."""

    # Upper bounds, each a little above the value measured on Python
    # 3.11 when it was set (3.12 reads a little lower).  Per token: 39.8
    # before the front end lexed one match per token, parsed expressions
    # by precedence climbing and chose node handlers by ``type()``; 27.7
    # after; 17.8 once a token was a plain tuple, operands were built
    # inline and the middle passes tested ``type()`` instead of calling
    # ``isinstance``.  Per graph node: 76.1 before that last change,
    # 48.9 after.  Per listed instruction: 10.9 while ``Instr.__repr__``
    # built an operand list and a list of parts, 2.3 after.
    CALLS_PER_TOKEN = 18.5
    CALLS_PER_NODE = 50
    CALLS_PER_INSTR = 2.4

    def test_python_calls_per_token(self):
        calls, tokens, _ = compile_work()
        assert calls / tokens <= self.CALLS_PER_TOKEN, calls / tokens

    def test_python_calls_per_graph_node(self):
        calls, _, nodes = compile_work()
        assert calls / nodes <= self.CALLS_PER_NODE, calls / nodes

    def test_python_calls_per_listed_instruction(self):
        programs = [compile_source(text) for text in sources().values()]
        instrs = sum(p.pods.instruction_count() for p in programs)
        calls = count_calls(lambda: [p.listing() for p in programs])
        assert calls / instrs <= self.CALLS_PER_INSTR, calls / instrs


if __name__ == "__main__":  # regenerate the fixture
    text = json.dumps(current(), indent=1, sort_keys=True) + "\n"
    with open(FIXTURE, "w") as fh:
        fh.write(text)
    print(f"wrote {FIXTURE} ({len(text)} bytes)")
