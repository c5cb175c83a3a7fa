"""Pinned front-end diagnostics: what the lexer, parser and semantic
analysis make of malformed (and some well-formed) inputs.

``diagnostics_golden.jsonl`` holds one ``[input, outcome]`` pair a line.
The inputs are ~2 000 seeded random expressions — the operators ``or and
not < <= == + - * / % ^``, unary minus, calls, subscripts, parentheses
and conditional expressions, written without regard to precedence and
sometimes broken by a deleted or inserted token — and every single-token
deletion from five in-tree programs.  The outcome is the AST ``repr``
(locations included) of an expression that parses, a short hash of the
AST ``repr`` and of the SP listing of a program that compiles, or
``"<LanguageError class> <line:column: message>"`` for one that fails.

The file was generated before the lexer and parser were rewritten, so
it holds the rewrite (and any later front-end change) to the old
grammar's every tree and every error, message and position included.
Regenerate only for a deliberate diagnostics change, with::

    PYTHONPATH=src python -m tests.lang.test_diagnostics_golden
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re

from repro.api import compile_source
from repro.apps.livermore import KERNELS
from repro.apps.matmul import MATMUL_SOURCE
from repro.apps.nbody import NBODY_SOURCE
from repro.apps.stencil import STENCIL_SOURCE
from repro.common.errors import LanguageError
from repro.lang.parser import parse_expression

GOLDEN = os.path.join(os.path.dirname(__file__), "diagnostics_golden.jsonl")
EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "..", "examples",
                        "programs")

EXPRESSIONS = 2000
BINARY = ["or", "and", "<", "<=", "==", "+", "-", "*", "/", "%", "^"]
ATOMS = ["a", "b", "x1", "0", "2", "3.5", "1e2", "true", "false"]
SEPARATORS = [" ", " ", " ", "", "\n", "  "]

# A lexeme as this test splits source for deletion — deliberately not
# the lexer under test.  Comments are matched so they are skipped whole.
_PIECE = re.compile(r"(?:#|//)[^\n]*|\d+(?:\.\d*)?(?:[eE][+-]?\d+)?"
                    r"|\w+|[<>=!]=|\S")


def _expr(rng: random.Random, depth: int) -> list[str]:
    roll = rng.random()
    if depth == 0 or roll < 0.25:
        return [rng.choice(ATOMS)]
    if roll < 0.55:
        return (_expr(rng, depth - 1) + [rng.choice(BINARY)]
                + _expr(rng, depth - 1))
    if roll < 0.63:
        return ["not"] + _expr(rng, depth - 1)
    if roll < 0.71:
        return ["-"] + _expr(rng, depth - 1)
    if roll < 0.79:
        return ["("] + _expr(rng, depth - 1) + [")"]
    if roll < 0.95:
        name, close = rng.choice([("f", ")"), ("A", "]")])
        out = [name, "(" if close == ")" else "["]
        for k in range(rng.randint(0 if close == ")" else 1, 2)):
            out += ([","] if k else []) + _expr(rng, depth - 1)
        return out + [close]
    return (["if"] + _expr(rng, depth - 1) + ["then"] + _expr(rng, depth - 1)
            + ["else"] + _expr(rng, depth - 1))


def expression_inputs() -> list[str]:
    rng = random.Random("diagnostics-golden")
    out = []
    for _ in range(EXPRESSIONS):
        pieces = _expr(rng, rng.randint(1, 4))
        roll = rng.random()
        if roll < 0.15 and len(pieces) > 1:
            del pieces[rng.randrange(len(pieces))]
        elif roll < 0.3:
            pieces.insert(rng.randint(0, len(pieces)),
                          rng.choice(BINARY + ["(", ")", ",", "not", "["]))
        out.append("".join(p + rng.choice(SEPARATORS) for p in pieces))
    return out


def deletion_inputs() -> list[tuple[str, str]]:
    """Every program of five with one of its lexemes cut out, each as
    ``(label, source)``."""
    with open(os.path.join(EXAMPLES, "sweep.idl")) as fh:
        programs = {"matmul": MATMUL_SOURCE, "stencil": STENCIL_SOURCE,
                    "nbody": NBODY_SOURCE, "lk-tridiag": KERNELS["tridiag"],
                    "example-sweep": fh.read()}
    out = []
    for name, text in programs.items():
        for m in _PIECE.finditer(text):
            if m.group()[0] not in "#/" or m.group() == "/":
                out.append((f"{name} without {m.group()!r} at offset "
                            f"{m.start()}",
                            text[:m.start()] + text[m.end():]))
    return out


def _short(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _error(exc: LanguageError) -> str:
    return f"{type(exc).__name__} {exc}"


def expression_outcome(source: str) -> str:
    try:
        return repr(parse_expression(source))
    except LanguageError as exc:
        return _error(exc)


def program_outcome(source: str) -> str:
    try:
        program = compile_source(source)
    except LanguageError as exc:
        return _error(exc)
    return f"ast {_short(repr(program.ast))} listing {_short(program.listing())}"


def inputs() -> list[tuple[str, str]]:
    """``(label, source)`` of every input: an expression is its own label."""
    return ([(s, s) for s in expression_inputs()] + deletion_inputs())


def outcome(index: int, source: str) -> str:
    if index < EXPRESSIONS:
        return expression_outcome(source)
    return program_outcome(source)


def current() -> list[list[str]]:
    return [[label, outcome(k, source)]
            for k, (label, source) in enumerate(inputs())]


def pinned() -> list[list[str]]:
    with open(GOLDEN) as fh:
        return [json.loads(line) for line in fh]


def test_generated_inputs_are_the_pinned_ones():
    assert [label for label, _ in pinned()] == [
        label for label, _ in inputs()]


def test_the_golden_fails_often_enough_to_mean_something():
    outcomes = [outcome for _, outcome in pinned()]
    errors = sum(o.startswith(("LexError", "ParseError", "SemanticError"))
                 for o in outcomes)
    assert 0.2 * len(outcomes) < errors < 0.8 * len(outcomes)


def test_every_outcome_is_unchanged():
    mismatched = [(label, want, have) for (label, want), (_, have)
                  in zip(pinned(), current()) if want != have]
    assert not mismatched, mismatched[:5]


if __name__ == "__main__":  # regenerate the golden file
    with open(GOLDEN, "w") as fh:
        for pair in current():
            fh.write(json.dumps(pair, ensure_ascii=False) + "\n")
    print(f"wrote {GOLDEN} ({os.path.getsize(GOLDEN)} bytes)")
