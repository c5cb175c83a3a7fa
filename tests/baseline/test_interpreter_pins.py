"""Pinned edges of the IdLite interpreter that no application reaches.

``reference_fingerprint.json`` holds the applications and the taxonomy's
program faults to the retired tree walker's bits.  This module pins the
corners a code generator for the interpreter can get wrong and an
application never runs into: the text of a type error two loops deep, a
scalar indexed through a function parameter inside a loop, both runaway
guards, a fractional loop start, a ``next`` assigned in one branch only,
a descending loop carrying two variables, and a variable carried from
inside a distributed loop's iteration.  The fixture
``interpreter_pins.json`` was produced by the compile-once closure
interpreter over this module's own matrix: each case on ``seq`` and on
``static`` at 1 and 4 PEs, pinned with ``==`` like the reference
fingerprint (value and modeled time of a run that completes, error class
and exact text of one that fails).

The value cases also run through an in-process ``SpmdInterpreter``
(``PlainSpmd``, every identity of a width) and must return the pinned
``seq`` value; so must every error whose text names no array class.

The ``while`` runaway guard takes ten million iterations, so its
``static`` rows are marked ``slow`` (``pytest -m ""`` runs them).

Regenerate only deliberately, and review the diff::

    PYTHONPATH=src python -m tests.baseline.test_interpreter_pins
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api import compile_source
from repro.common.errors import RuntimeFault
from tests.baseline.test_reference_fingerprint import fingerprint
from tests.runtime.test_spmd import PlainSpmd

FIXTURE = os.path.join(os.path.dirname(__file__), "interpreter_pins.json")

# name -> (source, args)
ERRORS = {
    # The text names the operator and its source location.
    "binary-type-two-loops-deep": ("""
function main(n) {
    B = array(n);
    s = 0.0;
    for i = 1 to n {
        for j = 1 to n { next s = s + B * j; }
    }
    return s;
}""", (3,)),
    # Found at the read, inside the callee's loop.
    "not-an-array-parameter": ("""
function total(a, n) {
    s = 0;
    for i = 1 to n { next s = s + a[i]; }
    return s;
}
function main(n) { return total(n, n); }""", (3,)),
    "while-runaway": ("""
function main(n) {
    k = 0;
    while k >= 0 { next k = k + 1; }
    return k;
}""", (1,)),
    "call-depth": ("""
function down(n) { return if n > 0 then down(n + 1) else 0; }
function main(n) { return down(n); }""", (1,)),
}

VALUES = {
    "fractional-start": ("""
function main(n) {
    s = 0.0;
    for i = 1.5 to n { next s = s + i * i; }
    return s;
}""", (6,)),
    "next-in-one-branch": ("""
function main(n) {
    s = 0;
    c = 0;
    for i = 1 to n {
        if i > n / 2 { next s = s + i; } else { next c = c + 1; }
    }
    return s * 100 + c;
}""", (9,)),
    "descending-two-carried": ("""
function main(n) {
    a = 0;
    b = 1;
    for i = n downto 1 { next a = b + i; next b = a * 2 - i; }
    return a * 1000 + b;
}""", (7,)),
    # The distributed i-loop's iteration carries ``t`` through an inner
    # loop and reads an array allocated outside it.
    "carried-inside-distributed": ("""
function main(n) {
    A = array(n);
    W = array(n);
    for i = 1 to n { W[i] = 2 * i; }
    for i = 1 to n {
        t = 0;
        for j = 1 to i { next t = t + W[j]; }
        A[i] = t;
    }
    s = 0;
    for i = 1 to n { next s = s + A[i]; }
    return s;
}""", (9,)),
}

CASES = {**ERRORS, **VALUES}
CONFIGS = {"seq": None, "static/pes=1": 1, "static/pes=4": 4}
SLOW = {("while-runaway", "static/pes=1"), ("while-runaway", "static/pes=4")}


def pin(name: str, config: str) -> dict:
    source, args = CASES[name]
    return fingerprint(compile_source(source), args, CONFIGS[config])


def spmd(name: str, width: int) -> list:
    """What every identity of an in-process SPMD run returns (or the
    error it stops with)."""
    source, args = CASES[name]
    program = compile_source(source)
    store: dict = {}
    out = []
    for ident in range(width):
        try:
            out.append(PlainSpmd(program, (ident,), width, store)
                       .run(args).value)
        except RuntimeFault as exc:
            out.append({"error": type(exc).__name__, "text": str(exc)})
    return out


@pytest.fixture(scope="module")
def pinned() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name, config", [
    pytest.param(name, config, id=f"{name}-{config}",
                 marks=[pytest.mark.slow] if (name, config) in SLOW else [])
    for name in sorted(CASES) for config in CONFIGS])
def test_pinned(pinned, name, config):
    got = pin(name, config)
    assert ("error" in got) == (name in ERRORS)
    assert got == pinned[name][config]


# The identities of an in-process run execute one after another, so a
# case that reads another identity's elements runs at width 1 only, as
# does the ten-million-iteration guard.
SPMD = [(name, width) for name in sorted(CASES)
        if name != "binary-type-two-loops-deep"  # its text names a class
        for width in ((1,) if name in ("while-runaway",
                                       "carried-inside-distributed")
                      else (1, 3))]


@pytest.mark.parametrize("name, width", SPMD,
                         ids=[f"{n}-width{w}" for n, w in SPMD])
def test_spmd_core_agrees(pinned, name, width):
    expected = pinned[name]["seq"]
    expected = expected if "error" in expected else expected["value"]
    assert spmd(name, width) == [expected] * width


def test_fixture_has_no_stale_rows(pinned):
    assert {name: sorted(rows) for name, rows in pinned.items()} == {
        name: sorted(CONFIGS) for name in CASES}


if __name__ == "__main__":  # regenerate the fixture
    table = {name: {config: pin(name, config) for config in CONFIGS}
             for name in CASES}
    text = json.dumps(table, indent=1, sort_keys=True) + "\n"
    with open(FIXTURE, "w") as fh:
        fh.write(text)
    print(f"wrote {FIXTURE} ({len(text)} bytes)")
