"""Pinned ``seq`` / ``static`` behaviour: every run is held to the tree
walker's bits.

The fixture ``reference_fingerprint.json`` was produced by the
tree-walking ``Interpreter`` (``eval`` / ``exec_stmt`` over a list of
scope dicts) at the last commit that still had one, over this module's
own matrix: every app of ``tests/conformance/matrix.py`` at its catalog
arguments plus SIMPLE at ``(8, 1)`` and ``(24, 2)``, on ``seq`` and on
``static`` at 1, 4 and 8 PEs, and seven programs that fail.  A completed
run is pinned by value and modeled ``time_us`` (``static`` adds
``pe_times`` and ``remote_misses``); a failed one by error class and
exact text.  Comparison is ``==`` on the raw values (no tolerances: the
contract is the same ``clock.charge`` calls in the same order, so the
same float accumulation — not approximately-equal times), so the fixture
only fails when the interpreter's semantics, its cost model or its
diagnostics change.

If a deliberate change shifts any of them, regenerate with::

    PYTHONPATH=src python -m tests.baseline.test_reference_fingerprint

and review the diff like any other golden-file update.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.api import compile_source
from repro.apps import compile_simple
from repro.common.errors import RuntimeFault
from tests.conformance.matrix import APPS as CATALOG
from tests.conformance.test_error_taxonomy import CASES

FIXTURE = os.path.join(os.path.dirname(__file__),
                       "reference_fingerprint.json")

APPS = [(name, build, args) for name, (build, args) in CATALOG.items()]
APPS += [("simple@8x1", lambda: compile_simple(), (8, 1)),
         ("simple@24x2", lambda: compile_simple(), (24, 2))]
STATIC_PES = [1, 4, 8]

# name -> (source, args).  The taxonomy's four program faults the tree
# walker was run on (a row added since has no reference: ``bool-subscript``
# returned ``A[1]`` there), a type error inside a binary op (the text
# names the source location and the operator), recursion past the
# call-depth guard, and a subscripted scalar.
ERROR_PROGRAMS = {code: (CASES[code], (6,)) for code in (
    "bounds", "deadlock", "float-subscript", "single-assignment")}
ERROR_PROGRAMS["type-error"] = (
    "function main(n) { A = matrix(n, n); return A + 1; }", (3,))
ERROR_PROGRAMS["call-depth"] = (
    "function down(n) { return down(n + 1); }\n"
    "function main() { return down(0); }", ())
ERROR_PROGRAMS["not-an-array"] = ("function main(n) { return n[1]; }", (3,))
ERROR_PES = 2


def fingerprint(program, args: tuple, pes: int | None = None) -> dict:
    """What one run is pinned by: ``seq`` when ``pes`` is None, else
    ``static`` at that width (see the module docstring)."""
    try:
        if pes is None:
            raw = program.run(args, backend="seq").raw
            return {"value": raw.value, "time_us": raw.time_us}
        raw = program.run(args, backend="static", parallelism=pes).raw
    except RuntimeFault as exc:
        return {"error": type(exc).__name__, "text": str(exc)}
    return {"value": raw.value, "time_us": raw.time_us,
            "pe_times": raw.pe_times, "remote_misses": raw.remote_misses}


def app_fingerprints(program, args: tuple) -> dict:
    out = {"seq": fingerprint(program, args)}
    for pes in STATIC_PES:
        out[f"static/pes={pes}"] = fingerprint(program, args, pes)
    return out


def error_fingerprints(name: str) -> dict:
    source, args = ERROR_PROGRAMS[name]
    program = compile_source(source)
    return {"seq": fingerprint(program, args),
            f"static/pes={ERROR_PES}": fingerprint(program, args, ERROR_PES)}


def current() -> dict:
    """The whole matrix on the interpreter as it is now, keyed like the
    fixture."""
    out = {f"app/{name}": app_fingerprints(build(), args)
           for name, build, args in APPS}
    out.update((f"error/{name}", error_fingerprints(name))
               for name in ERROR_PROGRAMS)
    return out


@pytest.fixture(scope="module")
def pinned() -> dict:
    with open(FIXTURE) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name, build, args", APPS, ids=[a[0] for a in APPS])
def test_app_bit_identical(pinned, name, build, args):
    assert app_fingerprints(build(), args) == pinned[f"app/{name}"]


@pytest.mark.parametrize("name", sorted(ERROR_PROGRAMS))
def test_error_text_identical(pinned, name):
    got = error_fingerprints(name)
    assert all("error" in cell for cell in got.values())
    assert got == pinned[f"error/{name}"]


def test_fixture_has_no_stale_rows(pinned):
    assert sorted(pinned) == sorted(
        [f"app/{a[0]}" for a in APPS]
        + [f"error/{name}" for name in ERROR_PROGRAMS])


if __name__ == "__main__":  # regenerate the fixture
    text = json.dumps(current(), indent=1, sort_keys=True) + "\n"
    with open(FIXTURE, "w") as fh:
        fh.write(text)
    print(f"wrote {FIXTURE} ({len(text)} bytes)")
