"""The clock-less probe against ``seq``, on the SPMD core.

Without a clock an element read of rank 1 or 2 is a probe written into
the generated function, and inside a Python ``for`` what the loop never
changes is tested once, at the loop's entry and after a reload of the
handle's fields: the tests and offset term of a subscript that is an
``int`` literal or a local bound before the loop that no ``next`` in it
rebinds, and, for the loop's own index, whether the loop's whole range
lies in the extent (``runtime.arrays.probe_source``).  The probe must
hold at exactly the iterations it held when every iteration tested
everything.

Each program here reads a vector and a matrix through every kind of
subscript — an invariant local, an ``int`` literal, an enclosing loop's
index, a ``next``-carried name, the loop's own index in ascending and
descending loops, in a loop whose range lies partly outside the extent
(the read guarded by an ``if``, or not), and in a loop with float
bounds — and runs on the core in process over shared-memory handles
(``ShmSpmd``), one interpreter per identity at widths 1 to 3, all at
once in threads.  What must match ``seq``: the value (``==``), or the
classified error wherever ``seq`` raises one.  What must match the same
identity written with a clock (which reads every element through its
handle's ``read``): each handle's ``reads``.

A fixed table of programs, then a small Hypothesis strategy over the
same template; the full strategy runs under ``-m ""``.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import compile_source
from repro.baseline.sequential import Clock
from repro.common.errors import classify_error
from tests.runtime.test_spmd import ShmSpmd, in_threads

# ``V`` and ``A`` written by Range-Filter loops; ``W`` by one whose reads
# subscript with its own index; ``L`` holds an ``int`` and a float whose
# types the writer cannot know.
PROLOGUE = """
    V = array(n);
    for i = 1 to n { V[i] = 0.5 * i + 1.0; }
    A = matrix(n, n);
    for i = 1 to n { for j = 1 to n { A[i, j] = 1.0 * i + 0.01 * j; } }
    W = array(n);
    for i = {rf} { W[i] = V[i] + A[i, i] + A[i, 2] + A[1, i]; }
    L = array(2);
    L[1] = 1;
    L[2] = 1.0;
"""

# The read nest, replicated code every identity runs after every write.
NEST = """
function main(n) {{
{prologue}
    s = 0.0;
    for i = 1 to n {{
        r = 2;
        c = 1;
        row = W[i];
        for k = {loop} {{
            {body}
            next c = c + 1;
        }}
        next s = s + row;
    }}
    return s;
}}"""


def program(loop: str, reads: str, guarded: bool = False,
            rf: str = "1 to n") -> str:
    """The nest over ``for k = {loop}``, adding ``reads`` to ``row``."""
    body = f"next row = row + {reads};"
    if guarded:
        body = f"if k >= 1 and k <= n {{ {body} }}"
    return NEST.format(prologue=PROLOGUE.replace("{rf}", rf), loop=loop,
                       body=body)


CASES = {
    "invariant-local": program("1 to n", "V[r] + A[r, k] + A[k, r] + A[r, r]"),
    "literal": program("1 to n", "V[2] + A[1, k] + A[k, 2] + A[2, 1]"),
    "enclosing-index": program("1 to n", "V[i] + A[i, k] + A[k, i] + A[i, i]"),
    "carried": program("1 to n - 1", "V[c] + A[c, k] + A[k, c] + A[c, 1]"),
    "ascending": program("1 to n", "V[k] + A[i, k] + A[k, k]"),
    "descending": program("n downto 1", "V[k] + A[i, k] + A[k, k]"),
    "descending-past-1": program("n downto 0", "V[k]"),
    "descending-past-n": program("n + 1 downto 1", "A[k, i]"),
    "partly-outside-guarded": program("0 to n + 2", "V[k] + A[k, i]",
                                      guarded=True),
    "descending-partly-outside-guarded": program(
        "n + 2 downto 0", "V[k] + A[i, k]", guarded=True),
    "float-bounds": program("L[2] to n", "V[k]"),
    "float-bounds-guarded": program("L[2] to n", "A[i, k]", guarded=True),
    "unknown-int-bounds": program("L[1] to n", "V[k] + A[k, r]"),
    "rf-descending": program("1 to n", "V[k]", rf="n downto 1"),
}
# A bound the loop's ``next`` rebinds: ``L`` has no list on an identity
# that did not write it, so its first read, at ``k = 2``, reloads the
# probe; the loop still runs to the first ``m`` (3, past ``L``'s 2).
CASES["carried-bound"] = NEST.format(
    prologue=PROLOGUE.replace("{rf}", "1 to n") + "    m = 3;",
    loop="1 to m", body="if k >= 2 { next row = row + L[k]; } next m = m - 5;")

N = 5


def outcome(run):
    """``("value", v)`` or ``("error", classified code)``."""
    try:
        return "value", run()
    except Exception as exc:  # noqa: BLE001 - classified below
        return "error", classify_error(exc)


_tags = itertools.count()


def spmd(prog, width: int, clock: bool):
    """Run ``prog`` at ``width`` on ShmSpmd identities (written with a
    clock or without): the outcome and each identity's handles' reads."""
    tag = f"probe{next(_tags)}"
    interps = [ShmSpmd(prog, p, width, tag=tag, timeout_s=10.0)
               for p in range(width)]
    if clock:
        for interp in interps:
            interp.clock = Clock()
    try:
        result = outcome(lambda: in_threads(interps, (N,)))
    finally:
        for interp in interps:
            interp.close()
    reads = [[arr.reads for arr in interp.shared_arrays] for interp in interps]
    return result, reads


def check(source: str) -> None:
    prog = compile_source(source)
    kind, want = outcome(lambda: prog.run((N,), backend="seq").value)
    for width in (1, 2, 3):
        (got_kind, got), reads = spmd(prog, width, clock=False)
        assert got_kind == kind, (width, got, want)
        if kind == "error":
            assert got == want, (width, got, want)
            continue
        assert got == [want] * width, (width, got, want)
        _, counted = spmd(prog, width, clock=True)
        assert reads == counted, (width, reads, counted)


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_probe_agrees_with_seq(name):
    check(CASES[name])


SUBSCRIPTS = st.sampled_from(["k", "i", "r", "c", "1", "2"])


@st.composite
def nests(draw) -> str:
    """A program of the template: drawn bounds and direction, one to
    three reads of drawn subscripts, guarded or not, and a drawn
    direction for the Range-Filter loop that reads ``W``."""
    first = draw(st.sampled_from(["0", "1", "2", "L[1]", "L[2]"]))
    last = draw(st.sampled_from(["n - 1", "n", "n + 1"]))
    loop = (f"{last} downto {first}" if draw(st.booleans())
            else f"{first} to {last}")
    read = st.one_of(SUBSCRIPTS.map("V[{}]".format),
                     st.tuples(SUBSCRIPTS, SUBSCRIPTS).map(
                         lambda ij: "A[{}, {}]".format(*ij)))
    reads = draw(st.lists(read, min_size=1, max_size=3))
    return program(loop, " + ".join(reads), guarded=draw(st.booleans()),
                   rf=draw(st.sampled_from(["1 to n", "n downto 1"])))


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(source=nests())
def test_drawn_nests_agree_with_seq(source):
    check(source)


@pytest.mark.slow
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(source=nests())
def test_many_drawn_nests_agree_with_seq(source):
    check(source)
