"""Church-Rosser conformance on random programs: for randomly generated
(parallel-safe) dataflow programs, the simulator and the real
multiprocessing backend must agree with a host-computed oracle — the
answer is a function of the program, never of the substrate or the
schedule (paper Section 2).

The generator builds each loop body as (IdLite source, Python lambda)
from the same draw, so the oracle is computed without trusting any
backend.  Bodies only read the loop index and the argument, keeping the
filling loop embarrassingly parallel — the shape both backends must
parallelize.  What consumes the filled array is drawn too: a scalar
reduction, or a serial prefix-sum loop that writes a second array from
replicated code (each ``P[i]`` written once, by its owner, reading a
``P[i - 1]`` another identity may own).  The final reduction may draw a
guard: its ``next`` then sits under an ``if``, so the carried sum has to
survive the iterations whose element fails the test.  And it may be
drawn as a ``while`` carrying its own index beside the sum; bodies draw
unary minus too (a ``neg`` unless the parser folds it into a literal).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import compile_source
from repro.backend import get_backend

pytestmark = [pytest.mark.conformance, pytest.mark.slow]


@st.composite
def bodies(draw, depth=0):
    """(source fragment, python fn of (i, n)) built from one draw."""
    if depth >= 3 or draw(st.booleans()):
        kind = draw(st.sampled_from(["int", "float", "i", "n"]))
        if kind == "int":
            v = draw(st.integers(-9, 9))
            return ((f"({v})" if v < 0 else str(v)), lambda i, n: v)
        if kind == "float":
            v = round(draw(st.floats(min_value=-4, max_value=4, width=32,
                                     allow_nan=False,
                                     allow_infinity=False)), 3)
            return ((f"({v})" if v < 0 else repr(v)), lambda i, n: v)
        if kind == "i":
            return "i", lambda i, n: i
        return "n", lambda i, n: n

    op = draw(st.sampled_from(["+", "-", "*", "/", "min", "max", "abs",
                               "neg", "ifexp"]))
    ls, lf = draw(bodies(depth=depth + 1))
    if op == "abs":
        return f"abs({ls})", lambda i, n: abs(lf(i, n))
    if op == "neg":
        return f"(-{ls})", lambda i, n: -lf(i, n)
    rs, rf = draw(bodies(depth=depth + 1))
    if op == "+":
        return f"({ls} + {rs})", lambda i, n: lf(i, n) + rf(i, n)
    if op == "-":
        return f"({ls} - {rs})", lambda i, n: lf(i, n) - rf(i, n)
    if op == "*":
        return f"({ls} * {rs})", lambda i, n: lf(i, n) * rf(i, n)
    if op == "/":
        return (f"({ls} / (abs({rs}) + 1))",
                lambda i, n: lf(i, n) / (abs(rf(i, n)) + 1))
    if op == "min":
        return f"min({ls}, {rs})", lambda i, n: min(lf(i, n), rf(i, n))
    if op == "max":
        return f"max({ls}, {rs})", lambda i, n: max(lf(i, n), rf(i, n))
    ts, tf = draw(bodies(depth=depth + 1))
    return (f"(if ({ls} < {rs}) then {ts} else ({ls} + 1))",
            lambda i, n: tf(i, n) if lf(i, n) < rf(i, n) else lf(i, n) + 1)


PREFIX = """
            P = array(n);
            P[1] = A[1];
            for i = 2 to n { P[i] = P[i - 1] + A[i]; }"""


def reduction(array: str, guard, loop: str) -> str:
    """Sum ``array`` — only its elements below ``guard`` when one is
    drawn — in a ``for``, or in a ``while`` that carries ``i`` as well."""
    step = f"next s = s + {array}[i];"
    if guard is not None:
        bound = f"({guard})" if guard < 0 else str(guard)
        step = f"if {array}[i] < {bound} {{ {step} }}"
    if loop == "while":
        return f"""
            s = 0.0;
            i = 1;
            while i <= n {{ {step} next i = i + 1; }}
            return s;"""
    return f"""
            s = 0.0;
            for i = 1 to n {{ {step} }}
            return s;"""


@given(body=bodies(), n=st.integers(3, 10), prefix=st.booleans(),
       guard=st.none() | st.integers(-3, 3),
       loop=st.sampled_from(["for", "while"]))
@settings(max_examples=12, deadline=None)
def test_random_program_church_rosser(body, n, prefix, guard, loop):
    src, fn = body
    consume = (PREFIX + reduction("P", guard, loop) if prefix
               else reduction("A", guard, loop))
    program = compile_source(f"""
        function main(n) {{
            A = array(n);
            for i = 1 to n {{ A[i] = 0.0 + {src}; }}{consume}
        }}
    """)
    oracle = running = 0.0
    for i in range(1, n + 1):
        element = 0.0 + fn(i, n)
        running = running + element
        term = running if prefix else element
        if guard is None or term < guard:
            oracle = oracle + term

    seq = get_backend("seq").run(program, (n,)).value
    sim = get_backend("sim").run(program, (n,), parallelism=2).value
    par = get_backend("parallel").run(program, (n,), parallelism=2).value
    assert seq == oracle
    assert sim == oracle
    assert par == oracle
