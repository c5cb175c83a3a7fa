"""Differential property tests: random expressions and programs must
evaluate identically on the host (Python), the sequential interpreter,
and the PODS machine at any PE count — and identically under message
jitter (the Church-Rosser property of paper Section 2)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import compile_source
from repro.common.config import MachineConfig, SimConfig

# -- random expression generator ---------------------------------------
# Each draw yields (idlite_source_fragment, python_value) built from the
# same tree, so the expected value is computed independently of every
# backend under test.


@st.composite
def exprs(draw, depth=0):
    if depth >= 3 or draw(st.booleans()):
        kind = draw(st.sampled_from(["int", "float", "var"]))
        if kind == "int":
            v = draw(st.integers(-9, 9))
            return (f"({v})" if v < 0 else str(v)), v
        if kind == "float":
            v = draw(st.floats(min_value=-4, max_value=4, width=32,
                               allow_nan=False, allow_infinity=False))
            v = round(v, 3)
            return (f"({v})" if v < 0 else repr(v)), v
        name = draw(st.sampled_from(["a", "b"]))
        return name, {"a": 3, "b": 1.5}[name]

    op = draw(st.sampled_from(
        ["add", "sub", "mul", "div", "min", "max", "abs", "neg",
         "sqrt", "ifexp"]))
    left_src, left_val = draw(exprs(depth=depth + 1))

    if op == "abs":
        return f"abs({left_src})", abs(left_val)
    if op == "neg":
        return f"(-({left_src}))", -left_val
    if op == "sqrt":
        return f"sqrt(abs({left_src}) + 1)", math.sqrt(abs(left_val) + 1)

    right_src, right_val = draw(exprs(depth=depth + 1))
    if op == "add":
        return f"({left_src} + {right_src})", left_val + right_val
    if op == "sub":
        return f"({left_src} - {right_src})", left_val - right_val
    if op == "mul":
        return f"({left_src} * {right_src})", left_val * right_val
    if op == "div":
        return (f"({left_src} / (abs({right_src}) + 1))",
                left_val / (abs(right_val) + 1))
    if op == "min":
        return f"min({left_src}, {right_src})", min(left_val, right_val)
    if op == "max":
        return f"max({left_src}, {right_src})", max(left_val, right_val)
    # ifexp
    cond_src = f"({left_src} < {right_src})"
    taken = left_val < right_val
    then_src, then_val = draw(exprs(depth=depth + 1))
    else_src, else_val = draw(exprs(depth=depth + 1))
    return (f"(if {cond_src} then {then_src} else {else_src})",
            then_val if taken else else_val)


@given(expr=exprs())
@settings(max_examples=60, deadline=None)
def test_expression_agreement_host_sequential_pods(expr):
    src, expected = expr
    program = compile_source(
        f"function main(a, b) {{ return {src}; }}")
    seq = program.run((3, 1.5), backend="seq")
    pods = program.run((3, 1.5), backend="sim", parallelism=1)
    assert seq.value == pytest.approx(expected, rel=1e-12, abs=1e-12)
    assert pods.value == pytest.approx(expected, rel=1e-12, abs=1e-12)


# -- whole-program invariances -------------------------------------------

TEMPLATE = """
function main(n, seed) {
    A = matrix(n, n);
    B = matrix(n, n);
    for i = 1 to n {
        for j = 1 to n {
            A[i, j] = 1.0 * ((i * seed + j * 3) % 17) + 0.5;
        }
    }
    for j = 1 to n { B[1, j] = A[1, j]; }
    for i = 2 to n {
        for j = 1 to n { B[i, j] = 0.5 * B[i - 1, j] + A[i, j]; }
    }
    s = 0.0;
    for i = 1 to n {
        row = 0.0;
        for j = 1 to n { next row = row + B[i, j]; }
        next s = s + row;
    }
    return s;
}
"""


@given(n=st.integers(2, 9), seed=st.integers(1, 50),
       pes=st.integers(2, 9))
@settings(max_examples=12, deadline=None)
def test_result_invariant_under_pe_count(n, seed, pes):
    program = compile_source(TEMPLATE)
    base = program.run((n, seed), backend="seq").value
    assert program.run((n, seed), backend="sim", parallelism=pes).value == \
        pytest.approx(base, rel=1e-12)


@given(n=st.integers(3, 7), seed=st.integers(1, 50),
       jitter=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_church_rosser_under_jitter(n, seed, jitter):
    """Scheduling perturbations change timings, never answers."""
    program = compile_source(TEMPLATE)
    plain = program.run((n, seed), backend="sim", parallelism=4)
    config = SimConfig(machine=MachineConfig(num_pes=4),
                       jitter_seed=jitter, jitter_max_us=500.0)
    jittered = program.run((n, seed), backend="sim", parallelism=4,
                           config=config)
    assert jittered.value == plain.value


@given(page=st.integers(1, 64), pes=st.integers(1, 8))
@settings(max_examples=10, deadline=None)
def test_result_invariant_under_page_size(page, pes):
    program = compile_source(TEMPLATE)
    base = program.run((6, 7), backend="seq").value
    config = SimConfig(machine=MachineConfig(num_pes=pes, page_size=page))
    got = program.run((6, 7), backend="sim", config=config).value
    assert got == pytest.approx(base, rel=1e-12)


# -- optimizer equivalence ----------------------------------------------


@st.composite
def loop_exprs(draw, depth=0, allow_index=True):
    """Expression over invariants a, b and (optionally) the loop index i
    (source text only; the oracle is the unoptimized compile)."""
    if depth >= 3 or draw(st.booleans()):
        kinds = ["int", "var", "var"] + (["idx"] if allow_index else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "int":
            v = draw(st.integers(-9, 9))
            return f"({v})" if v < 0 else str(v)
        if kind == "idx":
            return "i"
        return draw(st.sampled_from(["a", "b"]))
    op = draw(st.sampled_from(["+", "-", "*", "min", "max", "abs"]))
    left = draw(loop_exprs(depth=depth + 1, allow_index=allow_index))
    if op == "abs":
        return f"abs({left})"
    right = draw(loop_exprs(depth=depth + 1, allow_index=allow_index))
    if op in ("min", "max"):
        return f"{op}({left}, {right})"
    return f"({left} {op} {right})"


@given(body=loop_exprs(), tail=loop_exprs(allow_index=False),
       a=st.integers(-5, 5),
       b=st.integers(-5, 5))
@settings(max_examples=40, deadline=None)
def test_optimizer_preserves_semantics(body, tail, a, b):
    """CSE + hoisting + DCE must be invisible in results, for random
    loop bodies mixing invariants and index-dependent terms."""
    src = f"""
    function main(a, b) {{
        A = array(8);
        for i = 1 to 8 {{
            A[i] = {body} + i;
        }}
        s = 0;
        for i = 1 to 8 {{ next s = s + A[i]; }}
        unused = {tail};
        return s + {tail};
    }}
    """
    plain = compile_source(src)
    opt = compile_source(src, optimize=True)
    expected = plain.run((a, b), backend="seq").value
    assert opt.run((a, b), backend="seq").value == expected
    assert plain.run((a, b), backend="sim", parallelism=2).value == expected
    assert opt.run((a, b), backend="sim", parallelism=2).value == expected


@given(expr=exprs())
@settings(max_examples=60, deadline=None)
def test_pretty_printer_round_trip(expr):
    """parse -> print -> parse is the identity on random expressions."""
    from repro.lang.parser import parse_expression
    from repro.lang.pprint import ast_fingerprint, format_expr

    src, _ = expr
    tree = parse_expression(src)
    printed = format_expr(tree)
    assert ast_fingerprint(parse_expression(printed)) == ast_fingerprint(tree)
