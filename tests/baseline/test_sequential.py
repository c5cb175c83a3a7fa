"""Tests for the sequential reference interpreter."""

import pytest

from repro.common.errors import (
    BoundsViolation,
    ExecutionError,
    SingleAssignmentViolation,
)
from repro.api import compile_source
from repro.lang.parser import parse
from repro.lang.semantics import analyze
from repro.baseline.sequential import Clock, Interpreter, run_sequential
from repro.runtime.values import ArrayValue
from tests.runtime.test_spmd import PlainSpmd


def run(src, args=()):
    tree = parse(src)
    analyze(tree)
    return run_sequential(tree, args)


class TestValues:
    def test_scalar(self):
        assert run("function main() { return 6 * 7; }").value == 42

    def test_array_fill(self):
        src = """
        function main(n) {
            A = matrix(n, n);
            for i = 1 to n { for j = 1 to n { A[i, j] = i * 10 + j; } }
            return A;
        }
        """
        v = run(src, (4,)).value
        assert v[2, 3] == 23
        assert v.dims == (4, 4)

    def test_reduction(self):
        src = """
        function main(n) {
            s = 0;
            for i = 1 to n { next s = s + i * i; }
            return s;
        }
        """
        assert run(src, (10,)).value == 385

    def test_next_sees_old_values(self):
        src = """
        function main(n) {
            a = 0;
            b = 1;
            for i = 1 to n { next a = b; next b = a + b; }
            return a;
        }
        """
        assert run(src, (10,)).value == 55

    def test_while(self):
        src = """
        function main(n) {
            s = 1;
            while s < n { next s = s * 3; }
            return s;
        }
        """
        assert run(src, (50,)).value == 81

    def test_recursion(self):
        src = """
        function fib(n) { return if n < 2 then n else fib(n - 1) + fib(n - 2); }
        function main() { return fib(14); }
        """
        assert run(src).value == 377

    def test_descending(self):
        src = """
        function main(n) {
            A = array(n);
            A[n] = 0;
            for i = n - 1 downto 1 { A[i] = A[i + 1] + 1; }
            return A[1];
        }
        """
        assert run(src, (7,)).value == 6

    def test_conditionals(self):
        src = """
        function sign(x) {
            if x > 0 { return 1; } else if x < 0 { return -1; } else { return 0; }
        }
        function main(a) { return sign(a) * 100 + sign(-a); }
        """
        assert run(src, (5,)).value == 99


# name -> (source, args, expected value).  Each is a way for compile-time
# slot resolution to differ from looking the name up in the scopes that
# exist when the statement runs.
SCOPING = {
    # ``x`` bound in an enclosing scope and in both branches: a branch
    # sees the outer one until it binds its own; the outer one is intact.
    "if-branches-shadow-enclosing": ("""
        function main(n) {
            x = 1;
            acc = 0;
            for i = 1 to n {
                if i % 2 == 0 { y = x; x = 10 * i; next acc = acc + x + y; }
                else { x = i; y = x + 100; next acc = acc + y; }
            }
            return acc * 10 + x;
        }""", (4,), 2661),
    "body-locals-rebound-every-iteration": ("""
        function main(n) {
            s = 0;
            for i = 1 to n { t = i * i; u = t + 1; next s = s + u; }
            return s;
        }""", (4,), 34),
    # The carried value survives the iterations whose branch skips it.
    "next-under-one-branch-in-while": ("""
        function main(n) {
            i = 0;
            x = 0;
            while i < n {
                next i = i + 1;
                if i == 1 { next x = 7; }
            }
            return x * 100 + i;
        }""", (5,), 705),
    # The body's own ``x`` reads the carried one, and feeds its ``next``.
    "body-bind-shadows-carried-name": ("""
        function main(n) {
            x = 1;
            for i = 1 to n { x = x + i; next x = x * 2; }
            return x;
        }""", (3,), 30),
    "sibling-loops-reuse-the-index-name": ("""
        function main(n) {
            a = 0;
            b = 0;
            for i = 1 to n { next a = a + i; }
            for i = 1 to 2 * n { next b = b + i; }
            return a * 1000 + b;
        }""", (3,), 6021),
    # Each activation has its own frame: ``t`` outlives the inner call.
    "recursion-inside-a-loop": ("""
        function tri(k) {
            t = k;
            below = if k < 2 then 0 else tri(k - 1);
            return below + t;
        }
        function main(n) {
            s = 0;
            for i = 1 to n { next s = s + tri(i); }
            return s;
        }""", (4,), 20),
    # The Range Filter's array is the ``A`` visible at the ``for`` — not
    # the one bound after it in the same scope.
    "range-filter-array-rebound-after-the-loop": ("""
        function main(n) {
            A = array(n);
            if n > 0 {
                for i = 1 to n { A[i] = 2 * i; }
                A = array(2);
                A[1] = n;
            }
            return A;
        }""", (9,), ArrayValue((9,), [2 * i for i in range(1, 10)])),
}


@pytest.mark.parametrize("name", sorted(SCOPING))
class TestScoping:
    def test_seq_and_static(self, name):
        source, args, expected = SCOPING[name]
        program = compile_source(source)
        assert program.run(args, backend="seq").value == expected
        assert program.run(args, backend="static",
                           parallelism=2).value == expected

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_spmd_core(self, name, width):
        """Through the SPMD seams (``run_for`` / ``run_iteration``
        overrides), every identity of an in-process store."""
        source, args, expected = SCOPING[name]
        program = compile_source(source)
        store: dict = {}
        interps = [PlainSpmd(program, (ident,), width, store)
                   for ident in range(width)]
        values = [interp.run(args, materialize=False).value
                  for interp in interps]
        if isinstance(expected, ArrayValue):
            values = [value.to_value() for value in values]
            # ... and the loop really ran distributed, tiled once.
            assert sorted(i for interp in interps
                          for _, i in interp.executed) == list(range(1, 10))
        assert values == [expected] * width


class TestFaults:
    def test_single_assignment(self):
        src = """
        function main() {
            A = array(3);
            A[2] = 1;
            A[2] = 2;
            return A;
        }
        """
        with pytest.raises(SingleAssignmentViolation):
            run(src)

    def test_bounds(self):
        src = "function main() { A = array(3); A[4] = 1; return A; }"
        with pytest.raises(BoundsViolation):
            run(src)

    def test_read_before_write(self):
        src = "function main() { A = array(3); return A[1]; }"
        with pytest.raises(ExecutionError):
            run(src)

    def test_recursion_depth_guard(self):
        src = """
        function down(n) { return down(n + 1); }
        function main() { return down(0); }
        """
        with pytest.raises(ExecutionError):
            run(src)


class TestCostModel:
    def test_time_grows_with_work(self):
        src = """
        function main(n) {
            s = 0.0;
            for i = 1 to n { next s = s + sqrt(1.0 * i); }
            return s;
        }
        """
        small = run(src, (10,))
        large = run(src, (100,))
        assert large.time_us > small.time_us * 5

    def test_float_ops_cost_more_than_int(self):
        int_run = run("""
        function main(n) {
            s = 0;
            for i = 1 to n { next s = s + i; }
            return s;
        }
        """, (100,))
        float_run = run("""
        function main(n) {
            s = 0.0;
            for i = 1 to n { next s = s + 1.0 * i; }
            return s;
        }
        """, (100,))
        assert float_run.time_us > int_run.time_us

    def test_without_a_clock_only_the_modeled_time_goes(self):
        # ``clock=None`` compiles the charges out of every closure; the
        # values and the guards are the program's and stay.
        tree = parse("""
        function fact(k) { return if k < 2 then 1 else k * fact(k - 1); }
        function down(n) { return down(n + 1); }
        function main(n) {
            A = array(n);
            for i = n downto 1 { A[i] = sqrt(1.0 * fact(i)) - i; }
            s = 0.0;
            k = 1;
            while k <= n { next s = s + abs(-A[k]); next k = k + 1; }
            if s > 1000 { return down(0); }
            return s;
        }
        """)
        analyze(tree)
        charged = Interpreter(tree, Clock()).run((6,))
        bare = Interpreter(tree).run((6,))
        assert bare.value == charged.value
        assert charged.time_us > 0 and bare.time_us is None
        with pytest.raises(ExecutionError, match="call depth over"):
            Interpreter(tree).run((12,))


class TestAgreementWithSimulator:
    """The sequential interpreter is the semantic oracle for the machine."""

    PROGRAMS = [
        ("""
         function main(n) {
             A = matrix(n, n);
             for i = 1 to n { for j = 1 to n { A[i, j] = i * j; } }
             s = 0;
             for i = 1 to n {
                 row = 0;
                 for j = 1 to n { next row = row + A[i, j]; }
                 next s = s + row;
             }
             return s;
         }
         """, (6,)),
        ("""
         function main(n) {
             B = array(n);
             B[1] = 1.0;
             for i = 2 to n { B[i] = B[i - 1] * 0.75 + 1.0; }
             return B[n];
         }
         """, (12,)),
        ("""
         function f(a, b) { return if a > b then a - b else b - a; }
         function main() { return f(3, 10) + f(10, 3); }
         """, ()),
    ]

    @pytest.mark.parametrize("src,args", PROGRAMS)
    def test_matches_pods(self, src, args):
        from repro.api import compile_source

        program = compile_source(src)
        seq = program.run(args, backend="seq")
        pods = program.run(args, backend="sim", parallelism=2)
        assert seq.value == pytest.approx(pods.value)
