"""Tests for the sequential reference interpreter."""

import pytest

from repro.common.errors import (
    BoundsViolation,
    ExecutionError,
    SingleAssignmentViolation,
)
from repro.lang.parser import parse
from repro.lang.semantics import analyze
from repro.baseline.sequential import run_sequential


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
