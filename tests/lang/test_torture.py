"""Language torture tests: awkward-but-legal programs end to end."""

import pytest

from repro.api import compile_source


def run(src, args=(), pes=2):
    return compile_source(src).run(args, backend="sim", parallelism=pes).value


class TestExpressionCorners:
    def test_deeply_nested_conditionals(self):
        src = """
        function classify(x) {
            return if x < -10 then -2
                   else if x < 0 then -1
                   else if x == 0 then 0
                   else if x < 10 then 1
                   else 2;
        }
        function main() {
            return classify(-20) * 10000 + classify(-5) * (-1000)
                 + classify(0) * 100 + classify(5) * 10 + classify(50);
        }
        """
        assert run(src) == -2 * 10000 + -1 * -1000 + 0 + 10 + 2

    def test_boolean_values_in_arithmetic_context(self):
        # Comparisons yield booleans; IdLite treats them as 0/1 like the
        # underlying Python semantics.
        src = "function main(a) { return (a > 2) + (a > 4); }"
        assert run(src, (3,)) == 1
        assert run(src, (5,)) == 2

    def test_mixed_precedence_gauntlet(self):
        src = "function main() { return 2 + 3 * 4 ^ 2 - 10 / 4 % 2; }"
        # 4^2=16; 3*16=48; 10/4=2.5; 2.5%2=0.5; 2+48-0.5
        assert run(src) == pytest.approx(49.5)

    def test_unary_minus_interactions(self):
        src = "function main(a) { return -a ^ 2; }"
        # Power binds tighter than unary minus (as in Python and
        # Fortran): -a^2 parses as -(a^2).
        assert run(src, (3,)) == -9

    def test_not_chains(self):
        src = "function main(a) { return if not (not (a > 0)) then 1 else 0; }"
        assert run(src, (5,)) == 1
        assert run(src, (-5,)) == 0


class TestStatementCorners:
    def test_loop_bounds_are_expressions(self):
        src = """
        function main(n) {
            s = 0;
            for i = n - 2 to n * 2 - 3 { next s = s + i; }
            return s;
        }
        """
        n = 5
        assert run(src, (n,)) == sum(range(n - 2, 2 * n - 2))

    def test_loop_variable_shadows_outer_binding(self):
        src = """
        function main(n) {
            i = 100;
            s = 0;
            for i = 1 to n { next s = s + i; }
            return s + i;
        }
        """
        assert run(src, (4,)) == 10 + 100

    def test_same_loop_var_in_sequential_loops(self):
        src = """
        function main(n) {
            a = 0;
            b = 0;
            for i = 1 to n { next a = a + i; }
            for i = 1 to n { next b = b + i * i; }
            return a * 1000 + b;
        }
        """
        assert run(src, (3,)) == 6 * 1000 + 14

    def test_while_with_compound_condition(self):
        src = """
        function main(n) {
            x = 0;
            y = n;
            while x < y and y > 1 {
                next x = x + 1;
                next y = y - 1;
            }
            return x * 100 + y;
        }
        """
        # (0,7)->(1,6)->(2,5)->(3,4)->(4,3); 4 < 3 fails -> stop.
        assert run(src, (7,)) == 4 * 100 + 3

    def test_empty_branches(self):
        src = """
        function main(a) {
            s = 0;
            if a > 0 { } else { }
            return s + a;
        }
        """
        assert run(src, (5,)) == 5

    def test_comment_styles_everywhere(self):
        src = """
        # leading comment
        function main(n) {  // trailing
            s = 0;          # hash style
            for i = 1 to n {
                next s = s + i;  // per line
            }
            return s;  # done
        }
        """
        assert run(src, (4,)) == 10


class TestArrayCorners:
    def test_array_of_one_element(self):
        src = """
        function main() {
            A = array(1);
            A[1] = 42;
            return A[1];
        }
        """
        assert run(src) == 42

    def test_computed_dimensions(self):
        src = """
        function main(n) {
            A = matrix(n * 2, n + 1);
            A[n * 2, n + 1] = 7;
            return A[n * 2, n + 1];
        }
        """
        assert run(src, (3,)) == 7

    def test_array_id_through_conditional_expression(self):
        src = """
        function main(flag) {
            A = array(4);
            B = array(4);
            A[1] = 10;
            B[1] = 20;
            C = if flag > 0 then A else B;
            return C[1];
        }
        """
        assert run(src, (1,)) == 10
        assert run(src, (0,)) == 20

    def test_nested_subscript_expressions(self):
        src = """
        function main(n) {
            P = array(n);
            V = array(n);
            for i = 1 to n { P[i] = n - i + 1; }
            for i = 1 to n { V[i] = i * 10; }
            s = 0;
            for i = 1 to n { next s = s + V[P[i]]; }
            return s;
        }
        """
        assert run(src, (5,)) == sum(i * 10 for i in range(1, 6))

    def test_boolean_stored_in_array(self):
        src = """
        function main(n) {
            F = array(n);
            for i = 1 to n { F[i] = i % 2 == 0; }
            s = 0;
            for i = 1 to n { next s = s + (if F[i] then 1 else 0); }
            return s;
        }
        """
        assert run(src, (7,)) == 3
