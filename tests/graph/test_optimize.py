"""Tests for loop-invariant hoisting."""

import pytest

from repro.api import compile_source
from repro.graph import build_graph, validate_graph
from repro.graph.optimize import hoist_invariants
from repro.lang.parser import parse
from repro.partitioner import partition

SRC = """
function main(n, c) {
    A = matrix(n, n);
    for i = 1 to n {
        for j = 1 to n {
            A[i, j] = (c * 3 + n) * i + j;
        }
    }
    return A[n, n];
}
"""


def hoisted_graph(src, speculative=False):
    g = build_graph(parse(src))
    partition(g)
    report = hoist_invariants(g, speculative=speculative)
    validate_graph(g)
    return g, report


class TestHoisting:
    def test_invariant_bubbles_to_function(self):
        g, report = hoisted_graph(SRC)
        # c*3 and +n are invariant in both loops: 2 ops leave the j-loop,
        # then leave the i-loop too (two hops counted separately).
        assert report.hoisted >= 3

    def test_graph_still_valid(self):
        hoisted_graph(SRC)  # validate_graph inside

    def test_results_identical(self):
        plain = compile_source(SRC)
        opt = compile_source(SRC, optimize=True)
        for pes in (1, 3):
            a = plain.run((8, 5), backend="sim", parallelism=pes)
            b = opt.run((8, 5), backend="sim", parallelism=pes)
            assert a.value == b.value
        assert (opt.run((8, 5), backend="seq").value
                == plain.run((8, 5), backend="seq").value)

    def test_instruction_count_drops(self):
        plain = compile_source(SRC)
        opt = compile_source(SRC, optimize=True)
        r_plain = plain.run((8, 5), backend="sim", parallelism=1).raw
        r_opt = opt.run((8, 5), backend="sim", parallelism=1).raw
        assert r_opt.stats.instructions < r_plain.stats.instructions

    def test_index_dependent_ops_stay(self):
        src = """
        function main(n) {
            A = array(n);
            for i = 1 to n { A[i] = i * 2; }
            return A[n];
        }
        """
        g, report = hoisted_graph(src)
        assert report.hoisted == 0

    def test_carried_vars_not_invariant(self):
        src = """
        function main(n) {
            s = 1;
            for i = 1 to n { next s = s * 2; }
            return s;
        }
        """
        g, report = hoisted_graph(src)
        assert report.hoisted == 0
        p = compile_source(src, optimize=True)
        assert p.run((5,), backend="sim").value == 32

    def test_faultable_ops_not_hoisted_by_default(self):
        src = """
        function main(n, d) {
            A = array(n);
            for i = 1 to n { A[i] = n / d + i; }
            return A[1];
        }
        """
        _, report = hoisted_graph(src)
        assert report.hoisted == 0
        _, spec = hoisted_graph(src, speculative=True)
        assert spec.hoisted == 1

    def test_speculative_results_match(self):
        src = """
        function main(n, d) {
            A = array(n);
            for i = 1 to n { A[i] = sqrt(1.0 * n * d) + i; }
            return A[n];
        }
        """
        g, report = hoisted_graph(src, speculative=True)
        assert report.hoisted >= 2  # the mul chain and the sqrt
        plain = compile_source(src)
        from repro.translator import translate

        opt_pods = translate(g)
        from repro.sim.machine import run_program

        a = plain.run((9, 4.0), backend="sim", parallelism=2)
        b = run_program(opt_pods, (9, 4.0))
        assert a.value == pytest.approx(b.value)

    def test_expensive_invariant_pays_off(self):
        # A sqrt per element vs one sqrt per program: with speculation
        # the simulated time must drop on a big enough loop.
        src = """
        function main(n, d) {
            A = array(n);
            for i = 1 to n { A[i] = sqrt(1.0 * n * d) + 1.0 * i; }
            s = 0.0;
            for i = 1 to n { next s = s + A[i]; }
            return s;
        }
        """
        g, _ = hoisted_graph(src, speculative=True)
        from repro.translator import translate
        from repro.sim.machine import run_program

        plain = compile_source(src)
        t_plain = plain.run((128, 3.0), backend="sim", parallelism=1)
        t_opt = run_program(translate(g), (128, 3.0))
        assert t_opt.value == pytest.approx(t_plain.value)
        assert t_opt.finish_time_us < t_plain.time_us


class TestCSE:
    def test_duplicate_expressions_merged(self):
        from repro.graph.optimize import eliminate_common_subexpressions

        g = build_graph(parse("""
        function main(a, b) {
            x = (a + b) * (a + b);
            y = (a + b) * 2;
            return x + y;
        }
        """))
        removed = eliminate_common_subexpressions(g)
        validate_graph(g)
        assert removed >= 1  # the repeated a + b

    def test_branch_scopes_not_merged_across(self):
        from repro.graph.optimize import eliminate_common_subexpressions

        # a+b in then and else branches are in different regions: each
        # may or may not run, so they are left alone (region-local CSE).
        g = build_graph(parse("""
        function main(a, b, c) {
            x = if c > 0 then a + b else (a + b) * 2;
            return x;
        }
        """))
        removed = eliminate_common_subexpressions(g)
        validate_graph(g)
        assert removed == 0

    def test_results_preserved(self):
        src = """
        function main(a, b) {
            x = (a * b + 1) * (a * b + 1) + (a * b + 1);
            return x;
        }
        """
        plain = compile_source(src)
        opt = compile_source(src, optimize=True)
        r_plain = plain.run((3, 4), backend="sim").raw
        r_opt = opt.run((3, 4), backend="sim").raw
        assert r_plain.value == r_opt.value
        assert r_opt.stats.instructions < r_plain.stats.instructions


class TestDCE:
    def test_unused_computation_removed(self):
        from repro.graph.optimize import eliminate_dead_code

        g = build_graph(parse("""
        function main(a) {
            unused = a * a + a;
            return a + 1;
        }
        """))
        removed = eliminate_dead_code(g)
        validate_graph(g)
        assert removed == 2  # the mul and the add feeding 'unused'

    def test_effectful_defs_kept(self):
        from repro.graph.optimize import eliminate_dead_code

        # The allocation and the read stay (effectful/observable) even
        # though the read's value is unused.
        g = build_graph(parse("""
        function main(n) {
            A = array(n);
            A[1] = 5;
            unused = A[1];
            return n;
        }
        """))
        eliminate_dead_code(g)
        validate_graph(g)
        from repro.graph import ir

        main = g.entry_block()
        assert any(isinstance(d, ir.ReadDef) for d in main.defs.values())

    def test_full_pipeline_on_simple(self):
        # The optimizer must leave SIMPLE's results bit-identical.
        from repro.apps.simple_app import simple_source

        src = simple_source()
        plain = compile_source(src)
        opt = compile_source(src, optimize=True)
        a = plain.run((8, 1), backend="sim", parallelism=2)
        b = opt.run((8, 1), backend="sim", parallelism=2)
        assert a.value == b.value
