"""Tests for the for-loop distribution algorithm (paper Section 4.2.4)."""

from repro.graph import build_graph, ir, validate_graph
from repro.lang.parser import parse
from repro.partitioner import partition, partition_none


def partitioned(src):
    g = build_graph(parse(src))
    report = partition(g)
    validate_graph(g)
    return g, report


PAPER_EXAMPLE = """
function main(n) {
    A = matrix(50, 10);
    for i = 1 to 50 {
        for j = 1 to 10 { A[i, j] = i * 10 + j; }
    }
    return A;
}
"""


class TestBasicDistribution:
    def test_outer_parallel_loop_distributed(self):
        g, report = partitioned(PAPER_EXAMPLE)
        i_loop = next(b for b in g.loop_blocks() if b.name.endswith("for_i"))
        j_loop = next(b for b in g.loop_blocks() if b.name.endswith("for_j"))
        assert i_loop.distributed
        assert i_loop.range_filter is not None
        assert not j_loop.distributed, "only one RF per nest"
        assert report.distributed == ["main.for_i"]

    def test_ld_operator_in_parent(self):
        g, _ = partitioned(PAPER_EXAMPLE)
        main = g.entry_block()
        invoke = next(i for i in main.body if isinstance(i, ir.InvokeItem))
        assert invoke.distributed, "L must become LD in the parent"

    def test_inner_invoke_stays_local(self):
        g, _ = partitioned(PAPER_EXAMPLE)
        i_loop = next(b for b in g.loop_blocks() if b.name.endswith("for_i"))
        invoke = next(i for i in i_loop.body if isinstance(i, ir.InvokeItem))
        assert not invoke.distributed

    def test_allocations_become_distributing(self):
        g, _ = partitioned(PAPER_EXAMPLE)
        allocs = [d for b in g.blocks.values() for d in b.defs.values()
                  if isinstance(d, ir.AllocDef)]
        assert allocs and all(a.distributed for a in allocs)

    def test_range_filter_dimension_zero_for_row_writes(self):
        g, _ = partitioned(PAPER_EXAMPLE)
        i_loop = next(b for b in g.loop_blocks() if b.name.endswith("for_i"))
        assert i_loop.range_filter.dim == 0
        assert i_loop.range_filter.fixed_vids == []


class TestLcdGuidedPlacement:
    SWEEP = """
    function main(n) {
        B = matrix(n, n);
        for j = 1 to n { B[1, j] = 1.0; }
        for i = 2 to n {
            for j = 1 to n { B[i, j] = B[i - 1, j] * 0.5; }
        }
        return B;
    }
    """

    def test_sweep_distributes_inner_level(self):
        # The paper's conduction pattern: LCD at i pushes the LD one
        # level down; the j-loop gets the RF (Section 4.2.3).
        g, report = partitioned(self.SWEEP)
        sweep_i = next(b for b in g.loop_blocks()
                       if b.name.endswith("for_i") and b.has_lcd)
        inner_j = next(b for b in g.loop_blocks()
                       if b.name == sweep_i.name + ".for_j")
        assert not sweep_i.distributed
        assert inner_j.distributed
        assert inner_j.range_filter is not None

    def test_inner_rf_has_fixed_leading_index(self):
        g, _ = partitioned(self.SWEEP)
        inner_j = next(b for b in g.loop_blocks()
                       if b.distributed and b.name.endswith("for_i.for_j"))
        rf = inner_j.range_filter
        assert rf.dim == 1
        assert len(rf.fixed_vids) == 1
        fixed = inner_j.defs[rf.fixed_vids[0]]
        assert isinstance(fixed, ir.ParamDef)  # the imported i

    def test_reduction_nest_stays_local(self):
        g, report = partitioned("""
        function main(n) {
            s = 0;
            for i = 1 to n { next s = s + i; }
            return s;
        }
        """)
        assert report.distributed == []
        assert "main.for_i" in report.local_lcd

    def test_matmul_distributes_i_only(self):
        g, report = partitioned("""
        function main(n) {
            A = matrix(n, n);
            B = matrix(n, n);
            C = matrix(n, n);
            for i = 1 to n { for j = 1 to n { A[i, j] = 1.0; } }
            for i = 1 to n { for j = 1 to n { B[i, j] = 2.0; } }
            for i = 1 to n {
                for j = 1 to n {
                    s = 0.0;
                    for k = 1 to n { next s = s + A[i, k] * B[k, j]; }
                    C[i, j] = s;
                }
            }
            return C;
        }
        """)
        # Three i-loops distributed; the k reduction never is.
        assert len(report.distributed) == 3
        assert all(name.endswith("for_i") for name in report.distributed)
        k_loop = next(b for b in g.loop_blocks() if b.name.endswith("for_k"))
        assert not k_loop.distributed


class TestUnfilterableLoops:
    def test_column_major_write_stays_local(self):
        # Write A[j, i] from the i-loop: i is in trailing position with a
        # leading subscript that varies below the loop -> no usable RF.
        g, report = partitioned("""
        function main(n) {
            A = matrix(n, n);
            for i = 1 to n {
                for j = 1 to n { A[j, i] = i + j; }
            }
            return A;
        }
        """)
        i_loop = next(b for b in g.loop_blocks()
                      if b.name == "main.for_i")
        assert not i_loop.distributed
        # The algorithm descends: the j-loop writes A[j, i] with j leading
        # -> j-loop is distributable on dimension 0.
        j_loop = next(b for b in g.loop_blocks() if b.name.endswith("for_j"))
        assert j_loop.distributed
        assert j_loop.range_filter.dim == 0

    def test_scatter_write_stays_local(self):
        g, report = partitioned("""
        function main(n) {
            A = array(n);
            B = array(n);
            for i = 1 to n { B[i] = n - i + 1; }
            for i = 1 to n { A[n - i + 1] = i; }
            return A;
        }
        """)
        scatter = [name for name in report.local_no_filter]
        assert len(scatter) == 1

    def test_loop_without_writes_stays_local(self):
        g, report = partitioned("""
        function main(n) {
            A = array(n);
            for i = 1 to n { A[i] = i; }
            s = 0;
            for i = 1 to n { next s = s + A[i]; }
            return s;
        }
        """)
        reduction = next(b for b in g.loop_blocks() if b.carried_names)
        assert not reduction.distributed


class TestConstantLeadingIndex:
    def test_write_with_constant_row(self):
        # Distributed j-loop writing A[1, j]: the fixed leading index is
        # the constant 1, materialized in the loop block.
        g, report = partitioned("""
        function main(n) {
            A = matrix(n, n);
            for j = 1 to n { A[1, j] = j; }
            return A;
        }
        """)
        j_loop = g.loop_blocks()[0]
        assert j_loop.distributed
        rf = j_loop.range_filter
        assert rf.dim == 1
        fixed = j_loop.defs[rf.fixed_vids[0]]
        assert isinstance(fixed, ir.ConstDef) and fixed.value == 1


class TestPartitionNone:
    def test_ablation_distributes_arrays_but_no_loops(self):
        g = build_graph(parse(PAPER_EXAMPLE))
        report = partition_none(g)
        assert report.distributed == []
        assert not any(b.distributed for b in g.loop_blocks())
        allocs = [d for b in g.blocks.values() for d in b.defs.values()
                  if isinstance(d, ir.AllocDef)]
        assert all(a.distributed for a in allocs)


class TestRfPlacement:
    SRC = """
    function main(n) {
        A = matrix(n, n);
        for i = 1 to n {
            for j = 1 to n { A[i, j] = i * 10 + j; }
        }
        return A;
    }
    """

    def test_inner_placement_pushes_ld_down(self):
        from repro.api import compile_source

        outer = compile_source(self.SRC)
        inner = compile_source(self.SRC, rf_placement="inner")
        assert outer.partition_report.distributed == ["main.for_i"]
        assert inner.partition_report.distributed == ["main.for_i.for_j"]

    def test_both_placements_compute_the_same(self):
        from repro.api import compile_source

        outer = compile_source(self.SRC)
        inner = compile_source(self.SRC, rf_placement="inner")
        a = outer.run((8,), backend="sim", parallelism=4)
        b = inner.run((8,), backend="sim", parallelism=4)
        assert a.value == b.value

    def test_inner_rf_depends_on_outer_index(self):
        from repro.api import compile_source

        inner = compile_source(self.SRC, rf_placement="inner")
        j_loop = next(b for b in inner.graph.loop_blocks()
                      if b.distributed)
        assert j_loop.range_filter.dim == 1
        assert len(j_loop.range_filter.fixed_vids) == 1

    def test_unknown_placement_rejected(self):
        from repro.common.errors import PartitionError
        from repro.graph import build_graph
        from repro.lang.parser import parse
        from repro.partitioner import partition

        g = build_graph(parse(self.SRC))
        import pytest as _pytest

        with _pytest.raises(PartitionError):
            partition(g, placement="sideways")


class TestAggressiveMode:
    WAVEFRONT = """
    function main(n) {
        A = matrix(n, n);
        A[1, 1] = 1.0;
        for j = 2 to n { A[1, j] = A[1, j - 1] + 1.0; }
        for i = 2 to n { A[i, 1] = A[i - 1, 1] + 1.0; }
        for i = 2 to n {
            for j = 2 to n {
                A[i, j] = 0.5 * A[i - 1, j] + 0.5 * A[i, j - 1];
            }
        }
        return A[n, n];
    }
    """

    def test_conservative_leaves_wavefront_local(self):
        from repro.api import compile_source

        program = compile_source(self.WAVEFRONT)
        assert program.partition_report.distributed == []

    def test_aggressive_distributes_lcd_loops(self):
        from repro.api import compile_source

        program = compile_source(self.WAVEFRONT, aggressive=True)
        assert program.partition_report.distributed != []

    def test_aggressive_results_identical(self):
        # The paper's point: LCD detection is a heuristic, not a
        # correctness requirement.
        from repro.api import compile_source

        plain = compile_source(self.WAVEFRONT)
        agg = compile_source(self.WAVEFRONT, aggressive=True)
        base = plain.run((10,), backend="sim", parallelism=1).value
        for pes in (2, 5):
            got = agg.run((10,), backend="sim", parallelism=pes).value
            assert abs(got - base) < 1e-12

    def test_aggressive_never_distributes_reductions(self):
        # Carried scalars cannot merge across PEs: even aggressive mode
        # must keep them local.
        from repro.api import compile_source

        program = compile_source("""
        function main(n) {
            s = 0;
            for i = 1 to n { next s = s + i; }
            return s;
        }
        """, aggressive=True)
        assert program.partition_report.distributed == []
        assert program.run((50,), backend="sim", parallelism=4).value == 1275
