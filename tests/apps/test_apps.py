"""Tests for the benchmark applications across every backend."""

import pytest

from repro.apps.matmul import compile_matmul, reference_matmul
from repro.apps.simple_app import compile_simple
from repro.apps.stencil import compile_stencil, reference_stencil


@pytest.fixture(scope="module")
def matmul():
    return compile_matmul()


@pytest.fixture(scope="module")
def matmul_checksum():
    return compile_matmul(checksum=True)


@pytest.fixture(scope="module")
def simple():
    return compile_simple()


@pytest.fixture(scope="module")
def conduction():
    return compile_simple(conduction_only=True)


@pytest.fixture(scope="module")
def stencil():
    return compile_stencil()


class TestMatmul:
    def test_values_match_reference(self, matmul):
        n = 6
        ref = reference_matmul(n)
        v = matmul.run((n,), backend="sim", parallelism=2).value
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert v[i, j] == pytest.approx(ref[i - 1][j - 1])

    @pytest.mark.parametrize("pes", [1, 3, 8])
    def test_checksum_stable_across_pes(self, matmul_checksum, pes):
        seq = matmul_checksum.run((8,), backend="seq")
        pods = matmul_checksum.run((8,), backend="sim", parallelism=pes)
        assert pods.value == pytest.approx(seq.value, rel=1e-12)

    def test_partitioning_shape(self, matmul):
        report = matmul.partition_report
        assert any(name.endswith("for_i") for name in report.distributed)
        # The k reduction is an LCD loop below a marked level: local.
        k_loop = next(b for b in matmul.graph.loop_blocks()
                      if b.name.endswith("for_k"))
        assert k_loop.has_lcd and not k_loop.distributed

    def test_static_baseline_agrees(self, matmul_checksum):
        seq = matmul_checksum.run((8,), backend="seq")
        st = matmul_checksum.run((8,), backend="static", parallelism=4)
        assert st.value == pytest.approx(seq.value, rel=1e-12)


class TestStencil:
    def test_matches_reference(self, stencil):
        got = stencil.run((10, 3), backend="sim", parallelism=1).value
        assert got == pytest.approx(reference_stencil(10, 3))

    @pytest.mark.parametrize("pes", [2, 5])
    def test_multi_pe_agrees(self, stencil, pes):
        expect = reference_stencil(12, 2)
        got = stencil.run((12, 2), backend="sim", parallelism=pes).value
        assert got == pytest.approx(expect)

    def test_sweeps_pipeline(self, stencil):
        # More sweeps cost less than proportionally on many PEs thanks to
        # element-wise overlap between sweeps (run-ahead).
        t2 = stencil.run((12, 2), backend="sim", parallelism=4).time_us
        t4 = stencil.run((12, 4), backend="sim", parallelism=4).time_us
        assert t4 < t2 * 2.0


class TestSimple:
    """SIMPLE: the paper's structural claims, checked mechanically."""

    def test_backends_agree(self, simple):
        seq = simple.run((12, 2), backend="seq")
        pods = simple.run((12, 2), backend="sim", parallelism=3)
        static = simple.run((12, 2), backend="static", parallelism=3)
        assert pods.value == pytest.approx(seq.value, rel=1e-12)
        assert static.value == pytest.approx(seq.value, rel=1e-12)

    @pytest.mark.parametrize("pes", [1, 2, 8])
    def test_value_independent_of_pes(self, simple, pes):
        base = simple.run((10, 2), backend="seq").value
        got = simple.run((10, 2), backend="sim", parallelism=pes).value
        assert got == pytest.approx(base, rel=1e-12)

    def test_velocity_position_has_no_lcds(self, simple):
        # Paper: "Velocity_position has no LCDs ... and runs in parallel
        # very well."
        blocks = [b for b in simple.graph.loop_blocks()
                  if b.name.startswith("velocity_position")]
        assert blocks
        assert all(not b.has_lcd for b in blocks)

    def test_conduction_has_both_sweep_directions(self, simple):
        # Paper: "the large number of LCDs with both ascending and
        # descending for-loops."
        lcd_loops = [b for b in simple.graph.loop_blocks()
                     if b.name.startswith("conduction.") and b.has_lcd]
        assert any(not b.descending for b in lcd_loops)
        assert any(b.descending for b in lcd_loops)

    def test_conduction_sweep_inner_loops_distributed(self, simple):
        inner = [b for b in simple.graph.loop_blocks()
                 if b.name.startswith("conduction.for_k.") and b.distributed]
        assert inner, "sweep inner loops must carry the Range Filter"

    def test_time_loop_is_sequential(self, simple):
        time_loop = next(b for b in simple.graph.loop_blocks()
                         if b.name == "main.for_t")
        assert time_loop.has_lcd and not time_loop.distributed

    def test_energy_stays_bounded(self, simple):
        # Physics guardrails: a few steps must neither blow up nor go
        # negative.
        v1 = simple.run((8, 1), backend="seq").value
        v4 = simple.run((8, 4), backend="seq").value
        assert 0 < v1 < 1e6
        assert 0 < v4 < 1e6

    def test_speedup_on_multiple_pes(self, simple):
        t1 = simple.run((16, 1), backend="sim", parallelism=1).time_us
        t8 = simple.run((16, 1), backend="sim", parallelism=8).time_us
        assert t1 / t8 > 2.0

    def test_eu_dominates_units(self, simple):
        r = simple.run((16, 1), backend="sim", parallelism=8).raw
        util = r.stats.utilizations()
        assert util["EU"] == max(util.values())


class TestConductionOnly:
    def test_runs_and_agrees(self, conduction):
        seq = conduction.run((12, 2), backend="seq")
        pods = conduction.run((12, 2), backend="sim", parallelism=4)
        assert pods.value == pytest.approx(seq.value, rel=1e-12)

    def test_pods_one_pe_slower_than_sequential(self, conduction):
        # Section 5.3.4's direction: the parallel machinery costs
        # something even on one PE.
        seq = conduction.run((16, 1), backend="seq")
        pods = conduction.run((16, 1), backend="sim", parallelism=1)
        assert pods.time_us > seq.time_us
