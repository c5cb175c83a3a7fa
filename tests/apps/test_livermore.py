"""Tests for the Livermore-style kernels: cross-backend agreement and
the partitioning regime each kernel must land in."""

import pytest

from repro.apps.livermore import (
    PARALLEL_KERNELS,
    SEQUENTIAL_KERNELS,
    compile_kernel,
    kernel_names,
)


@pytest.fixture(scope="module")
def compiled():
    return {name: compile_kernel(name) for name in kernel_names()}


class TestAgreement:
    @pytest.mark.parametrize("name", kernel_names())
    def test_pods_matches_sequential(self, name, compiled):
        program = compiled[name]
        oracle = program.run((24,), backend="seq").value
        for pes in (1, 4):
            got = program.run((24,), backend="sim", parallelism=pes).value
            assert got == pytest.approx(oracle, rel=1e-12)

    @pytest.mark.parametrize("name", kernel_names())
    def test_static_matches_sequential(self, name, compiled):
        program = compiled[name]
        oracle = program.run((24,), backend="seq").value
        assert program.run((24,), backend="static", parallelism=4).value == \
            pytest.approx(oracle, rel=1e-12)


class TestPartitioningRegimes:
    @pytest.mark.parametrize("name", sorted(PARALLEL_KERNELS))
    def test_parallel_kernels_distribute_compute_loop(self, name, compiled):
        program = compiled[name]
        # The x-computing loop must be distributed.
        distributed = [b for b in program.graph.loop_blocks()
                       if b.distributed]
        assert distributed, f"{name}: nothing distributed"

    @pytest.mark.parametrize("name", sorted(SEQUENTIAL_KERNELS))
    def test_sequential_kernels_keep_chain_local(self, name, compiled):
        program = compiled[name]
        lcd_loops = [b for b in program.graph.loop_blocks() if b.has_lcd]
        assert lcd_loops, f"{name}: LCD not detected"
        assert all(not b.distributed for b in lcd_loops)

    def test_tridiag_chain_detected_via_array_dependence(self, compiled):
        program = compiled["tridiag"]
        chain = next(b for b in program.graph.loop_blocks()
                     if b.has_lcd and not b.carried_names)
        assert chain is not None  # LCD from x[i-1], not from a next-var


class TestSpeedupRegimes:
    def test_flop_heavy_kernel_speeds_up(self, compiled):
        # eos has enough arithmetic per element to amortize distribution.
        program = compiled["eos"]
        t1 = program.run((96,), backend="sim", parallelism=1).time_us
        t4 = program.run((96,), backend="sim", parallelism=4).time_us
        assert t1 / t4 > 1.4, f"eos: only {t1 / t4:.2f}x"

    def test_trivial_kernel_is_communication_bound(self, compiled):
        # first_diff does one subtraction per element: distribution
        # overhead swamps it — the machine must show that honestly
        # (no speedup), while results stay identical.
        program = compiled["first_diff"]
        t1 = program.run((96,), backend="sim", parallelism=1).time_us
        t4 = program.run((96,), backend="sim", parallelism=4).time_us
        assert t1 / t4 < 1.5

    def test_chain_kernels_do_not_benefit(self, compiled):
        program = compiled["first_sum"]
        t1 = program.run((96,), backend="sim", parallelism=1).time_us
        t4 = program.run((96,), backend="sim", parallelism=4).time_us
        # Some overhead is fine; meaningful speedup is impossible.
        assert t1 / t4 < 1.5
