"""Tests for the n-body all-pairs app."""

import pytest

from repro.apps.nbody import compile_nbody
from repro.common.config import MachineConfig, SimConfig


@pytest.fixture(scope="module")
def nbody():
    return compile_nbody()


class TestNbody:
    def test_backends_agree(self, nbody):
        seq = nbody.run((10, 2), backend="seq")
        assert nbody.run((10, 2), backend="sim", parallelism=1).value == \
            pytest.approx(seq.value, rel=1e-12)
        assert nbody.run((10, 2), backend="sim", parallelism=3).value == \
            pytest.approx(seq.value, rel=1e-12)
        assert nbody.run((10, 2), backend="static", parallelism=3).value == \
            pytest.approx(seq.value, rel=1e-12)

    def test_partitioning_shape(self, nbody):
        # Force and update loops distribute; the pair reduction and the
        # time loop stay local.
        report = nbody.partition_report
        assert len(report.distributed) >= 2
        assert "main.for_t" in report.local_lcd

    def test_small_bodies_fit_one_page_no_speedup(self, nbody):
        # A 12-element array is one 32-element page: PE0 owns everything
        # and distribution is a no-op -- the ownership math made that
        # decision, not an accident.
        r1 = nbody.run((12, 1), backend="sim", parallelism=1)
        r4 = nbody.run((12, 1), backend="sim", parallelism=4)
        assert r1.time_us / r4.time_us < 1.2

    def test_speedup_with_fine_pages(self, nbody):
        cfg1 = SimConfig(machine=MachineConfig(num_pes=1, page_size=4))
        cfg4 = SimConfig(machine=MachineConfig(num_pes=4, page_size=4))
        r1 = nbody.run((16, 2), backend="sim", config=cfg1)
        r4 = nbody.run((16, 2), backend="sim", parallelism=4, config=cfg4)
        assert r1.value == pytest.approx(r4.value, rel=1e-12)
        assert r1.time_us / r4.time_us > 1.8

    def test_energy_deterministic_across_steps(self, nbody):
        a = nbody.run((10, 3), backend="seq").value
        b = nbody.run((10, 3), backend="seq").value
        assert a == b
        assert a > 0
