"""Integration tests for distribution in unusual nesting positions."""

import pytest

from repro.api import compile_source
from repro.common.config import MachineConfig, SimConfig


class TestDistributedLoopInsideCalledFunction:
    def test_function_with_ld_called_per_timestep(self):
        # relax() contains the distributed loop; it is called repeatedly
        # from a sequential time loop (the stencil pattern).
        src = """
        function fill_row(T, m, v) {
            for j = 1 to m { T[j] = v + 1.0 * j; }
            return 0;
        }
        function main(m, steps) {
            s = 0.0;
            for t = 1 to steps {
                T = array(m);
                d = fill_row(T, m, 1.0 * t);
                next s = s + T[m];
            }
            return s;
        }
        """
        program = compile_source(src)
        expect = sum(t + m for t, m in [(t, 8) for t in range(1, 4)])
        assert program.run((8, 3), backend="sim", parallelism=4).value == \
            pytest.approx(float(expect))

    def test_ld_spawned_from_inside_distributed_iteration(self):
        # Each iteration of the distributed i-loop calls a function whose
        # own loop is distributed and writes a per-iteration array.  The
        # nested LD replicates per call; ownership math keeps writes
        # disjoint, so results stay exact.
        src = """
        function fill_row(T, m, v) {
            for j = 1 to m { T[j] = v * 10.0 + 1.0 * j; }
            return 0;
        }
        function main(n, m) {
            A = matrix(n, m);
            for i = 1 to n {
                T = array(m);
                d = fill_row(T, m, 1.0 * i);
                for j = 1 to m { A[i, j] = T[j]; }
            }
            return A;
        }
        """
        program = compile_source(src)
        v = program.run((4, 6), backend="sim", parallelism=3).value
        for i in range(1, 5):
            for j in range(1, 7):
                assert v[i, j] == pytest.approx(i * 10.0 + j)


class TestHopsConfig:
    def test_more_hops_cost_more(self):
        src = """
        function main(n) {
            A = array(n);
            for i = 1 to n { A[i] = i; }
            s = 0;
            for i = 1 to n { next s = s + A[i]; }
            return s;
        }
        """
        program = compile_source(src)
        near = SimConfig(machine=MachineConfig(num_pes=4, avg_hops=1.0))
        far = SimConfig(machine=MachineConfig(num_pes=4, avg_hops=50.0))
        t_near = program.run((64,), backend="sim", parallelism=4, config=near)
        t_far = program.run((64,), backend="sim", parallelism=4, config=far)
        assert t_near.value == t_far.value
        assert t_far.time_us > t_near.time_us


class TestDeepNesting:
    def test_four_level_nest(self):
        src = """
        function main(n) {
            A = array(n, n, n);
            for i = 1 to n {
                for j = 1 to n {
                    for k = 1 to n {
                        A[i, j, k] = i * 100 + j * 10 + k;
                    }
                }
            }
            total = 0;
            for i = 1 to n {
                plane = 0;
                for j = 1 to n {
                    row = 0;
                    for k = 1 to n { next row = row + A[i, j, k]; }
                    next plane = plane + row;
                }
                next total = total + plane;
            }
            return total;
        }
        """
        program = compile_source(src)
        n = 3
        expect = sum(i * 100 + j * 10 + k
                     for i in range(1, n + 1)
                     for j in range(1, n + 1)
                     for k in range(1, n + 1))
        for pes in (1, 4):
            got = program.run((n,), backend="sim", parallelism=pes).value
            assert got == expect
