"""End-to-end tests of the PODS simulator: semantics on 1..N PEs."""

import pytest

from repro.api import compile_source
from repro.common.config import MachineConfig, SimConfig
from repro.common.errors import (
    BoundsViolation,
    DeadlockError,
    ExecutionError,
    SingleAssignmentViolation,
)

PES = [1, 2, 4, 7]


def run(src, args=(), num_pes=1, **cfg):
    p = compile_source(src)
    if cfg:
        config = SimConfig(machine=MachineConfig(num_pes=num_pes, **cfg))
        return p.run(args, backend="sim", config=config).raw
    return p.run(args, backend="sim", parallelism=num_pes).raw


class TestScalars:
    def test_constant_return(self):
        assert run("function main() { return 42; }").value == 42

    def test_arithmetic(self):
        src = "function main(a, b) { return (a + b) * (a - b) / 2; }"
        assert run(src, (7, 3)).value == pytest.approx(20.0)

    def test_float_int_mix(self):
        src = "function main() { return 3 * 0.5 + 1; }"
        assert run(src).value == pytest.approx(2.5)

    def test_builtins(self):
        src = ("function main(x) { return sqrt(x) + abs(-2) + min(4, 9)"
               " + max(4, 9); }")
        assert run(src, (16.0,)).value == pytest.approx(4.0 + 2 + 4 + 9)

    def test_power(self):
        assert run("function main() { return 2 ^ 10; }").value == 1024

    def test_mod(self):
        assert run("function main() { return 17 % 5; }").value == 2

    def test_comparison_chain(self):
        src = "function main(a) { return if a >= 10 and a < 20 then 1 else 0; }"
        assert run(src, (15,)).value == 1
        assert run(src, (25,)).value == 0

    def test_division_by_zero_faults(self):
        with pytest.raises(ExecutionError):
            run("function main(a) { return 1 / a; }", (0,))


class TestConditionals:
    def test_if_expression(self):
        src = "function main(a, b) { return if a < b then a else b; }"
        assert run(src, (3, 9)).value == 3
        assert run(src, (9, 3)).value == 3

    def test_if_statement_with_returns(self):
        src = """
        function main(a) {
            if a > 0 { return 1; } else if a < 0 { return -1; } else { return 0; }
        }
        """
        assert run(src, (5,)).value == 1
        assert run(src, (-5,)).value == -1
        assert run(src, (0,)).value == 0

    def test_untaken_branch_read_does_not_deadlock(self):
        # The else branch reads A[n] which is never written; the then
        # branch must protect it (dataflow switch semantics).
        src = """
        function main(n) {
            A = array(n);
            A[1] = 7;
            return if n > 0 then A[1] else A[n];
        }
        """
        assert run(src, (5,)).value == 7


class TestLoops:
    @pytest.mark.parametrize("pes", PES)
    def test_fill_matrix(self, pes):
        src = """
        function main(n) {
            A = matrix(n, n);
            for i = 1 to n {
                for j = 1 to n { A[i, j] = i * 100 + j; }
            }
            return A;
        }
        """
        v = run(src, (6,), num_pes=pes).value
        assert v.dims == (6, 6)
        for i in range(1, 7):
            for j in range(1, 7):
                assert v[i, j] == i * 100 + j

    @pytest.mark.parametrize("pes", PES)
    def test_descending_loop(self, pes):
        src = """
        function main(n) {
            A = array(n);
            for i = n downto 1 { A[i] = n - i; }
            return A;
        }
        """
        v = run(src, (9,), num_pes=pes).value
        assert v.flat == [8, 7, 6, 5, 4, 3, 2, 1, 0]

    def test_empty_loop(self):
        src = """
        function main() {
            s = 5;
            for i = 1 to 0 { next s = s + 100; }
            return s;
        }
        """
        assert run(src).value == 5

    def test_reduction(self):
        src = """
        function main(n) {
            s = 0;
            for i = 1 to n { next s = s + i; }
            return s;
        }
        """
        assert run(src, (100,)).value == 5050

    def test_next_values_see_old_values(self):
        # Both 'next' right-hand sides read the previous iteration's
        # values (Id semantics): a Fibonacci pair swap.
        src = """
        function main(n) {
            a = 0;
            b = 1;
            for i = 1 to n { next a = b; next b = a + b; }
            return a;
        }
        """
        assert run(src, (10,)).value == 55

    def test_conditional_next(self):
        src = """
        function main(n) {
            evens = 0;
            for i = 1 to n {
                if i % 2 == 0 { next evens = evens + 1; }
            }
            return evens;
        }
        """
        assert run(src, (9,)).value == 4

    @pytest.mark.parametrize("pes", [1, 3])
    def test_nested_reduction_with_loop_results(self, pes):
        src = """
        function main(n) {
            A = matrix(n, n);
            for i = 1 to n { for j = 1 to n { A[i, j] = i * j; } }
            total = 0;
            for i = 1 to n {
                row = 0;
                for j = 1 to n { next row = row + A[i, j]; }
                next total = total + row;
            }
            return total;
        }
        """
        n = 5
        expect = sum(i * j for i in range(1, n + 1) for j in range(1, n + 1))
        assert run(src, (n,), num_pes=pes).value == expect

    def test_while_loop(self):
        src = """
        function main(n) {
            s = 1;
            k = 0;
            while s < n { next s = s * 2; next k = k + 1; }
            return k;
        }
        """
        assert run(src, (1000,)).value == 10

    def test_while_false_initially(self):
        src = """
        function main() {
            s = 5;
            while s < 0 { next s = s - 1; }
            return s;
        }
        """
        assert run(src).value == 5


class TestSweeps:
    """LCD loops: I-structure synchronization serializes correctly."""

    @pytest.mark.parametrize("pes", PES)
    def test_row_sweep(self, pes):
        src = """
        function main(n) {
            B = matrix(n, n);
            for j = 1 to n { B[1, j] = 1.0 * j; }
            for i = 2 to n {
                for j = 1 to n { B[i, j] = B[i - 1, j] + 1.0; }
            }
            return B;
        }
        """
        v = run(src, (8,), num_pes=pes).value
        for i in range(1, 9):
            for j in range(1, 9):
                assert v[i, j] == pytest.approx(j + i - 1.0)

    @pytest.mark.parametrize("pes", [1, 4])
    def test_ascending_then_descending_sweep(self, pes):
        # The conduction pattern: a forward then a backward pass.
        src = """
        function main(n) {
            F = array(n);
            G = array(n);
            F[1] = 1.0;
            for i = 2 to n { F[i] = F[i - 1] * 0.5 + 1.0; }
            G[n] = F[n];
            for i = n - 1 downto 1 { G[i] = G[i + 1] * 0.5 + F[i]; }
            return G;
        }
        """
        v = run(src, (6,), num_pes=pes).value
        f = [None, 1.0]
        for i in range(2, 7):
            f.append(f[i - 1] * 0.5 + 1.0)
        g = [None] * 7
        g[6] = f[6]
        for i in range(5, 0, -1):
            g[i] = g[i + 1] * 0.5 + f[i]
        for i in range(1, 7):
            assert v[i] == pytest.approx(g[i])

    def test_wavefront_2d(self):
        src = """
        function main(n) {
            A = matrix(n, n);
            A[1, 1] = 1;
            for j = 2 to n { A[1, j] = A[1, j - 1] + 1; }
            for i = 2 to n { A[i, 1] = A[i - 1, 1] + 1; }
            for i = 2 to n {
                for j = 2 to n { A[i, j] = A[i - 1, j] + A[i, j - 1]; }
            }
            return A;
        }
        """
        v = run(src, (5,), num_pes=3).value
        # Pascal-like recurrence; check a couple of known values.
        assert v[1, 5] == 5
        assert v[2, 2] == 2 + 2
        assert v[5, 5] == v[4, 5] + v[5, 4]


class TestFunctions:
    def test_simple_call(self):
        src = """
        function square(x) { return x * x; }
        function main(n) { return square(n) + square(n + 1); }
        """
        assert run(src, (3,)).value == 9 + 16

    def test_recursion(self):
        src = """
        function fact(n) { return if n <= 1 then 1 else n * fact(n - 1); }
        function main() { return fact(10); }
        """
        assert run(src).value == 3628800

    def test_double_recursion(self):
        src = """
        function fib(n) { return if n < 2 then n else fib(n - 1) + fib(n - 2); }
        function main() { return fib(15); }
        """
        assert run(src).value == 610

    @pytest.mark.parametrize("pes", [1, 4])
    def test_array_passed_to_function(self, pes):
        src = """
        function fill(B, n) {
            for i = 1 to n { B[i] = i * i; }
            return 0;
        }
        function total(B, n) {
            s = 0;
            for i = 1 to n { next s = s + B[i]; }
            return s;
        }
        function main(n) {
            A = array(n);
            dummy = fill(A, n);
            return total(A, n);
        }
        """
        assert run(src, (6,), num_pes=pes).value == sum(i * i for i in range(1, 7))

    def test_function_called_inside_loop(self):
        src = """
        function f(i, j) { return i * 10 + j; }
        function main(n) {
            A = matrix(n, n);
            for i = 1 to n {
                for j = 1 to n { A[i, j] = f(i, j); }
            }
            return A;
        }
        """
        v = run(src, (4,), num_pes=2).value
        assert v[3, 2] == 32


class TestFaults:
    def test_single_assignment_violation(self):
        src = """
        function main() {
            A = array(4);
            A[1] = 1;
            A[1] = 2;
            return A;
        }
        """
        with pytest.raises(SingleAssignmentViolation):
            run(src)

    def test_bounds_violation(self):
        src = """
        function main(n) {
            A = array(n);
            A[n + 1] = 1;
            return A;
        }
        """
        with pytest.raises(BoundsViolation):
            run(src, (4,))

    def test_read_of_never_written_deadlocks_with_diagnostics(self):
        src = """
        function main(n) {
            A = array(n);
            A[1] = 1;
            return A[2];
        }
        """
        with pytest.raises(DeadlockError) as exc:
            run(src, (4,))
        assert "deferred reads" in str(exc.value)

    def test_arithmetic_on_array_id_faults(self):
        src = """
        function main(n) {
            A = array(n);
            return A + 1;
        }
        """
        with pytest.raises(ExecutionError):
            run(src, (4,))


class TestDeterminism:
    SWEEP = """
    function main(n) {
        B = matrix(n, n);
        for j = 1 to n { B[1, j] = 1.0 * j; }
        for i = 2 to n {
            for j = 1 to n { B[i, j] = B[i - 1, j] * 0.9 + 0.1; }
        }
        return B;
    }
    """

    def test_identical_runs_identical_times(self):
        p = compile_source(self.SWEEP)
        r1 = p.run((6,), backend="sim", parallelism=3).raw
        r2 = p.run((6,), backend="sim", parallelism=3).raw
        assert r1.finish_time_us == r2.finish_time_us
        assert r1.value == r2.value
        assert r1.stats.events_processed == r2.stats.events_processed

    def test_results_invariant_under_jitter(self):
        # The Church-Rosser property (paper Section 2): scheduling
        # nondeterminism must never change the answer.
        p = compile_source(self.SWEEP)
        base = p.run((6,), backend="sim", parallelism=4)
        for seed in range(5):
            cfg = SimConfig(machine=MachineConfig(num_pes=4),
                            jitter_seed=seed, jitter_max_us=200.0)
            jr = p.run((6,), backend="sim", parallelism=4, config=cfg)
            assert jr.value == base.value

    def test_same_result_across_pe_counts(self):
        p = compile_source(self.SWEEP)
        base = p.run((7,), backend="sim", parallelism=1).value
        for pes in (2, 3, 5, 8):
            assert p.run((7,), backend="sim", parallelism=pes).value == base


class TestStatsAndUnits:
    def test_eu_is_busiest_unit(self):
        # Figure 8's headline: the EU dominates utilization.
        src = """
        function main(n) {
            A = matrix(n, n);
            for i = 1 to n {
                for j = 1 to n { A[i, j] = 1.0 * i * j + 0.5; }
            }
            return A;
        }
        """
        r = run(src, (10,), num_pes=2)
        util = r.stats.utilizations()
        assert util["EU"] == max(util.values())

    def test_remote_traffic_only_with_multiple_pes(self):
        src = """
        function main(n) {
            A = array(n);
            for i = 1 to n { A[i] = i; }
            return A;
        }
        """
        r1 = run(src, (64,), num_pes=1)
        assert r1.stats.total("tokens_sent_remote") == 0
        assert r1.stats.remote_reads == 0
        r4 = run(src, (64,), num_pes=4)
        assert r4.stats.total("tokens_sent_remote") > 0

    def test_page_cache_reduces_remote_traffic(self):
        # Gather loop executed on PE0 reads everything; with caching the
        # pages amortize, without it every remote read is a round trip.
        src = """
        function main(n) {
            A = array(n);
            for i = 1 to n { A[i] = i; }
            s = 0;
            for i = 1 to n { next s = s + A[i]; }
            return s;
        }
        """
        with_cache = run(src, (128,), num_pes=4, cache_enabled=True)
        without = run(src, (128,), num_pes=4, cache_enabled=False)
        assert with_cache.value == without.value == 128 * 129 // 2
        assert (with_cache.stats.total("pages_sent")
                < without.stats.total("pages_sent"))
        assert with_cache.stats.total("cache_hits") > 0

    def test_frames_all_released(self):
        src = """
        function main(n) {
            A = matrix(n, n);
            for i = 1 to n { for j = 1 to n { A[i, j] = i + j; } }
            return A;
        }
        """
        p = compile_source(src)
        m_cfg = SimConfig(machine=MachineConfig(num_pes=3))
        from repro.sim.machine import Machine

        m = Machine(p.pods, m_cfg)
        m.run((6,))
        assert m.frames == {}
        created = sum(pe.stats.frames_created for pe in m.pes)
        destroyed = sum(pe.stats.frames_destroyed for pe in m.pes)
        assert created == destroyed > 0

    def test_speedup_on_compute_heavy_loop(self):
        src = """
        function main(n) {
            A = matrix(n, n);
            for i = 1 to n {
                for j = 1 to n {
                    A[i, j] = sqrt(1.0 * i * j) + sqrt(2.0 * i) + sqrt(3.0 * j);
                }
            }
            return A;
        }
        """
        t1 = run(src, (16,), num_pes=1).finish_time_us
        t4 = run(src, (16,), num_pes=4).finish_time_us
        assert t1 / t4 > 2.0, f"speedup only {t1 / t4:.2f}"


class TestBlockingReadAblation:
    def test_split_phase_beats_blocking_reads(self):
        # Two independent reductions run concurrently on the spawning PE.
        # With split-phase reads their remote misses overlap; with
        # blocking reads (the P&R-style ablation) the EU stalls on each
        # round trip.  Results must be identical either way.
        src = """
        function total(B, n) {
            s = 0;
            for i = 1 to n { next s = s + B[i]; }
            return s;
        }
        function main(n) {
            A = array(n);
            B = array(n);
            for i = 1 to n { A[i] = i; }
            for i = 1 to n { B[i] = i * 2; }
            return total(A, n) + total(B, n);
        }
        """
        split = run(src, (128,), num_pes=4, split_phase_reads=True)
        blocking = run(src, (128,), num_pes=4, split_phase_reads=False)
        expect = 128 * 129 // 2 * 3
        assert split.value == blocking.value == expect
        assert blocking.finish_time_us > split.finish_time_us
