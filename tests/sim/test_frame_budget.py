"""Tests for k-bounded run-ahead (MachineConfig.spawn_budget).

The PODS Translator removes the k-bounded-loop synchronization Id
programs normally carry (paper Section 3); unbounded run-ahead is what
lets time steps pipeline, but it costs frame memory.  ``spawn_budget``
reintroduces the bound: an SP may have at most k outstanding
non-distributed children."""

import pytest

from repro.api import compile_source
from repro.apps.stencil import compile_stencil
from repro.common.config import MachineConfig, SimConfig

NESTED = """
function main(n) {
    A = matrix(n, n);
    for i = 1 to n { for j = 1 to n { A[i, j] = i + j; } }
    s = 0;
    for i = 1 to n {
        r = 0;
        for j = 1 to n { next r = r + A[i, j]; }
        next s = s + r;
    }
    return s;
}
"""


def with_budget(program, args, k, num_pes=1):
    config = SimConfig(machine=MachineConfig(num_pes=num_pes,
                                             spawn_budget=k))
    return program.run(args, backend="sim", parallelism=num_pes,
                       config=config).raw


class TestSpawnBudget:
    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_results_unchanged(self, k):
        program = compile_source(NESTED)
        free = program.run((12,), backend="sim", parallelism=1)
        bounded = with_budget(program, (12,), k)
        assert free.value == bounded.value

    def test_run_ahead_bounded_on_deep_pipelines(self):
        # 8 chained relaxation sweeps: unbounded run-ahead keeps many
        # sweeps' SPs alive at once; k=1 roughly halves the peak.
        program = compile_stencil()
        free = program.run((12, 8), backend="sim", parallelism=2).raw
        bounded = with_budget(program, (12, 8), 1, num_pes=2)
        assert bounded.value == pytest.approx(free.value)
        assert bounded.stats.max_live_frames < free.stats.max_live_frames

    def test_tight_budget_never_hangs(self):
        # k=1 serializes each spawner's children; the machine must still
        # drain (per-spawner bounding is deadlock-free for programs
        # without intra-loop forward dependencies).
        program = compile_source(NESTED)
        r = with_budget(program, (10,), 1)
        assert r.value == sum(i + j for i in range(1, 11)
                              for j in range(1, 11))

    def test_multi_pe_with_budget(self):
        program = compile_source(NESTED)
        r = with_budget(program, (12,), 2, num_pes=4)
        assert r.value == program.run((12,), backend="seq").value

    def test_budget_interacts_with_distributed_spawns(self):
        # LD spawns are exempt (they are the distribution mechanism, not
        # run-ahead); the program still distributes and completes.
        program = compile_source(NESTED)
        free = program.run((12,), backend="sim", parallelism=4)
        bounded = with_budget(program, (12,), 1, num_pes=4)
        assert bounded.value == free.value

    def test_calls_count_against_budget(self):
        src = """
        function leaf(x) { return x * 2; }
        function main(n) {
            s = 0;
            for i = 1 to n { next s = s + leaf(i); }
            return s;
        }
        """
        program = compile_source(src)
        r = with_budget(program, (20,), 1)
        assert r.value == 2 * 20 * 21 // 2

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            MachineConfig(spawn_budget=0)

    def test_sweep_pipelines_under_budget(self):
        src = """
        function main(n) {
            B = matrix(n, n);
            for j = 1 to n { B[1, j] = 1.0 * j; }
            for i = 2 to n {
                for j = 1 to n { B[i, j] = B[i - 1, j] + 1.0; }
            }
            return B[n, n];
        }
        """
        program = compile_source(src)
        r = with_budget(program, (10,), 1, num_pes=2)
        assert r.value == pytest.approx(19.0)

    def test_stats_track_peak(self):
        program = compile_source(NESTED)
        r = program.run((12,), backend="sim", parallelism=1).raw
        assert r.stats.max_live_frames > 0
        assert "peak live" in r.stats.report()
