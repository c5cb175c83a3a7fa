"""Fast path vs reference interpreter: bit-identity differentials.

The table-driven fast path (:mod:`repro.sim.decode` plus the batched
event loop) promises *bit*-identity with the reference interpreter —
same modeled times, same metrics registry, same trace, same error text —
on every app, under every chaos scenario, and on random programs.  These
tests run each configuration twice, once per path, and compare raw
values with ``==`` (no tolerances: the contract is identical float
accumulation, not approximately-equal results).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import compile_source
from repro.apps.livermore import compile_kernel
from repro.apps.matmul import compile_matmul
from repro.apps.nbody import compile_nbody
from repro.apps.simple_app import compile_simple
from repro.apps.stencil import compile_stencil
from repro.common.config import MachineConfig, ObsConfig, SimConfig
from repro.sim import chaos
from repro.sim.machine import Machine

from tests.properties.test_semantics_properties import exprs


def _config(pes: int, fast: bool, **over) -> SimConfig:
    return SimConfig(machine=MachineConfig(num_pes=pes),
                     obs=ObsConfig(metrics=True),
                     fast_path=fast, **over)


def _run_both(program, args: tuple, pes: int, **over):
    """One (program, args, pes) configuration on both interpreter paths."""
    return tuple(program.run(args, backend="sim",
                             config=_config(pes, fast, **over)).raw
                 for fast in (True, False))


def _assert_identical(fast, ref) -> None:
    assert fast.value == ref.value
    assert fast.stats.finish_time_us == ref.stats.finish_time_us
    assert fast.stats.events_processed == ref.stats.events_processed
    assert fast.stats.instructions == ref.stats.instructions
    assert fast.stats.context_switches == ref.stats.context_switches
    assert fast.stats.registry.to_jsonl() == ref.stats.registry.to_jsonl()


APPS = [
    ("simple", lambda: compile_simple(), (8, 1)),
    ("matmul", lambda: compile_matmul(checksum=True), (6,)),
    ("nbody", lambda: compile_nbody(), (8, 1)),
    ("stencil", lambda: compile_stencil(), (10, 2)),
    ("livermore-hydro", lambda: compile_kernel("hydro"), (24,)),
    ("livermore-inner", lambda: compile_kernel("inner"), (24,)),
]


class TestApps:
    @pytest.mark.parametrize("name, build, args",
                             APPS, ids=[a[0] for a in APPS])
    @pytest.mark.parametrize("pes", [1, 4])
    def test_app_bit_identical(self, name, build, args, pes):
        _assert_identical(*_run_both(build(), args, pes))


class TestChaosScenarios:
    """Every simulated-network chaos scenario behaves identically on the
    fast path: healed runs finish at the same modeled time with the same
    metrics; diagnosed runs raise the same error with the same text."""

    @pytest.fixture(scope="class")
    def program(self):
        return compile_source(chaos.ROW_SWEEP)

    @pytest.mark.parametrize(
        "scenario", chaos.scenarios(4), ids=lambda s: s.name)
    def test_scenario_bit_identical(self, program, scenario):
        def run(fast: bool):
            cfg = _config(4, fast, faults=scenario.faults, **scenario.cfg)
            return program.run((chaos.N,), backend="sim", config=cfg).raw

        if scenario.heals:
            _assert_identical(run(True), run(False))
            return
        with pytest.raises(scenario.error) as fast_exc:
            run(True)
        with pytest.raises(scenario.error) as ref_exc:
            run(False)
        assert str(fast_exc.value) == str(ref_exc.value)


class TestTrace:
    def test_golden_trace_identical(self):
        """The structured event trace — order and content — matches."""
        program = compile_source(chaos.ROW_SWEEP)

        def traced(fast: bool):
            cfg = SimConfig(machine=MachineConfig(num_pes=2),
                            obs=ObsConfig(trace=True), fast_path=fast)
            machine = Machine(program.pods, cfg)
            machine.run((6,))
            return [e.golden_line() for e in machine.tracer.events]

        lines_fast, lines_ref = traced(True), traced(False)
        assert lines_fast == lines_ref
        assert lines_fast  # non-empty: the tracer actually recorded


class TestErrorText:
    @pytest.mark.parametrize("source, args", [
        # Type error inside a binop (decode.py re-creates the reference
        # diagnostic, template name and pc included).
        ("function main(n) { A = matrix(n, n); return A + 1; }", (3,)),
        # Out-of-bounds array write caught by the Array Manager.
        ("function main(n) { A = matrix(n, n); A[n + 1, 1] = 0;"
         " return A[1, 1]; }", (3,)),
    ])
    def test_error_text_identical(self, source, args):
        program = compile_source(source)
        errors = []
        for fast in (True, False):
            with pytest.raises(Exception) as exc:
                program.run(args, backend="sim", config=_config(2, fast))
            errors.append((type(exc.value), str(exc.value)))
        assert errors[0] == errors[1]


class TestTilingInvariant:
    """Satellite of the batched event loop: per-PE busy + attributed wait
    intervals still tile ``[0, makespan]`` exactly with the fast path on
    (the float-drift audit for ``_serve``/``schedule`` under batching)."""

    @pytest.mark.parametrize("pes", [1, 3, 4])
    def test_busy_plus_waits_tile_makespan(self, pes):
        from repro.obs.critpath import pe_wait_intervals

        program = compile_simple()
        cfg = SimConfig(machine=MachineConfig(num_pes=pes),
                        obs=ObsConfig(timelines=True, waits=True))
        assert cfg.fast_path
        result = program.run((8, 1), backend="sim", config=cfg).raw
        stats = result.stats
        finish = stats.finish_time_us
        for pe in range(pes):
            intervals = pe_wait_intervals(stats.waits, stats.timelines,
                                          pe, finish)
            line = stats.timelines.line(pe, "EU")
            # Structural exactness: the attributed idle intervals are the
            # complement of the busy spans — shared boundaries are equal
            # floats, not merely close ones.
            busy_edges = [(s.start, s.end) for s in line.spans()]
            pieces = sorted(busy_edges
                            + [(s, e) for s, e, _ in intervals])
            cursor = 0.0
            for s, e in pieces:
                assert s == cursor
                assert e >= s
                cursor = e
            assert cursor == finish
            covered = sum(e - s for s, e, _ in intervals)
            busy = line.busy_between(0.0, finish)
            assert covered + busy == pytest.approx(finish, rel=1e-12)


class TestRandomPrograms:
    @given(expr=exprs(), pes=st.sampled_from([1, 3]))
    @settings(max_examples=40, deadline=None)
    def test_random_expression_programs_bit_identical(self, expr, pes):
        src, _ = expr
        program = compile_source(
            f"function main(a, b) {{ return {src}; }}")
        fast, ref = _run_both(program, (3, 1.5), pes)
        _assert_identical(fast, ref)


class TestOverrides:
    def test_env_var_forces_reference(self, monkeypatch):
        program = compile_simple()
        monkeypatch.setenv("PODS_SIM_REFERENCE", "1")
        machine = Machine(program.pods, SimConfig())
        assert machine._dcode is None
        monkeypatch.delenv("PODS_SIM_REFERENCE")
        machine = Machine(program.pods, SimConfig())
        assert machine._dcode is not None
        assert machine._eu_step.__func__ is Machine._eu_step_fast

    def test_config_flag_selects_reference(self):
        program = compile_simple()
        machine = Machine(program.pods, SimConfig(fast_path=False))
        assert machine._dcode is None
        assert machine._eu_step.__func__ is Machine._eu_step
