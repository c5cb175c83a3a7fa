"""Pipeline-wide integration: every shipped app must survive the full
tool chain — optimizer, serialization, graph validation, rendering —
with unchanged results."""

import pytest

from repro.api import compile_source
from repro.apps.livermore import KERNELS
from repro.apps.matmul import MATMUL_CHECKSUM_SOURCE
from repro.apps.nbody import NBODY_SOURCE
from repro.apps.simple_app import simple_source
from repro.apps.stencil import STENCIL_SOURCE

APPS = {
    "matmul": (MATMUL_CHECKSUM_SOURCE, (6,)),
    "stencil": (STENCIL_SOURCE, (8, 2)),
    "simple": (simple_source(), (8, 1)),
    "nbody": (NBODY_SOURCE, (8, 1)),
    "livermore-hydro": (KERNELS["hydro"], (16,)),
    "livermore-tridiag": (KERNELS["tridiag"], (16,)),
}


@pytest.mark.parametrize("name", sorted(APPS))
def test_optimizer_is_transparent(name):
    src, args = APPS[name]
    plain = compile_source(src)
    opt = compile_source(src, optimize=True)
    a = plain.run(args, backend="sim", parallelism=2).raw
    b = opt.run(args, backend="sim", parallelism=2).raw
    assert b.value == pytest.approx(a.value, rel=1e-12)
    assert b.stats.instructions <= a.stats.instructions


@pytest.mark.parametrize("name", sorted(APPS))
def test_serialization_round_trip(name, tmp_path):
    from repro.sim.machine import run_program
    from repro.translator.serialize import load_program, save_program

    src, args = APPS[name]
    program = compile_source(src)
    path = tmp_path / f"{name}.pods"
    save_program(program.pods, str(path))
    loaded = load_program(str(path))
    a = run_program(program.pods, args)
    b = run_program(loaded, args)
    assert a.value == b.value
    assert a.finish_time_us == b.finish_time_us


@pytest.mark.parametrize("name", sorted(APPS))
def test_renderers_handle_every_app(name):
    from repro.graph.render import to_dot, to_text

    src, _ = APPS[name]
    program = compile_source(src)
    dot = to_dot(program.graph)
    text = to_text(program.graph)
    assert dot.count("{") == dot.count("}")
    assert "function main" in text


@pytest.mark.parametrize("name", sorted(APPS))
def test_trace_mode_does_not_change_results(name):
    from repro.common.config import MachineConfig, ObsConfig, SimConfig
    from repro.sim.machine import Machine

    src, args = APPS[name]
    program = compile_source(src)
    plain = program.run(args, backend="sim", parallelism=2)
    m = Machine(program.pods,
                SimConfig(machine=MachineConfig(num_pes=2),
                          obs=ObsConfig(trace=True)))
    traced = m.run(args)
    assert traced.value == pytest.approx(plain.value, rel=1e-12)
    assert traced.finish_time_us == plain.time_us
