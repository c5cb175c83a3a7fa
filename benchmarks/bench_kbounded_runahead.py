"""k-bounded run-ahead (our extension; cf. paper Section 3 and [Cul89]):
the PODS Translator removes k-bounded-loop throttling, buying cross-step
pipelining at the price of frame memory.  This bench quantifies that
trade on the chained-sweep stencil."""

from __future__ import annotations

import pytest

from conftest import save_report

from repro.apps.stencil import compile_stencil
from repro.bench.report import render_table
from repro.common.config import MachineConfig, SimConfig

N, SWEEPS, PES = 12, 8, 4


def test_kbounded_runahead(benchmark):
    program = compile_stencil()
    rows = []
    free = program.run((N, SWEEPS), backend="sim", parallelism=PES)
    rows.append(["unbounded", free.time_us / 1e3,
                 free.stats.max_live_frames])
    peaks = {}
    for k in (4, 2, 1):
        config = SimConfig(machine=MachineConfig(num_pes=PES,
                                                 spawn_budget=k))
        r = program.run((N, SWEEPS), backend="sim", parallelism=PES,
                        config=config)
        assert r.value == pytest.approx(free.value)
        peaks[k] = r.stats.max_live_frames
        rows.append([f"k = {k}", r.time_us / 1e3,
                     r.stats.max_live_frames])

    table = render_table(
        ["run-ahead", "time (ms)", "peak live SPs/PE"], rows)
    report = (f"k-bounded run-ahead ablation "
              f"(stencil {N}x{N}, {SWEEPS} sweeps, {PES} PEs)\n\n" + table
              + "\n\nUnbounded run-ahead (the PODS default after the"
              "\nTranslator strips k-bounding) pipelines the sweeps at the"
              "\ncost of live-frame memory; small k caps memory with a"
              "\nmodest time penalty.")
    save_report("ablation_kbounded_runahead.txt", report)
    print("\n" + report)

    assert peaks[1] < free.stats.max_live_frames

    benchmark.pedantic(
        lambda: program.run((8, 2), backend="sim", parallelism=2),
        rounds=1, iterations=1)
