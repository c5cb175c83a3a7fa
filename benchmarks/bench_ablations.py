"""Ablations over the design choices the paper discusses:

* page size — Section 4.1 reports 32 elements as best for the iPSC/2 but
  "not a critical parameter" [BIC89];
* the software page cache of Section 4 — single-assignment caching with
  no coherence traffic;
* split-phase remote reads (Section 4) vs blocking reads — the
  latency-hiding mechanism that separates PODS from pure compilation.
"""

from __future__ import annotations

from conftest import save_report, simple_args

from repro.bench.report import render_table

PES = 8
N = 16


def test_ablation_page_size(benchmark, sweeper, simple_program):
    args = simple_args(N)
    rows = []
    times = {}
    for page in (8, 16, 32, 64):
        point = sweeper.run(simple_program, args, PES, key="simple",
                            page_size=page)
        times[page] = point.time_us
        rows.append([page, point.time_us / 1e3, point.remote_reads])

    table = render_table(["page size", "time (ms)", "remote reads"], rows)
    report = (f"Ablation - page size (SIMPLE {N}x{N}, {PES} PEs)\n\n" + table
              + "\n\nPaper: 32 elements best on the iPSC/2, but 'previous"
              " studies have\nshown that this is not a critical parameter'"
              " [Bic89].")
    save_report("ablation_page_size.txt", report)
    print("\n" + report)

    # Not critical: within a modest band across an 8x size range.
    assert max(times.values()) / min(times.values()) < 2.0

    benchmark.pedantic(
        lambda: sweeper.run(simple_program, args, PES, key="simple",
                            page_size=16),
        rounds=1, iterations=1)


def test_ablation_cache_and_split_phase(benchmark, sweeper, simple_program):
    args = simple_args(N)
    base = sweeper.run(simple_program, args, PES, key="simple")
    no_cache = sweeper.run(simple_program, args, PES, key="simple",
                           cache_enabled=False)
    blocking = sweeper.run(simple_program, args, PES, key="simple",
                           split_phase_reads=False)

    rows = [
        ["PODS (cache + split-phase)", base.time_us / 1e3,
         base.remote_reads],
        ["no page cache", no_cache.time_us / 1e3, no_cache.remote_reads],
        ["blocking remote reads", blocking.time_us / 1e3,
         blocking.remote_reads],
    ]
    table = render_table(["configuration", "time (ms)", "remote reads"], rows)
    report = (f"Ablation - caching and split-phase reads "
              f"(SIMPLE {N}x{N}, {PES} PEs)\n\n" + table)
    save_report("ablation_cache_split_phase.txt", report)
    print("\n" + report)

    # Both mechanisms must help (or at worst be neutral) on this workload.
    assert no_cache.time_us >= base.time_us * 0.98
    assert blocking.time_us > base.time_us

    benchmark.pedantic(
        lambda: sweeper.run(simple_program, args, 4, key="simple",
                            cache_enabled=False),
        rounds=1, iterations=1)
