"""The traced run: spans around each layer's public functions.

One traced rep of a layer is one of the ``trace_*`` functions below.
The layer a workload exercises is traced on the workload itself at full
size; every other layer is traced on a small fixed *probe* (the quick
size of a workload of that layer), so that each traced run reports every
per-layer metric and a layer's probe numbers compare across commits even
where the workload bypasses that layer.  ``derive`` turns the recorded
spans and samples into the metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import asyncio
import collections
import cProfile
import gc
import os
import pstats

from e2ebench import stats
from e2ebench.calib import cpu_seconds
from e2ebench.tracer import Recorder
from e2ebench.workloads import value_problem

# The workload each layer is traced on, and the span that is that
# workload's whole operation.
SUBJECT = {"compile": "compile_corpus", "sim": "sim_observed",
           "parallel": "par_matmul", "dist": "dist_matmul"}
OP_SPAN = {"sim_simple": "sim.plain", "sim_observed": "sim.observed",
           "compile_corpus": "compile.staged", "par_matmul": "parallel.run",
           "dist_matmul": "dist.run"}

# Counts that are a function of the program alone and must repeat
# exactly from rep to rep.
EXACT_SAMPLES = (
    "lang.source_bytes", "lang.tokens", "graph.blocks", "graph.nodes",
    "graph.optimize_removed", "analysis.loops", "analysis.lcd_loops",
    "partitioner.distributed", "partitioner.local_lcd",
    "partitioner.local_no_filter", "translator.templates",
    "translator.instrs", "sim.model_time_us", "sim.model_speedup",
    "sim.events", "sim.instructions", "sim.util_eu", "sim.util_mu",
    "sim.util_ru", "sim.util_am", "sim.util_mm", "sim.critical_path_us",
    "sim.context_switches", "sim.tokens_local", "sim.tokens_remote",
    "sim.array_reads_remote", "sim.cache_hit_rate", "sim.pages_sent",
    "sim.frames_created", "sim.max_live_frames", "obs.record_bytes",
    "obs.registry_rows", "obs.wait_spans", "ckpt.bytes",
)

# metric -> span whose per-rep self time it is the median of.
STAGE_SPANS = {
    "lang.tokenize_s": "lang.tokenize", "lang.parse_s": "lang.parse",
    "lang.analyze_s": "lang.analyze", "graph.build_s": "graph.build",
    "graph.optimize_s": "graph.optimize",
    "graph.validate_s": "graph.validate", "analysis.lcd_s": "analysis.lcd",
    "partitioner.partition_s": "partitioner.partition",
    "translator.translate_s": "translator.translate",
    "sim.decode_s": "sim.decode", "sim.machine_init_s": "sim.machine_init",
    "sim.run_s": "sim.run", "obs.record_s": "obs.record",
    "obs.store_put_s": "obs.store_put", "ckpt.cost_s": "ckpt.snapshot",
    "baseline.seq_s": "baseline.seq", "api.import_s": "api.import",
    "parallel.floor_s": "parallel.floor", "dist.floor_s": "dist.floor",
}
COMPILE_STAGES = [m for m in STAGE_SPANS
                  if m.split(".")[0] in ("lang", "graph", "analysis",
                                         "partitioner", "translator")]

PROFILE_BUCKETS = ("sim_machine", "sim_decode", "runtime", "obs", "lang",
                   "graph", "translator", "other")


# -- one traced rep per layer ------------------------------------------------


def trace_compile(rec: Recorder, w) -> list[str]:
    """Compile every source twice: whole (``compile_source``) and staged
    by hand, one public function at a time.  The two listings must be
    byte-equal or the rep fails."""
    from repro import compile_source
    from repro.analysis import annotate_lcds
    from repro.graph import build_graph, validate_graph
    from repro.graph.optimize import optimize_graph
    from repro.lang import analyze, parse, tokenize
    from repro.partitioner import partition
    from repro.translator import translate

    problems = []
    counts = collections.Counter()
    for source in w.corpus:
        # A full collection before each compile, so that a gen-2 pause
        # (tens of ms) does not land in whichever stage happens to cross
        # the allocation threshold and read as that stage's time.
        gc.collect()
        whole, _ = rec.call("api.compile", compile_source, source.text,
                            optimize=source.optimize)
        gc.collect()
        with rec.span("compile.staged"):
            tokens, twin = rec.call("lang.tokenize", tokenize, source.text)
            tree, _ = rec.call("lang.parse", parse, source.text, twin=twin)
            _, twin = rec.call("lang.analyze", analyze, tree)
            graph, _ = rec.call("graph.build", build_graph, tree,
                                entry="main", twin=twin)
            _, twin = rec.call("analysis.lcd", annotate_lcds, graph)
            report, _ = rec.call("partitioner.partition", partition, graph,
                                 twin=twin)
            removed = {}
            if source.optimize:
                removed, _ = rec.call("graph.optimize", optimize_graph,
                                      graph)
            rec.call("graph.validate", validate_graph, graph)
            pods, _ = rec.call("translator.translate", translate, graph)
            pods.name = "main"
        if pods.listing() != whole.listing():
            problems.append(f"staged listing of {source.name} differs "
                            f"from compile_source's")
        loops = list(graph.loop_blocks())
        counts["lang.source_bytes"] += len(source.text.encode())
        counts["lang.tokens"] += len(tokens)
        counts["graph.blocks"] += len(graph.blocks)
        counts["graph.nodes"] += sum(len(b.defs)
                                     for b in graph.blocks.values())
        counts["graph.optimize_removed"] += sum(removed.values())
        counts["analysis.loops"] += len(loops)
        counts["analysis.lcd_loops"] += sum(1 for b in loops if b.has_lcd)
        counts["partitioner.distributed"] += len(report.distributed)
        counts["partitioner.local_lcd"] += len(report.local_lcd)
        counts["partitioner.local_no_filter"] += len(report.local_no_filter)
        counts["translator.templates"] += len(pods.templates)
        counts["translator.instrs"] += sum(len(t.code)
                                           for t in pods.templates.values())
    for name, value in counts.items():
        rec.sample(name, value)
    return problems


def trace_sim(rec: Recorder, w, first: bool) -> list[str]:
    """The plain run split into decode / ``Machine(...)`` / ``.run``, then
    the observed run with its checkpoint, run record and ledger put."""
    from repro.ckpt import CkptWriter
    from repro.obs.runrecord import canonical_json
    from repro.sim.decode import decode_program
    from repro.sim.machine import Machine

    class TimedCkptWriter(CkptWriter):
        def snapshot(self, *args, **kwargs):
            with rec.span("ckpt.snapshot"):
                return super().snapshot(*args, **kwargs)

    pods = w.program.pods
    problems = []
    # Machine(...) decodes internally; the standalone call says how much
    # of sim.machine_init_s that is (both are reported whole).
    rec.call("sim.decode", decode_program, pods)
    with rec.span("sim.plain"):
        machine, _ = rec.call("sim.machine_init", Machine, pods,
                              w.sim_config(False))
        plain, _ = rec.call("sim.run", machine.run, w.args)
    writer = w.ckpt_writer(w.args, TimedCkptWriter)
    with rec.span("sim.observed"):
        observed, _ = rec.call("sim.observed_run", w.program.run, w.args,
                               backend="sim", config=w.sim_config(True),
                               ckpt=writer)
        record, _ = rec.call("obs.record", observed.to_run_record,
                             w.program, w.args)
        rec.call("obs.store_put", w.store.put, record)

    for label, value in (("plain", plain.value),
                         ("observed", observed.value)):
        bad = value_problem(value, w.oracle)
        if bad:
            problems.append(f"{label} run: {bad}")
    if observed.time_us != plain.finish_time_us:
        problems.append(f"observing changed modeled time: "
                        f"{observed.time_us} != {plain.finish_time_us}")

    summary = plain.stats.to_dict()
    rec.sample("sim.model_time_us", plain.finish_time_us)
    rec.sample("sim.events", summary["events"])
    rec.sample("sim.instructions", summary["instructions"])
    for unit, share in summary["utilization"].items():
        rec.sample(f"sim.util_{unit.lower()}", share)
    for key in ("context_switches", "tokens_local", "tokens_remote",
                "array_reads_remote", "cache_hit_rate", "pages_sent",
                "frames_created", "max_live_frames"):
        rec.sample(f"sim.{key}", summary[key])
    rec.sample("sim.critical_path_us",
               record["critpath"]["contributions"]["run"])
    rec.sample("obs.record_bytes", len(canonical_json(record)))
    rec.sample("obs.registry_rows", len(record["metrics"]))
    rec.sample("obs.wait_spans", sum(
        len(sp.segments) for sp in observed.raw.stats.waits.records()))
    rec.sample("ckpt.bytes", os.path.getsize(writer.last_path))
    if first:
        # Modeled and deterministic, so once is enough: the paper's
        # Fig. 10 quantity T(1 PE) / T(8 PEs) at this problem size.
        one_pe = Machine(pods, w.sim_config(False).with_pes(1)).run(w.args)
        rec.sample("sim.model_speedup",
                   one_pe.finish_time_us / plain.finish_time_us)
    return problems


def trace_spmd(rec: Recorder, w) -> list[str]:
    """The multi-process run, its no-work floor, the same problem on one
    worker and on the plain sequential interpreter."""
    b = w.backend
    rec.call(f"{b}.floor", w.run, 2, w.width)
    cpu0 = cpu_seconds()
    result, span = rec.call(f"{b}.run", w.run, w.n, w.width)
    rec.sample(f"{b}.cpu_s", cpu_seconds() - cpu0)
    problems = w.check(result)
    if b == "parallel":
        rec.call("parallel.one_worker", w.run, w.n, 1)
    rec.call(f"{b}.seq_ref", w.seq_reference)

    workers = result.raw.worker_stats
    walls = [t.wall_time_s for t in workers]
    rec.sample(f"{b}.worker_wall_max_s", max(walls))
    rec.sample(f"{b}.overhead_s",
               span["end"] - span["start"] - max(walls))
    rec.sample(f"{b}.imbalance", max(walls) / (sum(walls) / len(walls)))
    rec.sample(f"{b}.spin_wait_s", sum(t.spin_wait_s for t in workers))
    rec.sample(f"{b}.max_spin_wait_s",
               max(t.max_spin_wait_s for t in workers))
    rec.sample(f"{b}.shared_reads", sum(t.shared_reads for t in workers))
    rec.sample(f"{b}.shared_writes", sum(t.shared_writes for t in workers))
    rec.sample(f"{b}.deferred_reads",
               sum(t.deferred_reads for t in workers))
    log = result.raw.recovery
    rec.sample(f"{b}.retries",
               0 if log is None else log.respawns + log.takeovers)
    net = getattr(result.raw, "netstats", None)
    if net is not None:
        rec.sample("dist.frames_sent", net.sent)
        rec.sample("dist.acks_sent", net.acks_sent)
        rec.sample("dist.retransmits", net.retransmits)
    return problems


# -- micro-timings of public runtime calls ---------------------------------


def per_call(rec: Recorder, metric: str, scale: float, calls: int,
             fn) -> None:
    """Sample the mean cost of one call, from one span over ``calls``."""
    _, span = rec.call(metric, fn)
    rec.sample(metric, (span["end"] - span["start"]) / calls * scale)


def trace_micro(rec: Recorder) -> None:
    from repro.dist.transport import encode_frame, read_frame
    from repro.parallel import ShmArray
    from repro.runtime import ArrayHeader, IStructureSegment

    n = 20_000

    def istructure():
        segment = IStructureSegment(1, 0, n)
        for k in range(n):
            segment.write(k, k)
        for k in range(n):
            segment.read(k)

    header = ArrayHeader(array_id=1, dims=(200, 100), page_size=32,
                         num_pes=8)

    def offsets():
        for i in range(1, 201):
            for j in range(1, 101):
                header.offset((i, j))
                header.owner_of((i, j))

    per_call(rec, "runtime.istructure_rw_ns", 1e9, 2 * n, istructure)
    per_call(rec, "runtime.offset_ns", 1e9, n, offsets)

    shm = ShmArray(f"pods{os.getpid()}_e2ebench", (n,), create=True)
    try:
        def shm_write():
            for k in range(1, n + 1):
                shm.write((k,), 1.5)

        def shm_read():
            for k in range(1, n + 1):
                shm.read((k,))

        per_call(rec, "parallel.shm_write_ns", 1e9, n, shm_write)
        per_call(rec, "parallel.shm_read_ns", 1e9, n, shm_read)
    finally:
        shm.close()
        shm.unlink()

    # A page reply: 32 (offset, value) cells, the default page size.
    frame = {"kind": "page", "src": 1, "dst": 0, "seq": 7, "aid": 3,
             "page": 5, "cells": [[160 + k, k * 1.25] for k in range(32)]}
    frames = 2_000

    def encode():
        for _ in range(frames):
            encode_frame(frame)

    async def roundtrip():
        reader = asyncio.StreamReader()
        for _ in range(frames):
            reader.feed_data(encode_frame(frame))
            await read_frame(reader)

    per_call(rec, "dist.frame_encode_us", 1e6, frames, encode)
    per_call(rec, "dist.frame_roundtrip_us", 1e6, frames,
             lambda: asyncio.run(roundtrip()))


# -- cProfile pass -----------------------------------------------------------


def profile_bucket(filename: str) -> str:
    path = filename.replace(os.sep, "/")
    if "/repro/" not in path:
        return "other"
    package = path.split("/repro/", 1)[1]
    if package.startswith("sim/"):
        return "sim_decode" if package == "sim/decode.py" else "sim_machine"
    top = package.split("/", 1)[0]
    if top in ("obs", "ckpt"):
        return "obs"
    if top in ("graph", "analysis", "partitioner"):
        return "graph"
    return top if top in PROFILE_BUCKETS else "other"


def profile_op(w) -> dict:
    """One operation under cProfile, own time bucketed by source file
    (not by function name, so the shares survive a split of a file's
    functions along the paper's Figure 7 units)."""
    profiler = cProfile.Profile()
    profiler.enable()
    w.op()
    profiler.disable()
    table = pstats.Stats(profiler)
    own = dict.fromkeys(PROFILE_BUCKETS, 0.0)
    for (filename, _, _), (_, _, tottime, _, _) in table.stats.items():
        own[profile_bucket(filename)] += tottime
    total = sum(own.values())
    out = {f"prof.share.{b}": own[b] / total for b in PROFILE_BUCKETS}
    out["prof.calls"] = table.total_calls
    return out


# -- spans and samples -> metrics -----------------------------------------


def derive(rec: Recorder, workload: str, untraced: list[float],
           calibs: list[float], cpu: list[float], setup_wall_s: float,
           profile: dict) -> tuple[dict, list[str]]:
    """Every per-layer metric, plus the exact-count violations found."""
    problems = []
    metrics = {m: stats.median(rec.per_rep(span, self_time=True))
               for m, span in STAGE_SPANS.items()}
    for name in sorted({n for n, _, _ in rec.samples}):
        values = rec.sampled(name)
        if name in EXACT_SAMPLES and len(set(values)) != 1:
            problems.append(f"{name} changed between reps: {values}")
        metrics[name] = stats.median(values)

    compile_s = stats.median(rec.per_rep("api.compile"))
    metrics["api.compile_s"] = compile_s
    metrics["api.compile_unattributed_s"] = compile_s - sum(
        metrics[m] for m in COMPILE_STAGES)
    metrics["lang.tokens_per_s"] = (metrics["lang.tokens"]
                                    / metrics["lang.tokenize_s"])

    run_s = metrics["sim.run_s"]
    metrics["sim.host_ns_per_event"] = run_s / metrics["sim.events"] * 1e9
    metrics["sim.events_per_s"] = metrics["sim.events"] / run_s
    metrics["obs.overhead_ratio"] = (
        stats.median(rec.per_rep("sim.observed_run"))
        / stats.median(rec.per_rep("sim.plain")))

    for b in ("parallel", "dist"):
        metrics[f"{b}.vs_seq"] = (
            stats.median(rec.per_rep(f"{b}.run"))
            / stats.median(rec.per_rep(f"{b}.seq_ref")))
    metrics["parallel.speedup_w2"] = (
        stats.median(rec.per_rep("parallel.one_worker"))
        / stats.median(rec.per_rep("parallel.run")))
    metrics["dist.wall_iqr_rel"] = stats.spread(rec.per_rep("dist.run"))

    traced = rec.per_rep(OP_SPAN[workload])
    metrics["host.wall_s"] = stats.median(untraced)
    metrics["host.cpu_s"] = stats.median(cpu)
    metrics["host.setup_wall_s"] = setup_wall_s
    metrics["host.calib_s"] = stats.median(calibs)
    metrics["host.calib_drift"] = max(calibs) / min(calibs)
    metrics["trace.overhead"] = stats.median(traced) / stats.median(untraced)
    metrics.update(profile)
    return metrics, problems
