"""``pods`` command line: compile, inspect and run IdLite programs.

Examples::

    pods run program.idl --args 16 --pes 8
    pods run program.idl --backend sequential --args 16
    pods listing program.idl
    pods graph program.idl
    pods partition program.idl
    pods simple --size 16 --steps 2 --pes 1,4,8
"""

from __future__ import annotations

import argparse
import sys

from repro.api import compile_source
from repro.backend import (CHECKPOINT, TRACE, WALL_TIME, backend_names,
                           get_backend)
from repro.common.errors import PodsError


def _parse_value(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)


def _load(path: str, optimize: bool = False):
    with open(path) as fh:
        return compile_source(fh.read(), optimize=optimize)


def _cmd_run(args: argparse.Namespace) -> int:
    """Registry-driven dispatch: one code path for every backend."""
    backend = get_backend(args.backend)
    call_args = tuple(_parse_value(a) for a in (args.args or []))
    if args.file.endswith(".pods"):
        # Pre-translated program (the .pods files of Figure 3); only the
        # simulator consumes the serialized SP templates.
        from repro.translator.serialize import load_program

        if backend.name != "sim":
            print("error: .pods files run on the PODS simulator only",
                  file=sys.stderr)
            return 1
        program = load_program(args.file)
    else:
        program = _load(args.file, optimize=args.optimize)
    config = backend.cli_config(args)
    wants_obs = bool(getattr(args, "record", False)
                     or getattr(args, "metrics_out", None))
    if wants_obs:
        config = _with_full_obs(config)
    writer = None
    if getattr(args, "ckpt_dir", None):
        writer = _ckpt_writer(backend, program, call_args, args)
        if writer is None:
            return 1
    result = backend.run(program, call_args,
                         parallelism=backend.cli_parallelism(args),
                         config=config, faults=args.faults, ckpt=writer)
    return _report(backend, result, args, program, call_args)


def _report(backend, result, args, program, call_args) -> int:
    """What ``pods run`` and ``pods resume`` print after a run: the
    backend's lines, the ``checkpoint:`` line, then the
    ``--metrics-out`` file and the ``--record`` put; the exit code."""
    for line in backend.render(result, args):
        print(line)
    if result.ckpt:
        print("checkpoint: " + "  ".join(
            f"{k}={v}" for k, v in sorted(result.ckpt.items())))
    if getattr(args, "metrics_out", None):
        if result.registry is None:
            print(f"error: backend {backend.name!r} published no metrics "
                  "registry to expose", file=sys.stderr)
            return 1
        with open(args.metrics_out, "w") as fh:
            fh.write(result.registry.to_openmetrics() + "\n")
        print(f"wrote {args.metrics_out}")
    if getattr(args, "record", False):
        from repro.obs.store import RunStore

        store = RunStore(args.runs_dir)
        rid = store.put(result.to_run_record(program=program,
                                             args=call_args))
        print(f"recorded {rid[:12]} in {store.root}")
    return 0


def _ckpt_writer(backend, program, call_args, args):
    """Build the CkptWriter ``pods run --ckpt-dir`` arms, or None (with
    a printed error) when the backend has no durable-execution hooks."""
    from repro.ckpt import CkptSpec, CkptWriter, program_section

    if CHECKPOINT not in backend.capabilities:
        able = ", ".join(backend_names(capability=CHECKPOINT))
        print(f"error: backend {backend.name!r} does not support "
              f"checkpointing (one of: {able})", file=sys.stderr)
        return None
    spec = CkptSpec(dir=args.ckpt_dir, interval_s=args.ckpt_interval,
                    every_events=args.ckpt_every_events)
    source = getattr(program, "source", None)
    name = getattr(getattr(program, "pods", None), "name", None)
    entry = getattr(program, "entry", "main")
    return CkptWriter(spec,
                      fingerprint={"backend": backend.name,
                                   "parallelism":
                                       backend.cli_parallelism(args)},
                      program=program_section(source, entry=entry,
                                              name=name),
                      args=call_args)


def _cmd_resume(args: argparse.Namespace) -> int:
    """Restart a run from a ``pods-ckpt/v2`` snapshot."""
    from repro.ckpt import CkptSpec, load, resume

    restore = load(args.ckpt)
    spec = None
    if args.ckpt_dir:
        # Re-arm checkpointing on the resumed run; resume() carries the
        # snapshot's own identity sections into the new writer.
        spec = CkptSpec(dir=args.ckpt_dir,
                        interval_s=args.ckpt_interval,
                        every_events=args.ckpt_every_events)
    backend = get_backend(args.backend or restore.backend or "sim")
    width = args.pes if args.pes is not None else args.nodes
    config = None
    if args.record and backend.name == "sim":
        # The semantic-parity gate (runs diff --semantic) needs the
        # metric families a default SimConfig does not collect; build
        # the config at the resolved width so the recorded fingerprint
        # matches what actually ran.
        from repro.common.config import MachineConfig, SimConfig

        pes = width if width is not None else (restore.parallelism or 1)
        config = _with_full_obs(
            SimConfig(machine=MachineConfig(num_pes=pes)))
    result, program, restore = resume(
        restore, backend=backend.name, parallelism=width,
        config=config, ckpt=spec)
    print(f"resumed from {restore.id[:12]} "
          f"({restore.total_elements} elements) on {result.backend} x "
          f"{result.parallelism}")
    return _report(backend, result, args, program, restore.args)


def _with_full_obs(config):
    """Upgrade a sim config to full observability for ``--record`` /
    ``--metrics-out`` (other backends observe unconditionally)."""
    from dataclasses import replace

    from repro.common.config import ObsConfig, SimConfig

    if isinstance(config, SimConfig):
        obs = config.obs
        return replace(config, obs=replace(obs, metrics=True,
                                           timelines=True, waits=True))
    return config


def _cmd_listing(args: argparse.Namespace) -> int:
    print(_load(args.file).listing())
    return 0


def _cmd_graph(args: argparse.Namespace) -> int:
    program = _load(args.file)
    if args.dot:
        print(program.graph_dot())
    else:
        print(program.graph_text())
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    print(_load(args.file).partition_report.summary())
    return 0


def _cmd_compile(args: argparse.Namespace) -> int:
    from repro.translator.serialize import save_program

    program = _load(args.file, optimize=args.optimize)
    out = args.output or (args.file.rsplit(".", 1)[0] + ".pods")
    save_program(program.pods, out)
    count = program.pods.instruction_count()
    print(f"wrote {out}: {len(program.pods.templates)} SPs, "
          f"{count} instructions")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.common.config import MachineConfig, ObsConfig, SimConfig
    from repro.obs.export import filter_events, perfetto_json
    from repro.obs.spanlog import activity, drop_warning, listing, summary

    program = _load(args.file)
    call_args = tuple(_parse_value(a) for a in (args.args or []))
    obs = ObsConfig(metrics=True, timelines=True, trace=True, waits=True)
    config = SimConfig(machine=MachineConfig(num_pes=args.pes), obs=obs)
    result = program.run(call_args, backend="sim", config=config,
                         faults=args.faults)
    stats = result.stats
    log = stats.log

    if args.format == "perfetto":
        # Only the JSON goes to stdout: identical runs must produce
        # byte-identical output (anything else lands on stderr).
        text = perfetto_json(log, stats.finish_time_us, pe=args.pe,
                             since_us=args.since_us)
        if log.dropped:
            print(drop_warning(log), file=sys.stderr)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text + "\n")
            print(f"wrote {args.output}", file=sys.stderr)
        else:
            print(text)
        return 0

    lines = [f"value: {result.value}",
             f"modeled time: {result.time_s:.6f} s", ""]
    if log.dropped:
        lines.insert(0, drop_warning(log))
    lines.append(summary(log))

    if args.format == "summary":
        from repro.bench.report import render_metrics_table

        lines += ["", _blocked_cause_table(stats),
                  "", render_metrics_table(result.registry)]
    else:  # text
        lines += ["", activity(log, result.time_us), ""]
        lines += listing(filter_events(log.events, pe=args.pe,
                                       since_us=args.since_us,
                                       kind=args.kind), args.limit)

    text = "\n".join(lines)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _blocked_cause_table(stats) -> str:
    """Per-PE blocked-cause column for ``pods trace --format summary``:
    the shared :func:`repro.obs.profile.blocked_cause_table` plus
    anything still blocked at the end of the run
    (``RunStats.still_blocked``)."""
    from repro.obs.profile import blocked_cause_table

    lines = [blocked_cause_table(stats.wait_breakdown, stats.num_pes)]
    if stats.still_blocked:
        lines.append("  still blocked at end of run:")
        lines.extend(f"    {line}" for line in stats.still_blocked)
    return "\n".join(lines)


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.common.config import MachineConfig, ObsConfig, SimConfig
    from repro.obs.profile import Profile, parallel_profile

    program = _load(args.file, optimize=args.optimize)
    call_args = tuple(_parse_value(a) for a in (args.args or []))
    if WALL_TIME in get_backend(args.backend).capabilities:
        result = program.run(call_args, backend=args.backend,
                             parallelism=args.pes)
        report = parallel_profile(result)
    else:
        obs = ObsConfig(metrics=True, timelines=True, waits=True)
        config = SimConfig(machine=MachineConfig(num_pes=args.pes), obs=obs)
        result = program.run(call_args, backend="sim", config=config,
                             faults=args.faults)
        report = Profile.from_stats(result.stats).render(top=args.top)
    text = f"value: {result.value}\n\n" + report
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.output}")
    else:
        print(text)
    return 0


def _runs_store(args):
    from repro.obs.store import RunStore

    return RunStore(args.store)


def _load_record_ref(store, ref: str) -> dict:
    """A record reference: an id/prefix/'latest' in the store, or a path
    to a bare record file (committed baselines)."""
    import os

    from repro.obs.store import load_record

    if os.path.sep in ref or ref.endswith(".json") or os.path.exists(ref):
        return load_record(ref)
    return store.get(ref)


def _cmd_runs_list(args: argparse.Namespace) -> int:
    store = _runs_store(args)
    entries = store.select(program=args.program, backend=args.backend)
    if args.last:
        entries = entries[-args.last:]
    if not entries:
        print(f"(no run records in {store.root})")
        return 0
    print(f"{'seq':>4s}  {'id':<12s}  {'program':<16s}  {'backend':<9s}"
          f"  {'par':>3s}  {'time':>12s}")
    for e in entries:
        if e.time_us is not None:
            t = f"{e.time_us / 1e6:10.6f} s"
        elif e.wall_time_s is not None:
            t = f"{e.wall_time_s:8.3f} sw"
        else:
            t = "-"
        print(f"{e.seq:>4d}  {e.id[:12]:<12s}  {e.program:<16s}  "
              f"{e.backend:<9s}  {e.parallelism:>3d}  {t:>12s}")
    return 0


def _cmd_runs_show(args: argparse.Namespace) -> int:
    from repro.obs import runrecord
    from repro.obs.export import openmetrics_from_rows

    store = _runs_store(args)
    doc = _load_record_ref(store, args.record)
    if args.openmetrics:
        print(openmetrics_from_rows(doc.get("metrics", [])))
    else:
        print(runrecord.render_record(doc))
    return 0


def _cmd_runs_diff(args: argparse.Namespace) -> int:
    from repro.common.errors import RunRegressionError
    from repro.obs import runrecord

    store = _runs_store(args)
    a = _load_record_ref(store, args.a)
    b = _load_record_ref(store, args.b)
    result = runrecord.diff(a, b, rtol=args.rtol,
                            semantic=getattr(args, "semantic", False))
    print(result.render())
    if not result.ok and not args.report_only:
        # The shared exit-code convention: a structured one-line
        # error[Type/code] on stderr and exit 1, same as any run fault.
        raise RunRegressionError(
            f"{len(result.regressions)} regression(s) between "
            f"{result.a_id[:12]} and {result.b_id[:12]}")
    return 0


def _cmd_runs_regress(args: argparse.Namespace) -> int:
    from repro.common.errors import RunRegressionError
    from repro.obs import runrecord
    from repro.obs.store import RunStoreError, load_record

    store = _runs_store(args)
    baseline = load_record(args.baseline)
    cfg = baseline.get("config", {})
    if args.record:
        current = _load_record_ref(store, args.record)
    else:
        # Newest stored run of the baseline's program (by content hash)
        # on the baseline's arguments, backend and width — what the CI
        # bench-smoke gate compares.  Every program's record name is its
        # entry function, so the index columns alone cannot tell.
        candidates = store.select(
            program=str(baseline.get("program", {}).get("name", "?")),
            backend=str(cfg.get("backend", "?")),
            parallelism=cfg.get("parallelism"))
        current = None
        for entry in reversed(candidates):
            doc = store.get(entry.id)
            if not {"program", "args"} & runrecord.incomparable(
                    baseline, doc).keys():
                current = doc
                break
        if current is None:
            prog = baseline.get("program", {})
            raise RunStoreError(
                f"no stored run matches the baseline ({prog.get('name')!r} "
                f"{str(prog.get('source_sha256'))[:runrecord.ID_ABBREV]} "
                f"args {baseline.get('args')} on {cfg.get('backend')!r} x "
                f"{cfg.get('parallelism')})")
    result = runrecord.diff(baseline, current, rtol=args.rtol)
    print(result.render())
    different_run = runrecord.incomparable(baseline, current)
    if different_run and not args.report_only:
        # diff() downgrades every delta to informational between records
        # of different runs, so gating on such a baseline would pass
        # whatever the run did.
        raise RunRegressionError(
            f"baseline {args.baseline} is not of this run: "
            f"{'; '.join(different_run.values())}; regenerate the "
            "baseline from a current run")
    if not result.ok and not args.report_only:
        raise RunRegressionError(
            f"{len(result.regressions)} regression(s) against baseline "
            f"{args.baseline}")
    print("regress: ok" if result.ok else "regress: regressions "
          "(report-only)")
    return 0


def _cmd_format(args: argparse.Namespace) -> int:
    from repro.lang.parser import parse
    from repro.lang.pprint import format_program

    with open(args.file) as fh:
        print(format_program(parse(fh.read())), end="")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.bench.figures import reproduce

    print(reproduce(args.figure).text)
    return 0


def _cmd_simple(args: argparse.Namespace) -> int:
    """A SIMPLE sweep, fully observed: a line per PE count and, with
    ``--record-dir``, a ``pods-run/v1`` record per PE count in that run
    ledger (what CI's bench-smoke job gates with ``pods runs regress``)."""
    from repro.apps.simple_app import compile_simple
    from repro.common.config import MachineConfig, SimConfig
    from repro.obs.critpath import critical_path
    from repro.obs.store import RunStore

    program = compile_simple(conduction_only=args.conduction_only)
    run_args, base = (args.size, args.steps), None
    for pes in (int(p) for p in args.pes.split(",")):
        config = _with_full_obs(SimConfig(machine=MachineConfig(num_pes=pes)))
        result = program.run(run_args, backend="sim", parallelism=pes,
                             config=config)
        if args.record_dir:
            RunStore(args.record_dir).put(
                result.to_run_record(program=program, args=run_args))
        base = base or result.time_us
        path = critical_path(result.stats.log, result.time_us)
        print(f"{pes:3d} PEs: {result.time_s:9.6f} s  "
              f"speed-up {base / result.time_us:5.2f}  "
              f"EU {result.stats.timeline_utilization('EU') * 100:5.1f}%  "
              f"critical path {path.total_us / 1e6:9.6f} s")
    return 0


def _ckpt_args(p) -> None:
    """Durable-execution flags shared by ``run`` and ``resume``."""
    p.add_argument("--ckpt-dir", default=None,
                   help="arm checkpointing: write pods-ckpt/v2 "
                        "snapshots into this directory (resumable "
                        "with 'pods resume')")
    p.add_argument("--ckpt-interval", type=float, default=0.25,
                   help="seconds between snapshots on the wall-clock "
                        "backends (default 0.25)")
    p.add_argument("--ckpt-every-events", type=int, default=0,
                   help="sim backend: snapshot every N simulation "
                        "events (default 0 = final drain only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pods",
        description="PODS: process-oriented dataflow system (ICDCS 1992 "
                    "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compile and execute a program")
    run.add_argument("file")
    run.add_argument("--args", nargs="*", help="main() arguments")
    run.add_argument("--pes", type=int, default=1,
                     help="PE / worker count (default 1)")
    run.add_argument("--backend", default="sim",
                     choices=backend_names(aliases=True),
                     help="execution backend: a name or alias from the "
                          "repro.backend registry")
    run.add_argument("--nodes", type=int, default=None,
                     help="dist backend: node process count "
                          "(defaults to --pes)")
    run.add_argument("--stats", action="store_true",
                     help="print the machine statistics report")
    run.add_argument("--optimize", action="store_true",
                     help="enable CSE + invariant hoisting + DCE")
    run.add_argument("--retries", type=int, default=2,
                     help="parallel backend: respawns allowed per worker "
                          "before degraded-mode takeover (default 2)")
    run.add_argument("--no-recovery", action="store_true",
                     help="parallel backend: fail fast on the first worker "
                          "failure instead of self-healing")
    run.add_argument("--faults",
                     help="fault-injection spec (shared grammar, per-"
                          "backend dialect): parallel e.g. "
                          "'kill:worker=1,on=write,after=5'; sim e.g. "
                          "'drop:kind=page,count=2;pe-halt:pe=1,at=500'; "
                          "dist e.g. 'node-kill:node=1,on=iter,after=2'")
    run.add_argument("--max-sim-time-us", type=float, default=None,
                     help="sim backend: modeled-time wall; crossing it "
                          "raises a structured LivelockError/PEHaltError "
                          "instead of simulating forever")
    run.add_argument("--trace-json",
                     help="parallel backend: write a Perfetto trace (with "
                          "recovery spans) to this path")
    run.add_argument("--record", action="store_true",
                     help="deposit a pods-run/v1 record of this run into "
                          "the run ledger (implies full observability on "
                          "the sim backend)")
    run.add_argument("--runs-dir", default=None,
                     help="run-ledger directory (default .pods-runs, or "
                          "PODS_RUNS_DIR)")
    run.add_argument("--metrics-out",
                     help="write the run's metrics registry as an "
                          "OpenMetrics/Prometheus text exposition to "
                          "this path")
    _ckpt_args(run)
    run.set_defaults(func=_cmd_run)

    resume_cmd = sub.add_parser(
        "resume", help="restart a run from a pods-ckpt/v2 snapshot")
    resume_cmd.add_argument("ckpt",
                            help="checkpoint file, or a checkpoint "
                                 "directory (uses its latest.json)")
    resume_cmd.add_argument("--backend", default=None,
                            choices=backend_names(aliases=True,
                                                  capability=CHECKPOINT),
                            help="override the backend recorded in the "
                                 "snapshot")
    resume_cmd.add_argument("--pes", type=int, default=None,
                            help="override the PE / worker count (the "
                                 "snapshot re-partitions at any width)")
    resume_cmd.add_argument("--nodes", type=int, default=None,
                            help="dist backend: node count override "
                                 "(alias of --pes)")
    resume_cmd.add_argument("--stats", action="store_true",
                            help="print the machine statistics report")
    resume_cmd.add_argument("--record", action="store_true",
                            help="deposit a pods-run/v1 record of the "
                                 "resumed run (its ckpt section carries "
                                 "resumed_from provenance)")
    resume_cmd.add_argument("--runs-dir", default=None,
                            help="run-ledger directory (default "
                                 ".pods-runs, or PODS_RUNS_DIR)")
    _ckpt_args(resume_cmd)
    resume_cmd.set_defaults(func=_cmd_resume)

    runs = sub.add_parser(
        "runs", help="inspect the persistent run ledger (.pods-runs)")
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    def _store_arg(p):
        p.add_argument("--store", default=None,
                       help="run-ledger directory (default .pods-runs, "
                            "or PODS_RUNS_DIR)")

    runs_list = runs_sub.add_parser("list", help="list deposited records")
    _store_arg(runs_list)
    runs_list.add_argument("--program", help="filter by program name")
    runs_list.add_argument("--backend", help="filter by backend")
    runs_list.add_argument("-n", "--last", type=int, default=None,
                           help="show only the newest N records")
    runs_list.set_defaults(func=_cmd_runs_list)

    runs_show = runs_sub.add_parser("show", help="render one record")
    _store_arg(runs_show)
    runs_show.add_argument("record",
                           help="record id, id prefix, 'latest', or a "
                                "record file path")
    runs_show.add_argument("--openmetrics", action="store_true",
                           help="print the stored metrics as an "
                                "OpenMetrics text exposition instead of "
                                "the summary")
    runs_show.set_defaults(func=_cmd_runs_show)

    runs_diff = runs_sub.add_parser(
        "diff", help="diff two records; exits 1 on regression")
    _store_arg(runs_diff)
    runs_diff.add_argument("a", help="baseline record (id/'latest'/path)")
    runs_diff.add_argument("b", help="candidate record (id/'latest'/path)")
    runs_diff.add_argument("--rtol", type=float, default=0.02,
                           help="relative tolerance before a time delta "
                                "is a regression (default 0.02)")
    runs_diff.add_argument("--report-only", action="store_true",
                           help="always exit 0; print findings only")
    runs_diff.add_argument("--semantic", action="store_true",
                           help="additionally gate the answer and the "
                                "semantic metric totals (rf.*, array "
                                "writes/pages) exactly, even across a "
                                "width change - the checkpoint/resume "
                                "parity contract")
    runs_diff.set_defaults(func=_cmd_runs_diff)

    runs_regress = runs_sub.add_parser(
        "regress", help="gate the newest matching stored run against a "
                        "committed baseline record; exits 1 on "
                        "regression or when the baseline's program, "
                        "args or config are not the run's")
    _store_arg(runs_regress)
    runs_regress.add_argument("--baseline", required=True,
                              help="committed pods-run/v1 record file")
    runs_regress.add_argument("--record", default=None,
                              help="explicit record to gate (id/'latest'/"
                                   "path); default: newest stored run "
                                   "of the baseline's program (content "
                                   "hash) and args on its backend/"
                                   "parallelism")
    runs_regress.add_argument("--rtol", type=float, default=0.02)
    runs_regress.add_argument("--report-only", action="store_true",
                              help="always exit 0; print findings only")
    runs_regress.set_defaults(func=_cmd_runs_regress)

    listing = sub.add_parser("listing", help="show the SP assembly listing")
    listing.add_argument("file")
    listing.set_defaults(func=_cmd_listing)

    graph = sub.add_parser("graph", help="dump the dataflow graph")
    graph.add_argument("file")
    graph.add_argument("--dot", action="store_true",
                       help="emit Graphviz DOT instead of text")
    graph.set_defaults(func=_cmd_graph)

    part = sub.add_parser("partition", help="show partitioner decisions")
    part.add_argument("file")
    part.set_defaults(func=_cmd_partition)

    comp = sub.add_parser("compile", help="translate to a .pods file")
    comp.add_argument("file")
    comp.add_argument("-o", "--output", help="output path (default: "
                      "source name with .pods)")
    comp.add_argument("--optimize", action="store_true")
    comp.set_defaults(func=_cmd_compile)

    trace = sub.add_parser(
        "trace", help="run with event tracing and observability")
    trace.add_argument("file")
    trace.add_argument("--args", nargs="*", help="main() arguments")
    trace.add_argument("--pes", type=int, default=2)
    trace.add_argument("--format", default="text",
                       choices=["text", "summary", "perfetto"],
                       help="text = event listing, summary = counts + "
                       "metrics table, perfetto = trace_event JSON for "
                       "ui.perfetto.dev (default text)")
    trace.add_argument("--pe", type=int, default=None,
                       help="restrict output to one PE")
    trace.add_argument("--since-us", type=float, default=0.0,
                       help="drop events before this simulated time")
    trace.add_argument("--limit", type=int, default=40,
                       help="events to print in text format (default 40)")
    trace.add_argument("--kind", help="filter by event kind "
                       "(frame-create, block, message, ...)")
    trace.add_argument("--faults",
                       help="sim fault-injection spec; chaos runs add a "
                            "per-PE NET track of retransmit spans to the "
                            "perfetto export")
    trace.add_argument("-o", "--output",
                       help="write to a file instead of stdout")
    trace.set_defaults(func=_cmd_trace)

    prof = sub.add_parser(
        "profile",
        help="blocked-time breakdown, critical path, what-if estimates")
    prof.add_argument("file")
    prof.add_argument("--args", nargs="*", help="main() arguments")
    prof.add_argument("--pes", type=int, default=2)
    prof.add_argument("--backend", default="pods",
                      choices=backend_names(aliases=True,
                                            capability=TRACE),
                      help="pods = simulator critical path (default); "
                           "parallel = real-worker telemetry + recovery "
                           "table")
    prof.add_argument("--top", type=int, default=10,
                      help="SPs to list by critical-path share (default 10)")
    prof.add_argument("--faults",
                      help="sim fault-injection spec; chaos runs append "
                           "the network fault/recovery summary")
    prof.add_argument("--optimize", action="store_true",
                      help="enable CSE + invariant hoisting + DCE")
    prof.add_argument("-o", "--output",
                      help="write to a file instead of stdout")
    prof.set_defaults(func=_cmd_profile)

    fmt = sub.add_parser("format", help="pretty-print a program")
    fmt.add_argument("file")
    fmt.set_defaults(func=_cmd_format)

    repro_cmd = sub.add_parser(
        "reproduce", help="regenerate a paper figure at reduced scale")
    repro_cmd.add_argument("figure", choices=["fig8", "fig9", "fig10"])
    repro_cmd.set_defaults(func=_cmd_reproduce)

    simple = sub.add_parser("simple", help="run the SIMPLE benchmark")
    simple.add_argument("--size", type=int, default=16)
    simple.add_argument("--steps", type=int, default=2)
    simple.add_argument("--pes", default="1,4,8")
    simple.add_argument("--conduction-only", action="store_true")
    simple.add_argument("--record-dir", default=None,
                        help="run ledger for a pods-run/v1 record per PE")
    simple.set_defaults(func=_cmd_simple)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PodsError as exc:
        # One structured line whatever the backend: the exception type,
        # its shared-taxonomy code, and the first message line — never a
        # worker traceback or a multi-page blocked-SP report.
        from repro.backend import render_error

        print(render_error(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
