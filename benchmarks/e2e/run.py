#!/usr/bin/env python3
"""The repo benchmark (contract: ../../BENCHMARK.json, guide: README.md).

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py suite --seed N --out F.json [--runs K] [--traced]
    python3 benchmarks/e2e/run.py compare A.json B.json

The first form is what the acceptance driver calls: one workload, every
metric printed by name with its unit, outputs verified, and one JSON
object as the last line.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  ``--quick`` swaps in small sizes and
two reps (the self-tests use it).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from e2ebench import stats  # noqa: E402
from e2ebench.spec import load_spec  # noqa: E402

# Set-up is sampled in this many fresh interpreters per run (the last one
# goes on to measure) and the median reported.
SETUP_SAMPLES = 3
# A child that has not finished by then is killed with its whole process
# group; the driver allows a run 180 s.
CHILD_TIMEOUT_S = 170


def child(phase: str, args) -> dict:
    """Run one phase in a fresh interpreter; its last stdout line is the
    JSON result."""
    cmd = [sys.executable, os.path.abspath(__file__), "--phase", phase,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.quick:
        cmd.append("--quick")
    # The parallel backend keeps its shm manifest in the temp directory;
    # point that inside the checkout, where everything else is written.
    tmp = os.path.join(BENCH_DIR, "out", "tmp")
    os.makedirs(tmp, exist_ok=True)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True,
                            env={**os.environ, "TMPDIR": tmp})
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{phase} phase of {args.workload} exceeded "
                         f"{CHILD_TIMEOUT_S} s; killed")
    if proc.returncode != 0:
        raise SystemExit(f"{phase} phase of {args.workload} exited "
                         f"{proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_phase(args) -> int:
    """Inside a child: do the work, print the JSON."""
    from e2ebench import measure

    if args.phase == "setup":
        result = measure.phase_setup(args.workload, args.seed, args.quick)
    elif args.phase == "measure":
        result = measure.phase_measure(args.workload, args.seed,
                                       args.seconds, args.quick)
    else:
        result = measure.phase_trace(args.workload, args.seed, args.quick)
    print(json.dumps(result))
    return 0


def end_to_end(args) -> dict:
    samples = [child("setup", args)
               for _ in range(1 if args.quick else SETUP_SAMPLES - 1)]
    run = child("measure", args)
    samples.append(run["setup"])
    rss = run["rss_mb"]
    values = {
        "setup_s": stats.median(s["setup_s"] for s in samples),
        # The lower quartile, not the median: host noise only ever slows
        # a rep down, and over two studies of ten runs per workload q1
        # spread at most 12 % of its median where the median spread up to
        # 21 % (README, "Calibration").
        "time_cal": stats.quartiles(run["cal"])[0],
        "peak_rss_mb": rss["self"] + rss["children"],
    }
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 "
          f"client  {run['attempted']} ops in {args.seconds:g} s window")
    print(f"  time_cal     {values['time_cal']:.6g} cal (q1 of: "
          f"{stats.describe(run['cal'], 'cal')})")
    print(f"  wall_s       {stats.describe(run['wall'], 's')}  "
          f"[informational: raw seconds move with the host]")
    print(f"  setup_s      {values['setup_s']:.6g} s at reference speed, "
          f"median of {len(samples)} fresh interpreters; raw "
          + " ".join(f"{s['setup_wall_s']:.3f}" for s in samples) + " s")
    print(f"  peak_rss_mb  {values['peak_rss_mb']:.6g} MiB "
          f"(self {rss['self']:.1f} + largest child {rss['children']:.1f})")
    print(f"  fail_share   {run['failed']}/{run['attempted']}")
    if run["calib_drift"] > 1.5:
        print(f"  NOISY: calibration drifted {run['calib_drift']:.2f}x "
              f"within the run")
    for problem in run["problems"]:
        print(f"  FAILED {problem}")
    return {"run": run, "setup_samples": samples, "values": values}


def traced(args, spec) -> dict:
    run = child("trace", args)
    print(f"workload {args.workload}  seed {args.seed}  traced run "
          f"(spans in {run['trace_file']})")
    for m in spec["per_layer"]:
        print(f"  {m['name']:<32} {run['metrics'][m['name']]:.6g} "
              f"{m['unit']}")
    if run["calib_drift"] > 1.5:
        print(f"  NOISY: calibration drifted {run['calib_drift']:.2f}x "
              f"within the run")
    for problem in run["problems"]:
        print(f"  FAILED {problem}")
    return {"run": run, "values": run["metrics"]}


def run_workload(args) -> int:
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"unknown workload {args.workload!r}")
    kind = "per_layer" if args.trace else "end_to_end"
    result = traced(args, spec) if args.trace else end_to_end(args)
    run = result["run"]
    missing = [m["name"] for m in spec[kind]
               if m["name"] not in result["values"]]
    if missing:
        raise SystemExit(f"metrics not produced: {missing}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "trace": args.trace, "quick": args.quick,
                       **result}, fh)
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {m["name"]: {"value": result["values"][m["name"]],
                                "unit": m["unit"]} for m in spec[kind]},
    }))
    return 0


def run_suite(args) -> int:
    """Every workload ``--runs`` times, each run in its own interpreter,
    into one file that ``compare`` reads."""
    spec = load_spec()
    out = os.path.join(BENCH_DIR, "out", f"suite-{os.getpid()}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    results = []
    for _ in range(args.runs):
        for w in spec["workloads"]:
            for trace in (0, 1) if args.traced else (0,):
                cmd = [sys.executable, os.path.abspath(__file__),
                       "--workload", w["name"], "--seed", str(args.seed),
                       "--seconds", str(spec["run_seconds"]),
                       "--trace", str(trace), "--out", out]
                if args.quick:
                    cmd.append("--quick")
                subprocess.run(cmd, check=True)
                with open(out) as fh:
                    results.append(json.load(fh))
                os.unlink(out)
    with open(args.out, "w") as fh:
        json.dump({"seed": args.seed, "runs": args.runs,
                   "quick": args.quick, "results": results}, fh, indent=1)
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(REPO_ROOT, "src", "repro")):
        print("benchmarks/e2e/run.py: no src/repro beside it -- there is "
              "no program to measure here", file=sys.stderr)
        return 2
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        from e2ebench.compare import main as compare_main

        return compare_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    if argv and argv[0] == "suite":
        parser.add_argument("--seed", type=int, default=1)
        parser.add_argument("--out", required=True)
        parser.add_argument("--runs", type=int, default=1)
        parser.add_argument("--traced", action="store_true",
                            help="also make a traced run of each workload")
        parser.add_argument("--quick", action="store_true")
        return run_suite(parser.parse_args(argv[1:]))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out", help="also write the full result here")
    parser.add_argument("--phase", choices=("setup", "measure", "trace"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    return run_phase(args) if args.phase else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
