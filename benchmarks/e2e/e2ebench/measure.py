"""What one benchmark process does: set up, then measure or trace.

``run.py`` starts each of these in a fresh interpreter, so a set-up
sample really is process start to ready, and the measuring process's
peak RSS holds nothing but one set-up and the timed reps.

Closed loop, one client: the next operation starts when the previous one
has been checked.  The harness adds no threads of its own.
"""

from __future__ import annotations

import os
import resource
import signal
import time

from e2ebench import layers
from e2ebench.calib import CALIB_REF_S, Calibrated, calibrate
from e2ebench.tracer import Recorder
from e2ebench.workloads import OUT_DIR, make_workload

MIN_REPS = 3
QUICK_REPS = 2
TRACED_REPS = 3
# Hard per-operation limit: a hang fails the operation, it does not stall
# the benchmark.  The slowest operation takes ~3 s on the sizing host.
OP_TIMEOUT_S = 60


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"operation exceeded {OP_TIMEOUT_S} s")


def guarded(timer: Calibrated, w) -> list[str]:
    """One timed, checked operation; returns why it failed (if it did)."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(OP_TIMEOUT_S)
    try:
        outcome = timer.rep(w.op)
    except Exception as exc:  # the gate must outlive any failure of the op
        return [f"{type(exc).__name__}: {exc}"]
    finally:
        signal.alarm(0)
    return w.check(outcome)


def setup_sample(name: str, seed: int, quick: bool):
    """Calibrate, set the workload up, calibrate again."""
    before = calibrate()
    t0 = time.perf_counter()
    w = make_workload(name, quick)
    w.setup(seed)
    wall = time.perf_counter() - t0
    after = calibrate()
    return w, {"setup_wall_s": wall,
               "setup_s": wall * CALIB_REF_S / ((before + after) / 2.0),
               "calibs": [before, after]}


def peak_rss_mb() -> dict:
    """ru_maxrss is KiB on Linux.  ``children`` is the largest descendant
    that was waited for, not a sum over concurrent ones."""
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"self": self_kb / 1024.0, "children": child_kb / 1024.0}


def phase_setup(name: str, seed: int, quick: bool) -> dict:
    w, sample = setup_sample(name, seed, quick)
    w.teardown()
    return sample


def phase_measure(name: str, seed: int, seconds: float, quick: bool) -> dict:
    w, sample = setup_sample(name, seed, quick)
    timer = Calibrated()
    problems: list[str] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    try:
        while attempted < (QUICK_REPS if quick else MIN_REPS) or \
                (not quick and time.perf_counter() < deadline):
            why = guarded(timer, w)
            attempted += 1
            if why:
                failed += 1
                problems += [f"rep {attempted}: {p}" for p in why]
    finally:
        w.teardown()
    return {"setup": sample, "attempted": attempted, "failed": failed,
            "problems": problems, "wall": timer.wall, "cpu": timer.cpu,
            "cal": timer.cal, "calibs": timer.calibs,
            "calib_drift": timer.drift, "rss_mb": peak_rss_mb()}


def phase_trace(name: str, seed: int, quick: bool) -> dict:
    """The traced run: per-layer metrics only, never end-to-end ones."""
    rec = Recorder()
    with rec.span("api.import") as imported:
        import repro.apps  # noqa: F401
        import repro.backend  # noqa: F401
    w, sample = setup_sample(name, seed, quick)
    setup_wall_s = (sample["setup_wall_s"]
                    + imported["end"] - imported["start"])
    reps = QUICK_REPS if quick else TRACED_REPS
    problems: list[str] = []
    attempted = failed = 0
    subjects = {}
    try:
        for layer, subject_name in layers.SUBJECT.items():
            if subject_name == name:
                subjects[layer] = w
            else:
                subjects[layer] = make_workload(
                    subject_name, quick or layer != w.layer)
                subjects[layer].setup(seed)
        rec.call("baseline.seq", w.seq_reference)

        # Own layer first, untraced and traced reps alternating so both
        # see the same host conditions; then the other layers' probes.
        timer = Calibrated()
        order = [w.layer] + [k for k in subjects if k != w.layer]
        for layer in order:
            subject = subjects[layer]
            for rep in range(reps):
                rec.rep = f"{layer}#{rep}"
                why = []
                if layer == w.layer:
                    why += guarded(timer, w)
                if layer == "compile":
                    why += layers.trace_compile(rec, subject)
                elif layer == "sim":
                    why += layers.trace_sim(rec, subject, first=rep == 0)
                else:
                    why += layers.trace_spmd(rec, subject)
                attempted += 1
                if why:
                    failed += 1
                    problems += [f"{rec.rep}: {p}" for p in why]
        rec.rep = None
        layers.trace_micro(rec)
        profile = layers.profile_op(w)
    finally:
        for subject in subjects.values():
            subject.teardown()
        if w not in subjects.values():
            w.teardown()

    metrics, inexact = layers.derive(
        rec, name, untraced=timer.wall, calibs=timer.calibs, cpu=timer.cpu,
        setup_wall_s=setup_wall_s, profile=profile)
    problems += inexact
    os.makedirs(OUT_DIR, exist_ok=True)
    trace_file = os.path.join(
        OUT_DIR, f"trace-{name}-{seed}{'-quick' if quick else ''}.json")
    rec.dump(trace_file, {"workload": name, "seed": seed, "quick": quick})
    return {"metrics": metrics, "attempted": attempted + 1,
            "failed": failed + bool(inexact), "problems": problems,
            "trace_file": os.path.relpath(trace_file),
            "calib_drift": timer.drift, "rss_mb": peak_rss_mb()}
