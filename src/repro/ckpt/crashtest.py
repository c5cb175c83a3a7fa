"""Crash-restart driver: durable execution as a standalone check.

Exercises the ``pods-ckpt/v2`` layer end to end with *real* process
death — ``SIGKILL``, no cleanup handlers — the way an operator's node
actually fails:

* ``sim-kill-resume``: a checkpointing run is SIGKILLed mid-flight; the
  surviving snapshot resumes at the same width and the resumed run
  record passes the semantic-parity gate (``pods runs diff --semantic``)
  against a clean run — value and semantic metric families exact.
* ``sim-resume-wider``: the same snapshot resumes at a *different*
  width; value and width-invariant families still gate exactly
  (the per-identity ``rf.subrange`` count is informational across a
  width change, by design).
* ``dist-coord-kill9``: the distributed coordinator process is killed
  with ``kill -9`` mid-run (located via ``PODS_DIST_COORD_PIDFILE``);
  the warm standby must take over and the run complete with the exact
  fault-free value, no checkpoint involved.
* ``dist-kill-resume``: a checkpointing distributed run has its whole
  process tree SIGKILLed; the snapshot resumes on a *different* node
  count and reproduces the exact value.

Everything goes through the CLI (``pods run --ckpt-dir`` / ``pods
resume`` / ``pods runs diff``) in subprocesses where process death is
involved, so the kill is honest: no in-process shortcuts survive it.

Used by the CI ``crash-restart`` job::

    PYTHONPATH=src python -m repro.ckpt.crashtest
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time

from repro.api import compile_source
from repro.common.chaoslib import ROW_SWEEP, run_matrix
from repro.common.config import DistConfig
from repro.dist.coordinator import COORD_PIDFILE_ENV

N_SIM = 48       # sim: enough events that the kill lands mid-run
# dist: sized for wall-clock (a sweep is n^2 x ~4 us).  The kill follows
# the first 0.05 s snapshot: the ~0.45 s sweep must outlive it (~4x) or
# that snapshot is the final one and the resume recomputes nothing.
N_DIST = 192
# Must outlive pidfile discovery + the assassin's 0.03 s pause before
# its kill -9 (~15x at ~0.55 s).
N_COORD_KILL = 384
KILL_TIMEOUT_S = 30.0

_RECORDED = re.compile(r"recorded ([0-9a-f]{12})")
_VALUE = re.compile(r"value: (\S+)")
_ELEMENTS = re.compile(r"\((\d+) elements\)")


def _cli(args, *, check=True, env=None):
    """Run ``pods <args>`` as a subprocess; returns CompletedProcess."""
    cmd = [sys.executable, "-m", "repro.cli", *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=120)
    if check and proc.returncode != 0:
        raise RuntimeError(
            f"pods {' '.join(args)} exited {proc.returncode}:\n"
            f"{proc.stdout}{proc.stderr}")
    return proc


def _recorded_id(proc) -> str:
    m = _RECORDED.search(proc.stdout)
    if not m:
        raise RuntimeError(f"no 'recorded <id>' line in:\n{proc.stdout}")
    return m.group(1)


def _value_line(proc) -> str:
    m = _VALUE.search(proc.stdout)
    if not m:
        raise RuntimeError(f"no 'value:' line in:\n{proc.stdout}")
    return m.group(1)


def _kill_when_checkpointed(proc, ckpt_dir: str, problems: list[str],
                            *, group: bool = False) -> bool:
    """Wait for the first snapshot to land, then SIGKILL the run.

    Returns True when the kill was genuinely mid-run (the process was
    still alive when the signal went out).
    """
    latest = os.path.join(ckpt_dir, "latest.json")
    deadline = time.monotonic() + KILL_TIMEOUT_S
    while time.monotonic() < deadline:
        if os.path.exists(latest):
            break
        if proc.poll() is not None:
            problems.append(
                f"run exited {proc.returncode} before any snapshot "
                f"landed:\n{proc.stderr.read()}")
            return False
        time.sleep(0.005)
    else:
        proc.kill()
        problems.append("no snapshot appeared within the deadline")
        return False
    midrun = proc.poll() is None
    if group:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    else:
        proc.kill()
    proc.wait()
    proc.stdout.close()
    proc.stderr.close()
    if not midrun:
        problems.append("run finished before the kill — scenario is "
                        "vacuous, grow the program size")
    return midrun


def _start_ckpt_run(prog_path: str, n: int, ckpt_dir: str, backend: str,
                    width_flag: str, width: int, *,
                    every_events: int = 0, interval_s: float = 0.25,
                    group: bool = False):
    cmd = [sys.executable, "-m", "repro.cli", "run", prog_path,
           "--args", str(n), "--backend", backend, width_flag,
           str(width), "--ckpt-dir", ckpt_dir,
           "--ckpt-interval", str(interval_s)]
    if every_events:
        cmd += ["--ckpt-every-events", str(every_events)]
    return subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=group)


# -- scenarios ------------------------------------------------------------


def sim_kill_resume(tmp: str, state: dict, verbose: bool) -> list[str]:
    """SIGKILL a checkpointing sim run; resume at the same width and
    gate the resumed record against a clean run's record."""
    problems: list[str] = []
    prog = os.path.join(tmp, "sweep.idl")
    with open(prog, "w") as fh:
        fh.write(ROW_SWEEP)
    runs = os.path.join(tmp, "runs")
    ckpt = os.path.join(tmp, "ckpt-sim")
    state.update(prog=prog, runs=runs, ckpt=ckpt)

    clean = _cli(["run", prog, "--args", str(N_SIM), "--backend", "sim",
                  "--pes", "2", "--record", "--runs-dir", runs])
    state["clean_id"] = _recorded_id(clean)

    # --ckpt-every-events 40 paces hundreds of snapshots through the
    # run; the kill lands long before the sweep finishes.
    proc = _start_ckpt_run(prog, N_SIM, ckpt, "sim", "--pes", 2,
                           every_events=40)
    if not _kill_when_checkpointed(proc, ckpt, problems):
        return problems

    resumed = _cli(["resume", ckpt, "--pes", "2", "--record",
                    "--runs-dir", runs])
    rid = _recorded_id(resumed)
    if verbose:
        print("    " + resumed.stdout.splitlines()[0])
    gate = _cli(["runs", "diff", state["clean_id"], rid, "--semantic",
                 "--store", runs], check=False)
    if gate.returncode != 0:
        problems.append("semantic diff (same width) failed:\n"
                        + gate.stdout + gate.stderr)
    return problems


def sim_resume_wider(tmp: str, state: dict, verbose: bool) -> list[str]:
    """Resume the snapshot from sim-kill-resume at a different width;
    value and width-invariant semantic families must still gate."""
    problems: list[str] = []
    if "clean_id" not in state:
        return ["sim-kill-resume did not leave a checkpoint to reuse"]
    resumed = _cli(["resume", state["ckpt"], "--pes", "3", "--record",
                    "--runs-dir", state["runs"]])
    rid = _recorded_id(resumed)
    if verbose:
        print("    " + resumed.stdout.splitlines()[0])
    gate = _cli(["runs", "diff", state["clean_id"], rid, "--semantic",
                 "--store", state["runs"]], check=False)
    if gate.returncode != 0:
        problems.append("semantic diff (2 -> 3 PEs) failed:\n"
                        + gate.stdout + gate.stderr)
    return problems


def dist_coord_kill9(nodes: int, verbose: bool) -> list[str]:
    """kill -9 the real coordinator process mid-run; the warm standby
    completes the run with the exact fault-free value."""
    problems: list[str] = []
    program = compile_source(ROW_SWEEP)
    n = N_COORD_KILL
    oracle = program.run((n,), backend="seq").value

    with tempfile.TemporaryDirectory(prefix="pods-crash-") as tmp:
        pidfile = os.path.join(tmp, "coord.pid")
        os.environ[COORD_PIDFILE_ENV] = pidfile

        def assassin():
            deadline = time.monotonic() + KILL_TIMEOUT_S
            while time.monotonic() < deadline:
                try:
                    with open(pidfile) as fh:
                        pid = int(fh.read().strip())
                    break
                except (OSError, ValueError):
                    time.sleep(0.002)
            else:
                return
            time.sleep(0.03)  # let the run get genuinely underway
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        killer = threading.Thread(target=assassin, daemon=True)
        killer.start()
        try:
            cfg = DistConfig(nodes=nodes, heartbeat_interval_s=0.01,
                             poll_interval_s=0.02, read_timeout_s=15.0)
            res = program.run((n,), backend="dist", config=cfg)
        finally:
            killer.join(timeout=KILL_TIMEOUT_S)
            os.environ.pop(COORD_PIDFILE_ENV, None)

    if res.value != oracle:
        problems.append(f"value diverged after coordinator kill: "
                        f"{res.value!r} != {oracle!r}")
    kinds = [e.kind for e in res.recovery.events]
    if "failover" not in kinds:
        problems.append(f"expected a failover event, got kinds {kinds} "
                        "(if the run outran the kill: grow N_COORD_KILL)")
    elif verbose:
        print("    " + res.recovery.summary())
    return problems


def dist_kill_resume(nodes: int, verbose: bool) -> list[str]:
    """SIGKILL an entire checkpointing dist job (coordinator, nodes and
    client); resume the snapshot on a different node count."""
    problems: list[str] = []
    program = compile_source(ROW_SWEEP)
    oracle = program.run((N_DIST,), backend="seq").value

    with tempfile.TemporaryDirectory(prefix="pods-crash-") as tmp:
        prog = os.path.join(tmp, "sweep.idl")
        with open(prog, "w") as fh:
            fh.write(ROW_SWEEP)
        ckpt = os.path.join(tmp, "ckpt-dist")
        proc = _start_ckpt_run(prog, N_DIST, ckpt, "dist", "--nodes",
                               nodes, interval_s=0.05, group=True)
        if not _kill_when_checkpointed(proc, ckpt, problems,
                                       group=True):
            return problems

        resumed = _cli(["resume", ckpt, "--nodes", str(nodes + 1)])
        got = _value_line(resumed)
        if verbose:
            print("    " + resumed.stdout.splitlines()[0])
        if got != str(oracle):
            problems.append(f"resumed value {got} != oracle {oracle} "
                            f"({nodes} -> {nodes + 1} nodes)")
        held = _ELEMENTS.search(resumed.stdout)
        if held is None or int(held.group(1)) >= N_DIST * N_DIST:
            problems.append("the snapshot held every element — the sweep "
                            "had finished before the kill and the resume "
                            "recomputed nothing: grow N_DIST")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ckpt.crashtest",
        description="kill real processes mid-run and prove the "
                    "checkpoint/failover layer restores them")
    parser.add_argument("--nodes", type=int, default=2,
                        help="node count for the distributed scenarios")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    state: dict = {}
    with tempfile.TemporaryDirectory(prefix="pods-crash-") as tmp:
        cases = [
            ("sim-kill-resume",
             lambda: sim_kill_resume(tmp, state, args.verbose)),
            ("sim-resume-wider",
             lambda: sim_resume_wider(tmp, state, args.verbose)),
            ("dist-coord-kill9",
             lambda: dist_coord_kill9(args.nodes, args.verbose)),
            ("dist-kill-resume",
             lambda: dist_kill_resume(args.nodes, args.verbose)),
        ]
        return run_matrix(cases, "crash-restart",
                          f"{args.nodes} nodes", name_width=18)


if __name__ == "__main__":
    sys.exit(main())
