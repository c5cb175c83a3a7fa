"""The chaos contract: one runner, three scenario tables.

Single assignment makes every execution order yield the same result
(the paper's Section 2), so a fault a substrate can heal may move
*when* things happen and never *what* is computed.  :func:`run_scenario`
holds the three fault-capable backends to that with one rule, in five
steps:

1. compile the scenario's program;
2. take the oracle: its value on the sequential interpreter (``seq``);
3. take the reference: a fault-free run on the same backend and width;
4. run under the plan, through ``Backend.run(faults=...)`` — the only
   way a plan enters a run;
5. check the outcome and audit for leaks.

A scenario *heals* when the value ``==`` the oracle's, the semantic
metric families (:data:`SEMANTIC_FAMILIES`) equal the reference's, the
scenario's ``expect`` counters hold, and no process, socket or
``/dev/shm`` segment outlives it (:func:`repro.common.chaoslib.check_leaks`,
relative to the pre-scenario state).  A scenario that must *not* heal
names the :data:`repro.backend.ERROR_TAXONOMY` code its structured
error classifies as; anything else — a different code, a healed run, an
error outside the hierarchy, a run past its own deadline — fails.

Backends differ in two places only, both read off their capabilities:
a modeled-time substrate (``sim``) is deterministic, so its semantic
rows are compared one by one and the run is repeated to prove the plan
replayable; a self-healing one (``parallel``, ``dist``) re-labels rows
when a survivor adopts a lost identity, so per-family totals are
compared.

Used by the CI ``chaos`` and ``dist-chaos`` jobs::

    PYTHONPATH=src python -m repro.chaos sim --width 4
    PYTHONPATH=src python -m repro.chaos sim --zero-cost
    PYTHONPATH=src python -m repro.chaos parallel --width 4
    PYTHONPATH=src python -m repro.chaos dist --width 3 --verbose

``sim --zero-cost`` instead proves the fault layer free when off: a
fault-free run must be byte-identical (finish time and registry dump)
to ``benchmarks/baselines/sim_zero_cost.json`` (re-emit with
``--capture`` only when an intentional model change shifts modeled
time).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace

from repro.api import compile_source
from repro.backend import (MODELED_TIME, RECOVERY, classify_error,
                           get_backend, render_error)
from repro.common.chaoslib import (ROW_SWEEP, check_leaks, open_sockets,
                                   run_matrix, shm_entries)
from repro.common.config import (DistConfig, ObsConfig, ParallelConfig,
                                 SimConfig)
from repro.common.retry import RetryPolicy
from repro.obs.runrecord import SEMANTIC_FAMILIES as _WORK_FAMILIES

# What a run computed, not how fast: the families a resumed run must
# reproduce, plus the two read-side ones a fault may not perturb either.
# ``array.deferred_reads`` is deliberately absent — whether a read
# arrives before its write is a race a plan is allowed to move.
SEMANTIC_FAMILIES = _WORK_FAMILIES + ("array.element_reads",
                                      "array.write_forwards")

N = 8  # the row-sweep size most scenarios (and the zero-cost check) use

HEAL = "heal"
# For drawn plans: heal, or any structured error but ``internal``.
HEAL_OR_CLASSIFIED = "heal-or-classified-error"

# A run may overshoot its own ``timeout_s`` by its teardown, no more.
TEARDOWN_SLACK_S = 10.0


@dataclass
class Scenario:
    """One fault plan and what surviving it must look like.

    ``outcome`` is :data:`HEAL` or the taxonomy code the run's error
    must classify as.  ``expect`` maps a dotted attribute path — into
    the ``BackendResult`` of a healed run (``netstats.dropped``,
    ``recovery.takeovers``: one spelling on every backend), or into the
    exception of a failed one (``pe``) — to an exact value or an
    inclusive ``(lo, hi)`` range.
    """

    name: str
    faults: str
    source: str = ROW_SWEEP
    n: int = N
    cfg: dict = field(default_factory=dict)     # config-class overrides
    outcome: str = HEAL
    expect: dict = field(default_factory=dict)


def at_least(n: int) -> tuple:
    return (n, math.inf)


# -- the three tables ------------------------------------------------------


def sim_scenarios(pes: int) -> list[Scenario]:
    # Drop scenarios retransmit on a 1 ms timer so healing happens
    # *during* the run; at the default 5 ms the program can finish
    # first, after which in-flight channels are (correctly) abandoned.
    fast = {"retransmit_timeout_us": 1_000.0}
    # Whatever was dropped was retransmitted.
    healed = {"netstats.retransmits": at_least(1)}
    return [
        Scenario("drop-bcast", "drop:kind=bcast,count=2", cfg=dict(fast),
                 expect={"netstats.dropped": 2, **healed}),
        Scenario("drop-page", "drop:kind=page,count=1", cfg=dict(fast),
                 expect={"netstats.dropped": 1, **healed}),
        Scenario("dup-page", "dup:kind=page,count=3"),
        Scenario("reorder-page", "reorder:kind=page,count=2"),
        Scenario("delay-value", "delay:kind=value,count=5"),
        Scenario("dup-everything", "dup:count=0"),
        Scenario("lossy-link", "drop:prob=0.15,seed=11,count=0",
                 cfg=dict(fast), expect=healed),
        Scenario("ack-loss", "drop:kind=ack,count=4", cfg=dict(fast),
                 expect={"netstats.dropped": 4, **healed}),
        Scenario("pe-degrade", f"pe-degrade:pe={pes - 1},factor=3"),
        # Halt PE 1: it holds real subranges at every PE count (at n=8
        # the LCD distribution can leave the highest PEs with only empty
        # subranges, and losing an idle PE correctly heals).
        Scenario("pe-halt", "pe-halt:pe=1,at=300",
                 outcome="pe-halt", expect={"pe": 1},
                 cfg={"max_sim_time_us": 200_000.0,
                      "retransmit_timeout_us": 1_000.0}),
        Scenario("read-blackhole", "drop:kind=read,count=0",
                 outcome="livelock",
                 cfg={"retransmit_timeout_us": 500.0,
                      "retransmit_budget": 4}),
    ]


FILL = """
function main(n) {
    A = matrix(n, n);
    for i = 1 to n {
        for j = 1 to n { A[i, j] = 1.0 * i * j + 0.25; }
    }
    return A;
}
"""

SWEEP = """
function main(n) {
    B = matrix(n, n);
    for j = 1 to n { B[1, j] = 1.0 * j; }
    for i = 2 to n {
        for j = 1 to n { B[i, j] = B[i - 1, j] + 1.0; }
    }
    return B;
}
"""


def fast_parallel(retry: dict | None = None, **cfg) -> dict:
    """``ParallelConfig`` overrides with shrunk timings: the matrix must
    run in seconds, not backoff-minutes."""
    policy = RetryPolicy(**{"backoff_base_s": 0.01, "backoff_max_s": 0.05,
                            **(retry or {})})
    return {"poll_interval_s": 0.02, "grace_s": 0.2, "retry": policy, **cfg}


def parallel_scenarios(workers: int) -> list[Scenario]:
    def scenario(name, faults, expect=None, source=FILL, retry=None,
                 outcome=HEAL, **cfg):
        return Scenario(name, faults, source=source, n=12, outcome=outcome,
                        cfg=fast_parallel(retry, **cfg),
                        expect={f"recovery.{k}": v
                                for k, v in (expect or {}).items()})

    return [
        scenario("crash-before-write", "kill:worker=1,on=iter,after=0",
                 {"respawns": 1}),
        scenario("crash-mid-write", "kill:worker=1,on=write,after=5",
                 {"respawns": 1, "replayed_elements": 5}),
        scenario("crash-after-writes", "kill:worker=1,on=result",
                 {"respawns": 1}),
        scenario("lost-worker", "drop:worker=1", {"respawns": 1}),
        scenario("crash-on-respawn",
                 "kill:worker=1,on=iter,after=2;"
                 "kill:worker=1,on=iter,after=1,gen=2",
                 {"respawns": 2}),
        # The write delay keeps worker 0 behind the sweep front so the
        # last worker's boundary-row read genuinely spins (process start
        # skew would otherwise let it find the element already present).
        scenario("hang-in-spin",
                 f"hang:worker={workers - 1},on=spin,seconds=0.3;"
                 "delay:worker=0,on=write,seconds=0.005",
                 {"respawns": 0}, source=SWEEP, spin_ceiling_s=0.05),
        scenario("takeover", "kill:worker=1,on=iter,after=2",
                 {"takeovers": 1}, retry={"max_retries_per_worker": 0}),
        scenario("budget-exhaustion",
                 "kill:worker=0,gen=0;kill:worker=1,gen=0",
                 outcome="worker-failure",
                 retry={"max_retries_per_worker": 1,
                        "max_retries_total": 3}),
    ]


N_LONG = 16  # long enough that heartbeat silence is detected mid-run

# Recovery knobs tightened so detection/takeover happen within a short
# scenario; production defaults are tuned for real networks, not tests.
FAST_RECOVERY = {
    "heartbeat_interval_s": 0.04,
    "heartbeat_timeout_s": 0.4,
    "poll_interval_s": 0.02,
    "retry": RetryPolicy(backoff_base_s=0.01, backoff_max_s=0.05),
    "retransmit_timeout_s": 0.05,
}


def dist_scenarios(nodes: int) -> list[Scenario]:
    slow = nodes - 1  # highest node: never the result-reporting one

    def scenario(name, faults, n=N, takeovers=0, outcome=HEAL,
                 expect=None, **cfg):
        return Scenario(name, faults, n=n, outcome=outcome,
                        cfg={**FAST_RECOVERY, **cfg},
                        expect={**({"recovery.takeovers": takeovers}
                                   if outcome == HEAL else {}),
                                **(expect or {})})

    return [
        # Reliable delivery heals frame loss by genuine retransmission.
        scenario("drop-data", "drop:kind=data,count=4",
                 expect={"netstats.dropped": at_least(4),
                         "netstats.retransmits": at_least(1)}),
        # Delayed (not lost) frames: dedup absorbs late retransmitted
        # copies; delivery stays exactly-once.
        scenario("delay-data", "delay:kind=data,seconds=0.2,count=3",
                 expect={"netstats.delayed": at_least(3)}),
        # Heartbeats delayed past the failure detector's deadline: the
        # node is fenced as a zombie and a survivor takes over, even
        # though the process never crashed.
        # A sweep runs n^2 x ~4 us (~1.0 s here, 2 or 3 nodes) and must
        # outlive the tightened 0.2 s failure-detector deadline, here
        # ~5x; a run that finishes first would (correctly) never need
        # the fence, and fails on its takeover count: grow n.
        scenario("delay-hb-fence",
                 f"delay:src={slow},kind=hb,seconds=2.0,count=0",
                 n=512, takeovers=(1, nodes - 1),
                 heartbeat_timeout_s=0.2, read_timeout_s=15.0),
        # A partition shorter than the retransmit budget's reach heals
        # with no membership change at all.
        scenario("partition-heal", "partition:a=0,b=1,dur=0.4",
                 expect={"netstats.retransmits": at_least(1)},
                 retransmit_budget=64, read_timeout_s=15.0),
        # A node dies mid-sweep: heartbeat silence -> fence -> takeover
        # re-runs its subranges on a survivor.
        scenario("node-kill-takeover", "node-kill:node=1,on=iter,after=2",
                 n=N_LONG, takeovers=1),
        # A node dies *late*, after survivors already pushed writes into
        # its store: the presence-bit replay (survivor caches) plus the
        # subrange re-execution must reconstruct the lost segment.
        scenario("late-kill-replay", "node-kill:node=1,on=write,after=30",
                 n=N_LONG, takeovers=1),
        # Recovery budget exhausted: the structured error, not a hang.
        scenario("kill-budget-exhausted",
                 "node-kill:node=1,on=iter,after=2",
                 n=N_LONG, outcome="node-loss",
                 retry=replace(FAST_RECOVERY["retry"], max_retries_total=0)),
        # The coordinator itself dies mid-run (power-loss semantics: no
        # shutdown broadcast, its listener just vanishes).  The warm
        # standby fences the dead generation, nodes rejoin on the
        # pre-announced standby port with their report memories, and the
        # run completes with no node membership change at all.
        # Must outlive the third heartbeat (~0.03 s after start; the
        # ~1.0 s sweep does ~30x) or the run (correctly) finishes first,
        # no standby is promoted, and the missing failover fails it:
        # grow n.
        scenario("coord-kill-midrun", "coord-kill:on=hb,after=2",
                 n=512, expect={"recovery.failovers": at_least(1)},
                 heartbeat_interval_s=0.01, read_timeout_s=15.0),
        # The coordinator dies *late* — right as a node's first done
        # report arrives, before the state mutation it announces.  The
        # node's remembered reports resync the promoted standby, so the
        # nearly-complete run still finishes without re-execution.
        scenario("coord-kill-on-done", "coord-kill:on=done",
                 n=N_LONG, expect={"recovery.failovers": at_least(1)}),
    ]


SCENARIOS = {"sim": sim_scenarios, "parallel": parallel_scenarios,
             "dist": dist_scenarios}

# The config each backend's overrides apply to; the width is passed as
# ``parallelism``.  Only the simulator has to be asked for its metrics.
_CONFIG = {"sim": functools.partial(SimConfig, obs=ObsConfig(metrics=True)),
           "parallel": ParallelConfig, "dist": DistConfig}


# -- the runner ------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _program(source: str):
    return compile_source(source)


@functools.lru_cache(maxsize=None)
def _oracle(source: str, n: int):
    return _program(source).run((n,), backend="seq").value


def _semantic(registry, totals: bool):
    """The semantic rows of a registry, or their per-family totals."""
    rows = [r for r in registry.rows() if r.name in SEMANTIC_FAMILIES]
    if not totals:
        return rows
    sums = dict.fromkeys(SEMANTIC_FAMILIES, 0)
    for row in rows:
        sums[row.name] += row.value
    return sums


def _run(backend: str, source: str, n: int, width: int, config,
         faults=None):
    return _program(source).run((n,), backend=backend, parallelism=width,
                                config=config, faults=faults)


@functools.lru_cache(maxsize=None)
def _reference(backend: str, width: int, source: str, n: int):
    """Fault-free run on the same backend and width, default knobs (a
    scenario's overrides are timers and budgets, which the semantic
    families do not depend on): its time and semantic metrics."""
    res = _run(backend, source, n, width, _CONFIG[backend]())
    totals = RECOVERY in get_backend(backend).capabilities
    return res.time_us, _semantic(res.registry, totals)


def _check_expect(sc: Scenario, subject, problems: list[str]) -> list[str]:
    """Hold ``subject`` to ``sc.expect``; returns ``path=value`` notes."""
    seen = []
    for path, want in sc.expect.items():
        got = functools.reduce(getattr, path.split("."), subject)
        lo, hi = want if isinstance(want, tuple) else (want, want)
        if not lo <= got <= hi:
            shown = f"[{lo}, {hi}]" if isinstance(want, tuple) else want
            problems.append(f"{path}: want {shown}, got {got}")
        seen.append(f"{path}={got}")
    return seen


def _check_healed(backend: str, sc: Scenario, width: int, res, rerun,
                  problems: list[str]) -> str:
    """Hold a run that returned to the heal rule; returns a summary."""
    capabilities = get_backend(backend).capabilities
    oracle = _oracle(sc.source, sc.n)
    clean_us, reference = _reference(backend, width, sc.source, sc.n)
    if res.value != oracle:
        problems.append(
            f"value diverged from seq: {res.value!r} != {oracle!r}")
    if _semantic(res.registry, RECOVERY in capabilities) != reference:
        problems.append("semantic metrics diverged from the fault-free run")
    seen = _check_expect(sc, res, problems)
    if MODELED_TIME not in capabilities:
        return " ".join([f"wall {res.wall_time_s:.2f}s", *seen])
    # Replayability: the same seeded plan injects identically.
    again = rerun()
    if res.time_us != again.time_us:
        problems.append(
            f"not replayable: finish {res.time_us} vs {again.time_us}")
    if res.registry.to_jsonl() != again.registry.to_jsonl():
        problems.append("not replayable: registry dumps differ")
    return " ".join([f"finish {res.time_us:.1f} us (clean {clean_us:.1f})",
                     *seen])


def run_scenario(backend: str, sc: Scenario, width: int,
                 verbose: bool = False) -> list[str]:
    """Run one scenario; return a list of problems (empty = pass)."""
    problems: list[str] = []
    sockets0, shm0 = open_sockets(), shm_entries()
    may_heal = sc.outcome in (HEAL, HEAL_OR_CLASSIFIED)

    config = _CONFIG[backend](**sc.cfg)

    def chaos_run():
        return _run(backend, sc.source, sc.n, width, config, sc.faults)

    res = exc = None
    t0 = time.monotonic()
    try:
        res = chaos_run()
    except Exception as caught:  # noqa: BLE001 - every error is classified
        exc = caught
    elapsed = time.monotonic() - t0
    deadline = getattr(config, "timeout_s", math.inf)
    if elapsed > deadline + TEARDOWN_SLACK_S:
        problems.append(f"took {elapsed:.1f}s, past timeout_s={deadline}")

    if exc is None:
        if may_heal:
            note = _check_healed(backend, sc, width, res, chaos_run,
                                 problems)
        else:
            problems.append(
                f"expected error code {sc.outcome!r}, run healed")
    else:
        code, note = classify_error(exc), f"raised: {render_error(exc)}"
        if sc.outcome == HEAL:
            problems.append(f"expected heal, got {render_error(exc)}")
        elif may_heal:
            if code == "internal":
                problems.append(f"unclassified error: {render_error(exc)}")
        elif code != sc.outcome:
            problems.append(
                f"expected error code {sc.outcome!r}, got {render_error(exc)}")
        else:
            _check_expect(sc, exc, problems)
    if verbose and not problems:
        print(f"    {note}")
    check_leaks(problems, sockets0, shm0)
    return problems


# -- dist: SIGTERM drain ---------------------------------------------------

# Marker lands in every forked node's cmdline, so orphans are findable.
_STERM_MARKER = "pods_dist_chaos_sigterm_probe"

_STERM_SCRIPT = "\n".join([
    f"{_STERM_MARKER} = True",
    "from repro.api import compile_source",
    "from repro.common.config import DistConfig",
    f"src = {ROW_SWEEP!r}",
    "cfg = DistConfig(nodes=@NODES@, read_timeout_s=120.0, "
    "timeout_s=120.0)",
    "print('READY', flush=True)",
    # ~2.3 s: must outlive the 0.5 s the harness sleeps before SIGTERM.
    "compile_source(src).run((768,), backend='dist', config=cfg)",
])


def _marker_procs() -> list[int]:
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == os.getpid():
            continue
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                cmdline = fh.read()
        except OSError:
            continue
        if _STERM_MARKER.encode() in cmdline:
            pids.append(int(entry))
    return pids


def run_sigterm_drain(nodes: int, verbose: bool) -> list[str]:
    """SIGTERM mid-run must drain the whole tree, leaving no orphans."""
    problems: list[str] = []
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [os.path.join(os.getcwd(), "src"),
                    env.get("PYTHONPATH", "")] if p)
    proc = subprocess.Popen(
        [sys.executable, "-c",
         _STERM_SCRIPT.replace("@NODES@", str(nodes))],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env)
    try:
        # Wait for the run to actually be in flight, then terminate it.
        line = proc.stdout.readline()
        if b"READY" not in line:
            problems.append(f"probe failed to start: {line!r}")
            proc.kill()
            proc.wait(timeout=10)
            return problems
        time.sleep(0.5)
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            problems.append("coordinator did not exit within 15s of "
                            "SIGTERM")
            proc.kill()
            proc.wait(timeout=10)
        else:
            if proc.returncode == 0:
                problems.append("probe finished before SIGTERM landed; "
                                "drain not exercised (grow the probe)")
    finally:
        proc.stdout.close()
    deadline = time.monotonic() + 5.0
    orphans = _marker_procs()
    while orphans and time.monotonic() < deadline:
        time.sleep(0.1)
        orphans = _marker_procs()
    if orphans:
        problems.append(f"node processes outlived the coordinator: "
                        f"{orphans}")
        for pid in orphans:  # don't poison later scenarios
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
    if verbose and not problems:
        print(f"    coordinator exit code {proc.returncode}, "
              f"no orphans")
    return problems


# -- sim: zero-cost byte-identity ------------------------------------------

ZERO_COST_BASELINE = os.path.join("benchmarks", "baselines",
                                  "sim_zero_cost.json")
ZERO_COST_PES = (1, 2, 4)


def zero_cost_snapshot() -> dict:
    runs = {}
    for pes in ZERO_COST_PES:
        res = _run("sim", ROW_SWEEP, N, pes, _CONFIG["sim"]())
        runs[str(pes)] = {"finish_time_us": res.time_us,
                          "registry_jsonl": res.registry.to_jsonl()}
    return {"program": "row-sweep", "n": N, "runs": runs}


def _zero_cost(capture: bool) -> int:
    """Fault-free runs must be byte-identical to the captured baseline
    (or, with ``capture``, become it)."""
    got = zero_cost_snapshot()
    if capture:
        with open(ZERO_COST_BASELINE, "w") as fh:
            json.dump(got, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {ZERO_COST_BASELINE}")
        return 0
    with open(ZERO_COST_BASELINE) as fh:
        want = json.load(fh)
    problems = []
    for pes, rec in want["runs"].items():
        now = got["runs"][pes]
        if now["finish_time_us"] != rec["finish_time_us"]:
            problems.append(
                f"pes={pes}: finish_time_us {now['finish_time_us']!r} != "
                f"baseline {rec['finish_time_us']!r}")
        if now["registry_jsonl"] != rec["registry_jsonl"]:
            problems.append(f"pes={pes}: registry dump differs from "
                            "baseline")
    for p in problems:
        print(f"  !! {p}")
    print("zero-cost: " + ("byte-identical to baseline"
                           if not problems else "DIVERGED"))
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="run one backend's fault matrix under the chaos "
                    "contract")
    parser.add_argument("backend", choices=sorted(SCENARIOS))
    parser.add_argument("--width", type=int, default=2,
                        help="PEs / workers / nodes (default 2)")
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--zero-cost", action="store_true",
                        help="sim: check fault-free byte-identity against "
                             f"{ZERO_COST_BASELINE} instead of running "
                             "the fault matrix")
    parser.add_argument("--capture", action="store_true",
                        help="sim, with --zero-cost: re-emit the baseline "
                             "file from the current simulator")
    args = parser.parse_args(argv)

    if args.zero_cost or args.capture:
        if args.backend != "sim" or not args.zero_cost:
            parser.error("--zero-cost [--capture] is a sim check")
        return _zero_cost(args.capture)
    if args.width < 2:
        print("chaos needs --width >= 2 (a width-1 run has no network "
              "and no peer to lose)", file=sys.stderr)
        return 2
    cases = [(sc.name,
              lambda sc=sc: run_scenario(args.backend, sc, args.width,
                                         args.verbose))
             for sc in SCENARIOS[args.backend](args.width)]
    if args.backend == "dist":
        cases.append(("sigterm-drain",
                      lambda: run_sigterm_drain(args.width, args.verbose)))
    return run_matrix(cases, f"{args.backend} chaos",
                      f"{args.width} {get_backend(args.backend).noun}",
                      name_width=22)


if __name__ == "__main__":
    sys.exit(main())
