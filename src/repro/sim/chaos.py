"""Simulator chaos driver: the network-fault matrix as a standalone check.

Runs a battery of fault plans (:mod:`repro.sim.netfaults`) against the
simulated machine and verifies the Church-Rosser contract end to end:

* healed runs return results **bit-identical** to the fault-free run and
  agree on every *semantic* metric (``array.*`` element counts, ``rf.*``
  subranges) — only timings may move;
* seeded plans are replayable: running the same scenario twice gives the
  same finish time and byte-identical registry dumps;
* unhealable plans (a dead PE, a 100%-lossy channel) raise the matching
  structured error — :class:`~repro.common.errors.PEHaltError` naming
  the lost PE, or :class:`~repro.common.errors.LivelockError` — within
  the configured guardrails, never a hang.

``--zero-cost`` instead proves the whole layer free when off: a
fault-free run must be byte-identical (finish time and registry dump) to
the pre-fault-model baselines in
``benchmarks/baselines/sim_zero_cost.json`` (re-emit with ``--capture``
only when an intentional model change shifts modeled time).

Used by the CI ``chaos`` job on 2 and 4 PEs::

    PYTHONPATH=src python -m repro.sim.chaos --pes 4
    PYTHONPATH=src python -m repro.sim.chaos --zero-cost
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field

from repro.api import compile_source
from repro.common.chaoslib import ROW_SWEEP, run_matrix
from repro.common.config import MachineConfig, ObsConfig, SimConfig
from repro.common.errors import LivelockError, PEHaltError

ZERO_COST_BASELINE = os.path.join("benchmarks", "baselines",
                                  "sim_zero_cost.json")
ZERO_COST_PES = (1, 2, 4)
N = 8

# Registry rows that must be invariant under chaos (semantic: they count
# program facts, not execution timing).  ``array.deferred_reads`` is
# deliberately absent — whether a read arrives before its write is a
# race the fault plan is allowed to perturb.
SEMANTIC_METRICS = ("array.element_reads", "array.element_writes",
                    "array.write_forwards", "array.pages_touched",
                    "rf.subrange", "rf.items")


@dataclass
class Scenario:
    name: str
    faults: str
    heals: bool = True                  # expect a healed, identical run
    error: type | None = None           # expected exception when not
    halted_pe: int | None = None        # expected PEHaltError.pe
    cfg: dict = field(default_factory=dict)     # SimConfig overrides
    expect: dict = field(default_factory=dict)  # NetStats attr -> value


def scenarios(pes: int) -> list[Scenario]:
    # Drop scenarios retransmit on a 1 ms timer so healing happens
    # *during* the run; at the default 5 ms the program can finish
    # first, after which in-flight channels are (correctly) abandoned.
    fast = {"retransmit_timeout_us": 1_000.0}
    return [
        Scenario("drop-bcast", "drop:kind=bcast,count=2", cfg=dict(fast),
                 expect={"dropped": 2}),
        Scenario("drop-page", "drop:kind=page,count=1", cfg=dict(fast),
                 expect={"dropped": 1}),
        Scenario("dup-page", "dup:kind=page,count=3"),
        Scenario("reorder-page", "reorder:kind=page,count=2"),
        Scenario("delay-value", "delay:kind=value,count=5"),
        Scenario("dup-everything", "dup:count=0"),
        Scenario("lossy-link", "drop:prob=0.15,seed=11,count=0",
                 cfg=dict(fast)),
        Scenario("ack-loss", "drop:kind=ack,count=4", cfg=dict(fast),
                 expect={"dropped": 4}),
        Scenario("pe-degrade", f"pe-degrade:pe={pes - 1},factor=3"),
        # Halt PE 1: it holds real subranges at every PE count (at n=8
        # the LCD distribution can leave the highest PEs with only empty
        # subranges, and losing an idle PE correctly heals).
        Scenario("pe-halt", "pe-halt:pe=1,at=300",
                 heals=False, error=PEHaltError, halted_pe=1,
                 cfg={"max_sim_time_us": 200_000.0,
                      "retransmit_timeout_us": 1_000.0}),
        Scenario("read-blackhole", "drop:kind=read,count=0",
                 heals=False, error=LivelockError,
                 cfg={"retransmit_timeout_us": 500.0,
                      "retransmit_budget": 4}),
    ]


def _sim_config(pes: int, faults: str | None = None, **over) -> SimConfig:
    return SimConfig(machine=MachineConfig(num_pes=pes),
                     obs=ObsConfig(metrics=True), faults=faults, **over)


def _semantic_rows(registry) -> list[str]:
    keep = []
    for line in registry.to_jsonl().splitlines():
        row = json.loads(line)
        if row["name"] in SEMANTIC_METRICS:
            keep.append(line)
    return keep


def run_scenario(sc: Scenario, pes: int, program, baseline,
                 verbose: bool) -> list[str]:
    """Run one scenario; return a list of problems (empty = pass)."""
    problems: list[str] = []

    def chaos_run():
        cfg = _sim_config(pes, faults=sc.faults, **sc.cfg)
        return program.run((N,), backend="sim", config=cfg).raw

    if not sc.heals:
        try:
            chaos_run()
        except sc.error as exc:
            if (sc.halted_pe is not None
                    and getattr(exc, "pe", None) != sc.halted_pe):
                problems.append(
                    f"expected PEHaltError.pe == {sc.halted_pe}, "
                    f"got {getattr(exc, 'pe', None)}")
            if verbose:
                print(f"    raised (expected): {str(exc).splitlines()[0]}")
        except Exception as exc:  # noqa: BLE001 - diagnosing wrong type
            problems.append(
                f"expected {sc.error.__name__}, got "
                f"{type(exc).__name__}: {str(exc).splitlines()[0]}")
        else:
            problems.append(f"expected {sc.error.__name__}, run healed")
        return problems

    try:
        r1 = chaos_run()
        r2 = chaos_run()
    except Exception as exc:  # noqa: BLE001 - the scenario must heal
        problems.append(f"expected heal, got {type(exc).__name__}: "
                        f"{str(exc).splitlines()[0]}")
        return problems

    if r1.value != baseline.value:
        problems.append(
            f"result not bit-identical: {r1.value!r} != {baseline.value!r}")
    if _semantic_rows(r1.stats.registry) != _semantic_rows(
            baseline.stats.registry):
        problems.append("semantic metrics diverged from fault-free run")
    # Replayability: the same seeded plan injects identically.
    if r1.stats.finish_time_us != r2.stats.finish_time_us:
        problems.append(
            f"not replayable: finish {r1.stats.finish_time_us} vs "
            f"{r2.stats.finish_time_us}")
    if r1.stats.registry.to_jsonl() != r2.stats.registry.to_jsonl():
        problems.append("not replayable: registry dumps differ")
    ns = r1.stats.netstats
    for attr, want in sc.expect.items():
        got = getattr(ns, attr)
        if got != want:
            problems.append(f"netstats.{attr}: want {want}, got {got}")
    if ns.dropped and not ns.retransmits:
        problems.append("messages dropped but nothing retransmitted")
    if verbose:
        print(f"    finish {r1.stats.finish_time_us:.1f} us "
              f"(clean {baseline.stats.finish_time_us:.1f}); "
              f"retx={ns.retransmits} drop={ns.dropped} "
              f"dup_disc={ns.dup_discarded}")
    return problems


# -- zero-cost byte-identity ---------------------------------------------


def zero_cost_snapshot() -> dict:
    program = compile_source(ROW_SWEEP)
    runs = {}
    for pes in ZERO_COST_PES:
        res = program.run((N,), backend="sim", config=_sim_config(pes)).raw
        runs[str(pes)] = {
            "finish_time_us": res.stats.finish_time_us,
            "registry_jsonl": res.stats.registry.to_jsonl(),
        }
    return {"program": "row-sweep", "n": N, "runs": runs}


def check_zero_cost(path: str = ZERO_COST_BASELINE) -> list[str]:
    """Fault-free runs must be byte-identical to the captured baseline."""
    with open(path) as fh:
        want = json.load(fh)
    got = zero_cost_snapshot()
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
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sim.chaos",
        description="run the simulated-network fault matrix")
    parser.add_argument("--pes", type=int, default=2)
    parser.add_argument("--verbose", action="store_true")
    parser.add_argument("--zero-cost", action="store_true",
                        help="check fault-free byte-identity against "
                             f"{ZERO_COST_BASELINE} instead of running "
                             "the fault matrix")
    parser.add_argument("--capture", action="store_true",
                        help="with --zero-cost: re-emit the baseline "
                             "file from the current simulator")
    args = parser.parse_args(argv)

    if args.zero_cost:
        if args.capture:
            snap = zero_cost_snapshot()
            with open(ZERO_COST_BASELINE, "w") as fh:
                json.dump(snap, fh, indent=1, sort_keys=True)
                fh.write("\n")
            print(f"wrote {ZERO_COST_BASELINE}")
            return 0
        problems = check_zero_cost()
        for p in problems:
            print(f"  !! {p}")
        print("zero-cost: " + ("byte-identical to baseline"
                               if not problems else "DIVERGED"))
        return 1 if problems else 0

    if args.pes < 2:
        print("chaos needs --pes >= 2 (a 1-PE machine has no network)",
              file=sys.stderr)
        return 2
    program = compile_source(ROW_SWEEP)
    baseline = program.run((N,), backend="sim",
                           config=_sim_config(args.pes)).raw
    cases = [(sc.name,
              lambda sc=sc: run_scenario(sc, args.pes, program, baseline,
                                         args.verbose))
             for sc in scenarios(args.pes)]
    return run_matrix(cases, "sim chaos", f"{args.pes} PEs")


if __name__ == "__main__":
    sys.exit(main())
