"""``run.py compare A.json B.json``: is B (the change) no worse than A
(the parent) by more than the bounds ``BENCHMARK.json`` fixes?

Both files come from ``run.py suite`` with the same seed.  One row per
(workload, end-to-end metric): both medians and quartiles over the
files' runs, how much worse B's median is as a share of A's, the bound,
and a verdict:

* ``BREACH``      B's median is worse than A's by more than the bound;
* ``unresolved``  within the bound, but the run-to-run spread of either
                  side exceeds the bound, so "unchanged" is not shown
                  (unless every run of B beats every run of A);
* ``ok``          within the bound and resolved.

Modeled quantities and counts of the traced runs, and the failure
count, must match to the last digit.  Exits 1 on any breach.
"""

from __future__ import annotations

import json
import sys

from e2ebench import stats
from e2ebench.layers import EXACT_SAMPLES
from e2ebench.spec import load_spec


def load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def values_of(doc: dict, workload: str, trace: int, metric: str) -> list:
    return [r["values"][metric] for r in doc["results"]
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["values"]]


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    return (b - a) / a if better == "lower" else (a - b) / a


def judge(a: list, b: list, better: str, bound: float) -> tuple[float, str]:
    delta = worse_by(stats.median(a), stats.median(b), better)
    if delta > bound:
        return delta, "BREACH"
    b_always_better = (max(b) < min(a) if better == "lower"
                       else min(b) > max(a))
    if max(stats.spread(a), stats.spread(b)) > bound and not b_always_better:
        return delta, "unresolved"
    return delta, "ok"


def compare(a: dict, b: dict, spec: dict, out=sys.stdout) -> int:
    breaches = 0
    if a["seed"] != b["seed"]:
        print(f"seeds differ ({a['seed']} vs {b['seed']}): the inputs are "
              f"not the same", file=out)
        return 1
    print(f"{'workload':<15} {'metric':<12} {'A median [q1, q3] n':<38} "
          f"{'B median [q1, q3] n':<38} {'worse by':>9} {'bound':>6}  verdict",
          file=out)
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            va = values_of(a, w["name"], 0, m["name"])
            vb = values_of(b, w["name"], 0, m["name"])
            if not va or not vb:
                continue
            delta, verdict = judge(va, vb, m["better"], m["bound"])
            breaches += verdict == "BREACH"
            cells = []
            for v in (va, vb):
                q1, q3 = stats.quartiles(v)
                cells.append(f"{stats.median(v):.5g} [{q1:.5g}, {q3:.5g}] "
                             f"n={len(v)}")
            print(f"{w['name']:<15} {m['name']:<12} {cells[0]:<38} "
                  f"{cells[1]:<38} {delta:>+9.1%} {m['bound']:>6.0%}  "
                  f"{verdict}", file=out)

    for w in spec["workloads"]:
        name = w["name"]
        for doc, label in ((a, "A"), (b, "B")):
            failed = sum(r["run"]["failed"] for r in doc["results"]
                         if r["workload"] == name)
            if failed:
                breaches += 1
                print(f"{name}: {failed} operations failed in {label}: "
                      f"BREACH (fail_share must be 0)", file=out)
        for metric in EXACT_SAMPLES:
            va = set(values_of(a, name, 1, metric))
            vb = set(values_of(b, name, 1, metric))
            if va and vb and va != vb:
                breaches += 1
                print(f"{name}: exact metric {metric} differs: "
                      f"{sorted(va)} vs {sorted(vb)}: BREACH", file=out)
    print(f"{breaches} breach(es)", file=out)
    return 1 if breaches else 0


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    return compare(load(argv[0]), load(argv[1]), load_spec())
