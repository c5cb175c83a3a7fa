"""Determinism and Church-Rosser tests for the observability layer.

Two levels of guarantee:

1. **Replay determinism** — two runs of the same (program, args, config)
   produce byte-identical exports: golden trace lines, Perfetto JSON,
   metrics JSONL/CSV.  This is what lets exports double as fixtures.

2. **Church-Rosser under jitter** — with ``jitter_seed`` set, message
   deliveries get pseudo-random extra delays.  Results must not change,
   and neither may each SP's *causal* event subsequence.  Frame uids are
   timing-dependent, so SPs are identified by their stable spawn path:
   ``path(frame) = path(parent) + (spawn_seq,)`` recovered from the
   frame-create ctx tuples, keyed ``(name, path, pe)`` (the PE matters
   because replicated frames share a path).
"""

from __future__ import annotations

import ast
import re

from repro.obs.export import perfetto_json

from tests.obs.conftest import run_observed, to_csv, trace_golden

_CREATE = re.compile(r"(\S+) uid=(\d+) ctx=(\(.*\))")

# Block events are timing-dependent (a yield resumes as a new block
# service); these three are causal per SP.
CAUSAL_KINDS = ("frame-create", "rf-range", "frame-end")


def stable_sp_keys(log) -> dict[int, tuple]:
    """frame uid -> (name, spawn-path, pe), jitter-invariant."""
    info: dict[int, tuple] = {}
    for e in log.events:
        if e.kind != "frame-create":
            continue
        m = _CREATE.match(e.detail)
        name, uid, ctx = m.group(1), int(m.group(2)), \
            ast.literal_eval(m.group(3))
        if ctx == ("root",):
            path: tuple = ()
        else:
            path = info[ctx[0]][1] + (ctx[1],)
        info[uid] = (name, path, e.pe)
    return info


def causal_subsequences(machine) -> dict[tuple, list]:
    keys = stable_sp_keys(machine.log)
    out: dict[tuple, list] = {}
    for e in machine.log.events:
        if e.sp is None or e.kind not in CAUSAL_KINDS:
            continue
        detail = e.detail if e.kind == "rf-range" else ""
        out.setdefault(keys[e.sp], []).append((e.kind, detail))
    return out


class TestReplayDeterminism:
    def test_exports_byte_identical(self):
        runs = [run_observed() for _ in range(2)]
        (m1, r1), (m2, r2) = runs
        assert r1.value == r2.value
        assert (trace_golden(m1.log.events)
                == trace_golden(m2.log.events))
        assert perfetto_json(r1.stats.log) == perfetto_json(r2.stats.log)
        assert r1.stats.registry.to_jsonl() == r2.stats.registry.to_jsonl()
        assert to_csv(r1.stats.registry) == to_csv(r2.stats.registry)

    def test_jitter_itself_is_deterministic(self):
        m1, r1 = run_observed(jitter_seed=7)
        m2, r2 = run_observed(jitter_seed=7)
        assert r1.value == r2.value
        assert (trace_golden(m1.log.events)
                == trace_golden(m2.log.events))


class TestChurchRosserUnderJitter:
    def test_results_and_causal_order_jitter_invariant(self):
        baseline_machine, baseline = run_observed()
        sequences = causal_subsequences(baseline_machine)
        for seed in (1, 99):
            machine, result = run_observed(jitter_seed=seed)
            # Same answer (the paper's determinacy claim) ...
            assert result.value == baseline.value
            # ... same SPs spawned on the same PEs, and per SP the same
            # causal event subsequence, even though global interleaving
            # and all timings shift.
            assert causal_subsequences(machine) == sequences

    def test_semantic_metrics_jitter_invariant(self):
        _, baseline = run_observed()
        _, jittered = run_observed(jitter_seed=42)
        for name in ("array.element_writes", "rf.items",
                     "sim.instructions"):
            assert jittered.stats.registry.total(name) \
                == baseline.stats.registry.total(name), name
