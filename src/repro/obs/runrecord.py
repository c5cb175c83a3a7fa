"""Self-describing run records: schema ``pods-run/v1`` + diff semantics.

A *run record* is the durable form of one :class:`repro.backend.
BackendResult`: everything PRs 2-3 taught the system to observe —
metrics registry, per-PE wait attribution, critical-path what-ifs,
recovery and network-fault summaries — plus enough identity (program
content hash, full config fingerprint) that two records can be compared
without the processes that produced them.  Records are plain JSON
documents: a ``schema`` tag, a structural :func:`validate` returning a
list of problems, and a canonical byte encoding so identical runs
produce identical bytes.

Schema ``pods-run/v1``::

    {
      "schema": "pods-run/v1",
      "program": {"name": "main", "entry": "main",
                  "source_sha256": "..."},           # content hash
      "args": [8, 1],                                # scalars only
      "config": {"backend": "sim", "parallelism": 2,
                 "config_type": "SimConfig",
                 "machine.num_pes": 2, "machine.page_size": 32, ...},
      "result": {"value": 55, "time_us": 1234.5,
                 "wall_time_s": null},
      "metrics": [{"kind": "counter", "name": "rf.subrange",
                   "labels": {"pe": "0"}, "value": 4}, ...],
      "waits":  [{"pe": 0, "category": "token-wait",
                  "us": 120.0}, ...],                # optional
      "critpath": {"total_us": 1234.5,
                   "contributions": {"run": ..., ...},
                   "what_if": [{"category": "remote-read",
                                "predicted_us": ...,
                                "speedup": ...}, ...]},  # optional
      "recovery": {"respawns": 1, ...},              # when nonzero
      "net": {"retransmits": 2, ...},                # when nonzero
      "ckpt": {"snapshots": 3, "elements": 128,      # when durable
               "restored_elements": 64,              # execution was on
               "resumed_from": "..."}
    }

``wall_time_s`` (and the recovery section's ``backoff_total_s``) are the
only host-dependent fields; :func:`record_id` hashes the *deterministic
projection* — the record minus wall time — so two identical modeled runs
content-address to the same id, and :func:`diff` never gates on wall
time.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from repro.common.canonical import (canonical_json, content_address,
                                    source_hash, source_hash_problems)

SCHEMA = "pods-run/v1"

# Hex digits of the sha256 a record is addressed by (store filenames and
# CLI references use the full id; renderings abbreviate).
ID_ABBREV = 12

# Metric families that describe WHAT a run computed rather than how
# fast: Range-Filter activations/items and I-structure element writes /
# pages touched.  They are invariant under scheduling and
# checkpoint/restart (``array.deferred_reads`` is excluded — timing
# changes how often a read arrives before its write), so
# ``diff(semantic=True)`` gates their totals exactly even across a
# width change, which is how the crash-restart CI job proves a resumed
# run re-did (or verified) all the same work.  ``rf.subrange`` counts
# per-identity activations — one per worker per distributed loop — so
# it scales with the partition width and only gates when the two runs'
# parallelism matches.
SEMANTIC_FAMILIES = ("rf.subrange", "rf.items", "array.element_writes",
                     "array.pages_touched")
WIDTH_SCALED_FAMILIES = ("rf.subrange",)


# ---------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------


def _scalar(v):
    """Project any value onto a JSON scalar (str() as the catch-all)."""
    if isinstance(v, (int, float, str, bool, type(None))):
        return v
    return str(v)


def _jsonable_value(value):
    """The program's answer as JSON: scalars stay, arrays nest, the
    rest stringifies (deterministically — reprs here are stable)."""
    if isinstance(value, (int, float, str, bool, type(None))):
        return value
    nested = getattr(value, "to_nested", None)
    if callable(nested):
        try:
            return nested()
        except Exception:
            pass
    return str(value)


def build_record(result, program=None, args: tuple = ()) -> dict:
    """Assemble a ``pods-run/v1`` record from one BackendResult.

    ``result`` is a :class:`repro.backend.BackendResult` (its
    ``fingerprint`` — filled in uniformly by :meth:`Backend.run` — is
    the config section); ``program`` is the :class:`repro.api.Program`
    that ran, if available, for the content-hash identity section.
    Sections the run did not observe (no registry, no wait store, no
    faults) are simply absent — a record is as rich as the run's
    ObsConfig made it.
    """
    prog_sec: dict = {}
    if program is not None:
        name = getattr(getattr(program, "pods", None), "name", None) or \
            getattr(program, "entry", "main")
        prog_sec = {"name": name,
                    "entry": getattr(program, "entry", "main")}
        source = getattr(program, "source", None)
        if isinstance(source, str):
            prog_sec["source_sha256"] = source_hash(source)
    doc: dict = {
        "schema": SCHEMA,
        "program": prog_sec,
        "args": [_scalar(a) for a in args],
        "config": dict(result.fingerprint or
                       {"backend": result.backend,
                        "parallelism": result.parallelism}),
        "result": {
            "value": _jsonable_value(result.value),
            "time_us": result.time_us,
            "wall_time_s": result.wall_time_s,
        },
    }

    registry = result.registry
    if registry is not None:
        doc["metrics"] = [
            {"kind": r.kind, "name": r.name, "labels": dict(r.labels),
             "value": r.value}
            for r in registry.rows()
        ]

    stats = result.stats
    if stats is not None and stats.wait_breakdown is not None:
        from repro.obs.critpath import critical_path

        doc["waits"] = [
            {"pe": pe, "category": cat, "us": us}
            for pe, per_cause in enumerate(stats.wait_breakdown)
            for cat, us in sorted(per_cause.items())
        ]
        path = critical_path(stats.log, stats.finish_time_us)
        doc["critpath"] = {
            "total_us": path.total_us,
            "contributions": dict(sorted(path.contributions().items())),
            "what_if": [
                {"category": cat, "predicted_us": predicted,
                 "speedup": speedup}
                for cat, predicted, speedup in path.what_if()
            ],
        }

    recovery = result.recovery
    if recovery is not None and recovery.events:
        doc["recovery"] = {
            "respawns": recovery.respawns,
            "takeovers": recovery.takeovers,
            "stall_reports": recovery.stall_reports,
            "supersessions": recovery.supersessions,
            "failures_seen": recovery.failures_seen,
            "backoff_total_s": recovery.backoff_total_s,
            "replayed_elements": recovery.replayed_elements,
        }

    netstats = result.netstats
    if netstats is not None and netstats.any_faults():
        doc["net"] = netstats.counters()

    if result.ckpt:
        doc["ckpt"] = {k: _scalar(v)
                       for k, v in sorted(result.ckpt.items())}

    problems = validate(doc)
    if problems:
        raise ValueError("invalid run record: " + "; ".join(problems))
    return doc


# ---------------------------------------------------------------------
# canonical bytes / content addressing
# ---------------------------------------------------------------------


def deterministic_projection(doc: dict) -> dict:
    """The record minus its host-dependent fields (wall time, backoff,
    checkpoint provenance — snapshot cadence is wall-clock-paced and the
    directory is a host path, and a resumed run claims the same identity
    as an uninterrupted one)."""
    out = json.loads(canonical_json(doc))  # deep copy
    result = out.get("result")
    if isinstance(result, dict):
        result.pop("wall_time_s", None)
    recovery = out.get("recovery")
    if isinstance(recovery, dict):
        recovery.pop("backoff_total_s", None)
    out.pop("ckpt", None)
    return out


def record_id(doc: dict) -> str:
    """Content address: sha256 of the deterministic projection."""
    return content_address(deterministic_projection(doc))


# ---------------------------------------------------------------------
# validation (a list of problems; empty = valid)
# ---------------------------------------------------------------------


def _is_number(v) -> bool:
    """Finite ints/floats only — no bools, NaNs or infinities."""
    return (isinstance(v, (int, float)) and not isinstance(v, bool)
            and math.isfinite(v))


def validate(doc) -> list[str]:
    """Structural check; returns a list of problems (empty = valid)."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return ["record must be an object"]
    if doc.get("schema") != SCHEMA:
        problems.append(
            f"schema must be {SCHEMA!r}, got {doc.get('schema')!r}")
    prog = doc.get("program")
    if not isinstance(prog, dict):
        problems.append("'program' must be an object")
    else:
        problems += source_hash_problems(prog)
    if not isinstance(doc.get("args"), list):
        problems.append("'args' must be an array")
    config = doc.get("config")
    if not isinstance(config, dict):
        problems.append("'config' must be an object")
    else:
        if not isinstance(config.get("backend"), str) or \
                not config.get("backend"):
            problems.append("'config.backend' must be a non-empty string")
        pes = config.get("parallelism")
        if not isinstance(pes, int) or isinstance(pes, bool) or pes < 1:
            problems.append("'config.parallelism' must be a positive "
                            "integer")
        for k, v in config.items():
            if not isinstance(v, (int, float, str, bool, type(None))):
                problems.append(f"config[{k!r}] must be a scalar")
    result = doc.get("result")
    if not isinstance(result, dict):
        problems.append("'result' must be an object")
        return problems
    for fld in ("time_us", "wall_time_s"):
        v = result.get(fld)
        if v is not None and not _is_number(v):
            problems.append(f"'result.{fld}' must be a finite number or "
                            "null")
    metrics = doc.get("metrics")
    if metrics is not None:
        if not isinstance(metrics, list):
            problems.append("'metrics' must be an array")
        else:
            seen: set = set()
            for i, row in enumerate(metrics):
                where = f"metrics[{i}]"
                if not isinstance(row, dict):
                    problems.append(f"{where}: not an object")
                    continue
                if row.get("kind") not in ("counter", "gauge",
                                           "histogram"):
                    problems.append(f"{where}: unknown kind "
                                    f"{row.get('kind')!r}")
                if not isinstance(row.get("name"), str):
                    problems.append(f"{where}: 'name' must be a string")
                if not isinstance(row.get("labels"), dict):
                    problems.append(f"{where}: 'labels' must be an object")
                else:
                    key = (row.get("kind"), row.get("name"),
                           tuple(sorted(row["labels"].items())))
                    if key in seen:
                        problems.append(f"{where}: duplicate metric row "
                                        f"{row.get('name')!r}")
                    seen.add(key)
    waits = doc.get("waits")
    if waits is not None:
        if not isinstance(waits, list):
            problems.append("'waits' must be an array")
        else:
            for i, row in enumerate(waits):
                if not (isinstance(row, dict)
                        and isinstance(row.get("pe"), int)
                        and isinstance(row.get("category"), str)
                        and _is_number(row.get("us"))):
                    problems.append(f"waits[{i}]: must be "
                                    "{pe, category, us}")
    critpath = doc.get("critpath")
    if critpath is not None:
        if not isinstance(critpath, dict) or \
                not _is_number(critpath.get("total_us")):
            problems.append("'critpath.total_us' must be a finite number")
        elif not isinstance(critpath.get("contributions"), dict):
            problems.append("'critpath.contributions' must be an object")
    ckpt = doc.get("ckpt")
    if ckpt is not None:
        if not isinstance(ckpt, dict):
            problems.append("'ckpt' must be an object")
        else:
            for k, v in ckpt.items():
                if not isinstance(v, (int, float, str, bool, type(None))):
                    problems.append(f"ckpt[{k!r}] must be a scalar")
    return problems


# ---------------------------------------------------------------------
# diff / regression gating
# ---------------------------------------------------------------------


@dataclass
class RunDiff:
    """Outcome of diffing two run records.

    Time-like fields growing beyond ``rtol`` are regressions (as is a
    changed program answer), improvements are the mirror image,
    everything host-dependent or merely informational lands in
    ``notes`` — and two records that are not of the same run
    (:func:`incomparable`) downgrade every delta to informational.
    """

    a_id: str
    b_id: str
    rtol: float
    regressions: list[str] = field(default_factory=list)
    improvements: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    @property
    def empty(self) -> bool:
        return not (self.regressions or self.improvements or self.notes)

    def render(self) -> str:
        lines = [f"run diff: {self.a_id[:ID_ABBREV]} -> "
                 f"{self.b_id[:ID_ABBREV]} "
                 f"(tolerance {self.rtol * 100:.1f}%)"]
        for r in self.regressions:
            lines.append(f"  REGRESSION  {r}")
        for i in self.improvements:
            lines.append(f"  improvement {i}")
        for n in self.notes:
            lines.append(f"  note        {n}")
        if self.empty:
            lines.append("  no differences")
        return "\n".join(lines)


def _rel_delta(a, b) -> float | None:
    if not _is_number(a) or not _is_number(b) or a == 0:
        return None
    return (b - a) / abs(a)


def _metric_key(row: dict) -> tuple:
    return (row.get("kind"), row.get("name"),
            tuple(sorted((str(k), str(v))
                         for k, v in (row.get("labels") or {}).items())))


def _fmt_labels(row: dict) -> str:
    labels = ";".join(f"{k}={v}"
                      for k, v in sorted((row.get("labels") or {}).items()))
    return f"{row['name']}{{{labels}}}" if labels else row["name"]


def incomparable(a: dict, b: dict) -> dict[str, str]:
    """What makes two records describe different runs: for each of the
    ``program`` (content hash included), ``args`` and ``config``
    sections that differs, the section name -> a line saying how (config
    lists the differing keys, added and removed ones included).  Empty
    = the same program on the same arguments under the same config, so
    their deltas can be judged."""
    out: dict[str, str] = {}
    ap, bp = a.get("program"), b.get("program")
    if ap != bp:
        ap, bp = ap or {}, bp or {}
        out["program"] = (
            f"program changed: {ap.get('name')!r} "
            f"{str(ap.get('source_sha256'))[:ID_ABBREV]} -> "
            f"{bp.get('name')!r} "
            f"{str(bp.get('source_sha256'))[:ID_ABBREV]}")
    if a.get("args") != b.get("args"):
        out["args"] = f"args changed: {a.get('args')} -> {b.get('args')}"
    ac, bc = a.get("config", {}), b.get("config", {})
    keys = [k for k in sorted(set(ac) | set(bc)) if ac.get(k) != bc.get(k)]
    if keys:
        out["config"] = "config changed (" + ", ".join(keys) + ")"
    return out


def diff(a: dict, b: dict, rtol: float = 0.02,
         semantic: bool = False) -> RunDiff:
    """Diff two ``pods-run/v1`` records, aligning metric rows by
    (kind, name, labels) and wait rows by (pe, category).

    Gates (unless the records are :func:`incomparable`): the program's
    answer changing is always a regression; ``time_us`` and the
    critical-path length growing beyond ``rtol`` are regressions,
    shrinking beyond it are improvements.  Metric-family and
    wait-category deltas, wall time and what makes the records
    incomparable are reported as notes.

    ``semantic=True`` additionally gates the program's answer and the
    :data:`SEMANTIC_FAMILIES` metric totals *exactly*, even when the
    configs differ — the contract a checkpoint/resume must meet at any
    width (per-label rows shift with the partition; the totals cannot).
    """
    out = RunDiff(a_id=record_id(a), b_id=record_id(b), rtol=rtol)
    different_run = incomparable(a, b)
    if different_run:
        out.notes.extend(different_run.values())
        out.notes.append("not the same run; treating deltas as "
                         "informational")

    ares, bres = a.get("result", {}), b.get("result", {})
    if ares.get("value") != bres.get("value"):
        msg = f"value {ares.get('value')!r} -> {bres.get('value')!r}"
        if different_run and not semantic:
            out.notes.append(msg)
        else:
            out.regressions.append(msg)

    if semantic:
        _semantic_gate(a, b, out)

    for fld, where in (("time_us", "result"),):
        delta = _rel_delta(ares.get(fld), bres.get(fld))
        if delta is None:
            continue
        msg = (f"{fld} {ares[fld]:.1f} -> {bres[fld]:.1f} "
               f"({delta * 100:+.1f}%)")
        if delta > rtol and not different_run:
            out.regressions.append(msg)
        elif delta < -rtol:
            out.improvements.append(msg)

    wall = _rel_delta(ares.get("wall_time_s"), bres.get("wall_time_s"))
    if wall is not None and wall != 0.0:
        out.notes.append(
            f"wall_time_s {ares['wall_time_s']:.3f} -> "
            f"{bres['wall_time_s']:.3f} ({wall * 100:+.1f}%) - "
            "host-dependent, never gates")

    acp, bcp = a.get("critpath"), b.get("critpath")
    if acp and bcp:
        delta = _rel_delta(acp.get("total_us"), bcp.get("total_us"))
        if delta is not None:
            msg = (f"critical path {acp['total_us']:.1f} -> "
                   f"{bcp['total_us']:.1f} ({delta * 100:+.1f}%)")
            if delta > rtol and not different_run:
                out.regressions.append(msg)
            elif delta < -rtol:
                out.improvements.append(msg)
    elif (acp is None) != (bcp is None):
        out.notes.append("critical-path section "
                         + ("appeared" if acp is None else "disappeared"))

    # Wait attribution, aligned by category summed over PEs.
    atot = _wait_totals(a)
    btot = _wait_totals(b)
    for cat in sorted(set(atot) | set(btot)):
        av, bv = atot.get(cat, 0.0), btot.get(cat, 0.0)
        if abs(av - bv) <= max(abs(av), abs(bv)) * rtol:
            continue
        out.notes.append(f"wait[{cat}] {av:.1f}us -> {bv:.1f}us")

    # Metric rows, aligned by (kind, name, labels).
    amet = {_metric_key(r): r for r in a.get("metrics", [])}
    bmet = {_metric_key(r): r for r in b.get("metrics", [])}
    added = [k for k in bmet if k not in amet]
    removed = [k for k in amet if k not in bmet]
    changed = [k for k in amet
               if k in bmet and amet[k].get("value") != bmet[k].get("value")]
    for key in sorted(changed)[:8]:
        out.notes.append(
            f"metric {_fmt_labels(amet[key])}: "
            f"{amet[key].get('value')} -> {bmet[key].get('value')}")
    if len(changed) > 8:
        out.notes.append(f"... {len(changed) - 8} more metric rows "
                         "changed")
    if added:
        out.notes.append(f"{len(added)} metric rows appeared")
    if removed:
        out.notes.append(f"{len(removed)} metric rows disappeared")
    return out


def _semantic_totals(doc: dict) -> dict[str, float] | None:
    """Per-family totals of the semantic metric rows (None = the record
    carries no metrics section at all)."""
    metrics = doc.get("metrics")
    if metrics is None:
        return None
    totals = {fam: 0.0 for fam in SEMANTIC_FAMILIES}
    for row in metrics:
        name = row.get("name")
        if name in totals and _is_number(row.get("value")):
            totals[name] += row["value"]
    return totals


def _semantic_gate(a: dict, b: dict, out: RunDiff) -> None:
    atot, btot = _semantic_totals(a), _semantic_totals(b)
    if atot is None and btot is None:
        out.notes.append("semantic gating requested but neither record "
                         "has a metrics section")
        return
    if atot is None or btot is None:
        out.regressions.append(
            "semantic: metrics section "
            + ("disappeared" if btot is None else "missing from baseline"))
        return
    width_changed = (a.get("config", {}).get("parallelism")
                     != b.get("config", {}).get("parallelism"))
    for fam in SEMANTIC_FAMILIES:
        av, bv = atot[fam], btot[fam]
        if av == bv:
            out.notes.append(f"semantic: {fam} total {av:g} == {bv:g}")
        elif fam in WIDTH_SCALED_FAMILIES and width_changed:
            out.notes.append(
                f"semantic: {fam} total {av:g} -> {bv:g} (scales with "
                "width; informational across a width change)")
        else:
            out.regressions.append(
                f"semantic: {fam} total {av:g} -> {bv:g}")


def _wait_totals(doc: dict) -> dict[str, float]:
    out: dict[str, float] = {}
    for row in doc.get("waits", []) or []:
        cat = row.get("category")
        if isinstance(cat, str) and _is_number(row.get("us")):
            out[cat] = out.get(cat, 0.0) + row["us"]
    return out


# ---------------------------------------------------------------------
# rendering (``pods runs show``)
# ---------------------------------------------------------------------


def render_record(doc: dict) -> str:
    """Human-facing summary of one stored record."""
    lines: list[str] = []
    prog = doc.get("program", {})
    rid = record_id(doc)
    lines.append(f"record {rid[:ID_ABBREV]} ({SCHEMA})")
    name = prog.get("name", "?")
    sha = prog.get("source_sha256")
    lines.append(f"program: {name}" + (f"  source {sha[:12]}" if sha
                                       else ""))
    args = doc.get("args", [])
    if args:
        lines.append("args: " + ", ".join(str(a) for a in args))
    config = doc.get("config", {})
    lines.append(f"backend: {config.get('backend')} x "
                 f"{config.get('parallelism')}")
    skip = {"backend", "parallelism"}
    knobs = [f"{k}={v}" for k, v in sorted(config.items())
             if k not in skip and v is not None]
    if knobs:
        lines.append("config: " + " ".join(knobs))
    result = doc.get("result", {})
    lines.append(f"value: {result.get('value')}")
    if result.get("time_us") is not None:
        lines.append(f"modeled time: {result['time_us'] / 1e6:.6f} s")
    if result.get("wall_time_s") is not None:
        lines.append(f"wall time: {result['wall_time_s']:.3f} s")

    waits = doc.get("waits")
    if waits:
        from repro.obs.profile import blocked_cause_table

        pes = 1 + max(row["pe"] for row in waits)
        breakdown: list[dict[str, float]] = [{} for _ in range(pes)]
        for row in waits:
            breakdown[row["pe"]][row["category"]] = row["us"]
        lines.append("")
        lines.append(blocked_cause_table(breakdown, pes))

    critpath = doc.get("critpath")
    if critpath:
        lines.append("")
        lines.append(f"critical path: {critpath['total_us'] / 1e6:.6f} s")
        for kind, us in critpath.get("contributions", {}).items():
            lines.append(f"  {kind:<18s}{us / 1e6:12.6f} s")
        what_if = critpath.get("what_if", [])
        if what_if:
            lines.append("what-if (zeroing one category's critical-path "
                         "contribution):")
            for row in what_if:
                lines.append(
                    f"  no {row['category']:<18s}-> "
                    f"{row['predicted_us'] / 1e6:.6f} s "
                    f"({row['speedup']:.2f}x)")

    for sec, title in (("recovery", "recovery summary:"),
                       ("net", "network fault/recovery summary:"),
                       ("ckpt", "checkpoint/restore summary:")):
        body = doc.get(sec)
        if body:
            lines.append("")
            lines.append(title)
            for k, v in sorted(body.items()):
                lines.append(f"  {k:<26s}{v}")

    metrics = doc.get("metrics")
    if metrics:
        lines.append("")
        lines.append(f"metrics: {len(metrics)} rows "
                     "(show --openmetrics for the exposition)")
    return "\n".join(lines)
