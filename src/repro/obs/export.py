"""Exporters: Perfetto ``trace_event`` JSON and OpenMetrics text.

The Perfetto exporter emits the classic Chrome trace_event format
(https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
loadable in ``ui.perfetto.dev`` or ``chrome://tracing``.  A ``sim``
run's trace is a view of its span log (:mod:`repro.obs.spanlog`):

* one *process* per PE, one *thread* (track) per PE x unit, named via
  ``M`` metadata events;
* every busy interval of a unit as a complete ``X`` event on its track;
* SP lifecycle as async ``b``/``e`` spans on a per-PE "SP" track plus
  ``s``/``f`` flow events keyed by frame uid — Perfetto draws the arrow
  from each SP's creation to its termination;
* other trace events (token matches, messages, blocks) as instants.

Output is deterministic: identical runs produce byte-identical JSON, so
exports are directly diffable and usable as golden fixtures.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.sim.stats import UNITS

SP_TRACK = len(UNITS)  # tid of the per-PE SP-lifecycle track
WAIT_TRACK = SP_TRACK + 1  # tid of the per-PE wait-state track
NET_TRACK = WAIT_TRACK + 1  # tid of the per-PE reliable-delivery track
_UNIT_TID = {unit: tid for tid, unit in enumerate(UNITS)}


def filter_events(events: Iterable, pe: int | None = None,
                  since_us: float = 0.0, kind: str | None = None) -> list:
    """Shared ``--pe`` / ``--since-us`` / ``--kind`` event filtering."""
    out = []
    for e in events:
        if pe is not None and e.pe != pe:
            continue
        if e.time_us < since_us:
            continue
        if kind is not None and e.kind != kind:
            continue
        out.append(e)
    return out


def perfetto_trace(log, finish_us: float = 0.0, pe: int | None = None,
                   since_us: float = 0.0, netspans: Iterable = ()) -> dict:
    """Build the trace_event JSON object of a run's span log (see the
    module docstring).

    When the log recorded wait states, each PE additionally gets a
    "WAIT" track of complete events — the attributed idle intervals up
    to the makespan ``finish_us`` (:func:`repro.obs.critpath.
    pe_wait_intervals`), named by cause category.

    ``netspans`` takes the reliable-delivery layer's retransmit spans
    (``RunStats.netstats.spans`` — tuples of ``(pe, start_us, end_us,
    label)``); PEs that retransmitted anything get a "NET" track showing
    each healing re-send in flight.
    """
    pes = [pe] if pe is not None else list(range(log.num_pes))
    waits = log.sps is not None
    netspans = [s for s in netspans
                if pe is None or s[0] == pe]
    net_pids = {s[0] for s in netspans}
    out: list[dict] = []
    for pid in pes:
        out.append({"ph": "M", "name": "process_name", "pid": pid,
                    "tid": 0, "args": {"name": f"PE{pid}"}})
        for unit, tid in _UNIT_TID.items():
            out.append({"ph": "M", "name": "thread_name", "pid": pid,
                        "tid": tid, "args": {"name": f"PE{pid} {unit}"}})
        out.append({"ph": "M", "name": "thread_name", "pid": pid,
                    "tid": SP_TRACK, "args": {"name": f"PE{pid} SP"}})
        if waits:
            out.append({"ph": "M", "name": "thread_name", "pid": pid,
                        "tid": WAIT_TRACK,
                        "args": {"name": f"PE{pid} WAIT"}})
        if pid in net_pids:
            out.append({"ph": "M", "name": "thread_name", "pid": pid,
                        "tid": NET_TRACK,
                        "args": {"name": f"PE{pid} NET"}})

    for src, start, end, label in netspans:
        if end < since_us:
            continue
        out.append({"ph": "X", "name": label, "cat": "net",
                    "pid": src, "tid": NET_TRACK, "ts": start,
                    "dur": end - start})

    if waits:
        from repro.obs.critpath import pe_wait_intervals

        for pid in pes:
            for start, end, cat in pe_wait_intervals(log, pid, finish_us):
                if end < since_us:
                    continue
                out.append({"ph": "X", "name": cat, "cat": "wait",
                            "pid": pid, "tid": WAIT_TRACK, "ts": start,
                            "dur": end - start})

    for pid, unit, line in log.busy_lines():
        if pe is not None and pid != pe:
            continue
        tid = _UNIT_TID.get(unit, SP_TRACK)
        for start, end in zip(line.starts, line.ends):
            if end < since_us:
                continue
            out.append({"ph": "X", "name": unit, "cat": "unit",
                        "pid": pid, "tid": tid, "ts": start,
                        "dur": end - start})

    for e in filter_events(log.events or (), pe=pe, since_us=since_us):
        base = {"pid": e.pe, "ts": e.time_us}
        if e.kind == "frame-create" and e.sp is not None:
            out.append({**base, "ph": "b", "cat": "sp", "id": e.sp,
                        "tid": SP_TRACK, "name": f"SP {e.detail}"})
            out.append({**base, "ph": "s", "cat": "sp-flow", "id": e.sp,
                        "tid": SP_TRACK, "name": "sp-life"})
        elif e.kind == "frame-end" and e.sp is not None:
            out.append({**base, "ph": "e", "cat": "sp", "id": e.sp,
                        "tid": SP_TRACK, "name": f"SP {e.detail}"})
            out.append({**base, "ph": "f", "bp": "e", "cat": "sp-flow",
                        "id": e.sp, "tid": SP_TRACK, "name": "sp-life"})
        else:
            tid = _UNIT_TID.get(e.unit, SP_TRACK)
            out.append({**base, "ph": "i", "s": "t", "cat": "event",
                        "tid": tid, "name": e.kind,
                        "args": {"detail": e.detail}})
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def perfetto_json(log, finish_us: float = 0.0, pe: int | None = None,
                  since_us: float = 0.0, netspans: Iterable = ()) -> str:
    """Deterministic (byte-stable) JSON encoding of the trace."""
    return json.dumps(
        perfetto_trace(log, finish_us, pe=pe, since_us=since_us,
                       netspans=netspans),
        sort_keys=True, separators=(",", ":"))


# -- real-parallel backend traces ---------------------------------------

RECOVERY_TRACK = 1  # tid of the per-worker recovery track


def parallel_trace(result) -> dict:
    """trace_event JSON for a ``parallel`` run's
    :class:`repro.backend.BackendResult` (or its ``SpmdResult``).

    One process per worker slot; each gets an "exec" track holding the
    final (successful) generation's wall-time span, and — when the run
    healed anything — a "RECOVERY" track with backoff waits as complete
    spans and failures/respawns/takeovers/stalls as instants, so a
    crash -> backoff -> replay sequence reads left-to-right in Perfetto
    exactly as the supervisor saw it.
    """
    out: list[dict] = []
    rec_events = list(result.recovery.events)
    rec_pids = {e.worker for e in rec_events}
    for t in result.worker_stats:
        pid = t.worker
        out.append({"ph": "M", "name": "process_name", "pid": pid,
                    "tid": 0, "args": {"name": f"worker{pid}"}})
        out.append({"ph": "M", "name": "thread_name", "pid": pid,
                    "tid": 0, "args": {"name": f"worker{pid} exec"}})
        if pid in rec_pids:
            out.append({"ph": "M", "name": "thread_name", "pid": pid,
                        "tid": RECOVERY_TRACK,
                        "args": {"name": f"worker{pid} RECOVERY"}})
        out.append({"ph": "X", "name": "exec", "cat": "exec", "pid": pid,
                    "tid": 0, "ts": 0.0, "dur": t.wall_time_s * 1e6,
                    "args": {"shared_writes": t.shared_writes,
                             "deferred_reads": t.deferred_reads,
                             "replayed_present": t.replayed_present}})
    for e in rec_events:
        base = {"pid": e.worker, "tid": RECOVERY_TRACK, "ts": e.t_s * 1e6,
                "cat": "recovery",
                "args": {"generation": e.generation, "detail": e.detail}}
        if e.dur_s > 0:
            out.append({**base, "ph": "X", "name": f"{e.kind} backoff",
                        "dur": e.dur_s * 1e6})
        else:
            out.append({**base, "ph": "i", "s": "p", "name": e.kind})
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def parallel_trace_json(result) -> str:
    """Deterministic (byte-stable) JSON encoding of the parallel trace."""
    return json.dumps(parallel_trace(result), sort_keys=True,
                      separators=(",", ":"))


# -- validation (used by tests and the CI smoke job) --------------------

_PH_NEEDS_ID = frozenset("besf")


def validate_trace_events(obj) -> list[str]:
    """Structural check against the trace_event format.

    Returns a list of problems; an empty list means the object is a
    well-formed trace both Perfetto and chrome://tracing will load.
    """
    problems: list[str] = []
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        return ["top level must be an object with a 'traceEvents' array"]
    events = obj["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' must be an array"]
    open_flows: set = set()
    for i, e in enumerate(events):
        where = f"event {i}"
        if not isinstance(e, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = e.get("ph")
        if not isinstance(ph, str) or len(ph) != 1:
            problems.append(f"{where}: missing/bad 'ph'")
            continue
        for key in ("pid", "tid"):
            if not isinstance(e.get(key), int):
                problems.append(f"{where}: missing/bad '{key}'")
        if not isinstance(e.get("name"), str):
            problems.append(f"{where}: missing/bad 'name'")
        if ph == "M":
            if e.get("name") not in ("process_name", "thread_name",
                                     "process_sort_index",
                                     "thread_sort_index"):
                problems.append(f"{where}: unknown metadata {e.get('name')!r}")
            continue
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: missing/bad 'ts'")
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: 'X' event needs dur >= 0")
        elif ph in _PH_NEEDS_ID:
            if "id" not in e:
                problems.append(f"{where}: '{ph}' event needs an 'id'")
            elif e.get("cat") == "sp-flow":
                fid = e["id"]
                if ph == "s":
                    open_flows.add(fid)
                elif ph == "f" and fid not in open_flows:
                    problems.append(
                        f"{where}: flow finish id={fid} without a start")
        elif ph not in ("i", "I", "B", "E", "C", "t"):
            problems.append(f"{where}: unsupported ph {ph!r}")
    return problems


# -- OpenMetrics text ---------------------------------------------------

def openmetrics_from_rows(rows, prefix: str = "pods") -> str:
    """OpenMetrics exposition of *stored* metric rows (a ``pods-run/v1``
    record's ``metrics`` section).

    Counters and gauges expose exactly as from a live registry; stored
    histogram rows carry only their summary moments, so they expose as
    ``_count``/``_sum`` without per-bucket series.  Rows are re-sorted
    into the registry's deterministic (kind, name, labels) order, so a
    record deposited from a live registry and re-exposed from the store
    agree line for line on every non-bucket sample.  A row of another
    kind, or a histogram without its summary, is left out.
    """
    from repro.obs.registry import _labelkey, openmetrics

    entries = sorted(
        ((row.get("kind"), row.get("name", ""),
          _labelkey(row.get("labels") or {}), row.get("value"))
         for row in rows
         if row.get("kind") in ("counter", "gauge")
         or (row.get("kind") == "histogram"
             and isinstance(row.get("value"), dict))),
        key=lambda entry: entry[:3])
    return openmetrics(entries, prefix)
