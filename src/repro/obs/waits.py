"""Wait-state attribution: per-SP run/wait segments with cause tags.

PR 2's busy timelines record when a unit is *busy*; this store records
why an SP is *not running* — the question behind the paper's bending
speed-up curves (Figures 10-12).  Every SP's lifetime is decomposed into
alternating segments:

* ``run`` — the Execution Unit is executing the SP (context-switch cost
  included);
* a *wait* tagged with one of :data:`WAIT_CATEGORIES`:

  - ``token-wait`` — blocked on an operand produced by another SP
    (match or direct token);
  - ``istructure-defer`` — blocked on an I-structure element that had
    not been written yet (a true dataflow dependency), local or via a
    deferred remote read;
  - ``remote-read`` — blocked on a split-phase remote read of a
    *present* element (pure communication round trip), or the whole-PE
    stall of the blocking-read ablation;
  - ``net-queue`` — waiting on unit/network queue service: local Array
    Manager reads and allocates, the allocate-broadcast header
    installation, result-token delivery;
  - ``sched-queue`` — ready but waiting for the Execution Unit (ready
    queue, or the k-bounded spawn-budget stall).

The simulator event loop creates one :class:`SpRecord` per SP and drives
it directly (zero-cost when :class:`repro.common.config.ObsConfig` has
``waits`` off); :mod:`repro.obs.critpath` derives the per-PE
blocked-time breakdown and the critical path from the recorded segments.
"""

from __future__ import annotations

WAIT_CATEGORIES = ("token-wait", "istructure-defer", "remote-read",
                   "net-queue", "sched-queue")
RUN = "run"
IDLE = "idle"

# Attribution priority for concurrent waits (most causal first): a PE
# idle while one SP awaits a missing element and another merely sits in
# the ready queue is blocked *by the dependency*, not by scheduling.
CATEGORY_PRIORITY = ("istructure-defer", "remote-read", "token-wait",
                     "net-queue", "sched-queue")

_EPS = 1e-9

# Internal open-segment states.
_OPEN_RUN = 0
_OPEN_SCHED = 1
_OPEN_BLOCKED = 2


class SpRecord:
    """One SP's lifetime as (start, end, kind, resolver) segments.

    ``kind`` is ``"run"`` or a wait category; ``resolver`` is the uid of
    the SP whose action ended a wait (the token/budget producer or the
    element writer), when known — the dependency edge the critical-path
    walk follows.
    """

    __slots__ = ("uid", "name", "pe", "created_at", "ended_at", "parent",
                 "segments", "_open_kind", "_open_start")

    def __init__(self, uid: int, name: str, pe: int, created_at: float,
                 parent: int | None) -> None:
        self.uid = uid
        self.name = name
        self.pe = pe
        self.created_at = created_at
        self.ended_at: float | None = None
        self.parent = parent
        self.segments: list[tuple[float, float, str, int | None]] = []
        # A new SP is ready-queued immediately: its first segment is a
        # sched-queue wait until the EU picks it up.
        self._open_kind: int | None = _OPEN_SCHED
        self._open_start = created_at

    def _close(self, end: float, kind: str, resolver: int | None) -> None:
        start = self._open_start
        self._open_kind = None
        if end <= start + _EPS:
            return
        if self.segments:
            ps, pe_, pk, pr = self.segments[-1]
            if pk == kind and pr == resolver and start - pe_ <= _EPS:
                self.segments[-1] = (ps, end, pk, pr)
                return
        self.segments.append((start, end, kind, resolver))

    # -- event-loop hooks ------------------------------------------------

    def run_begin(self, t: float) -> None:
        if self._open_kind == _OPEN_RUN:
            return
        if self._open_kind == _OPEN_SCHED:
            self._close(t, "sched-queue", None)
        elif self._open_kind == _OPEN_BLOCKED:
            # Scheduled without an observed wake (defensive).
            self._close(t, "sched-queue", None)
        self._open_kind = _OPEN_RUN
        self._open_start = t

    def run_end(self, t: float) -> None:
        if self._open_kind == _OPEN_RUN:
            self._close(t, RUN, None)

    def block(self, t: float) -> None:
        if self._open_kind == _OPEN_RUN:
            self._close(t, RUN, None)
        self._open_kind = _OPEN_BLOCKED
        self._open_start = t

    def wake(self, t: float, cause: str, resolver: int | None) -> None:
        if self._open_kind != _OPEN_BLOCKED:
            return
        self._close(max(t, self._open_start), cause, resolver)
        self._open_kind = _OPEN_SCHED
        self._open_start = max(t, self._open_start)

    def end(self, t: float) -> None:
        if self._open_kind == _OPEN_RUN:
            self._close(t, RUN, None)
        self._open_kind = None
        self.ended_at = t

    # -- queries ---------------------------------------------------------

    def run_us(self) -> float:
        return sum(e - s for s, e, k, _ in self.segments if k == RUN)

    def wait_us(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s, e, k, _ in self.segments:
            if k != RUN:
                out[k] = out.get(k, 0.0) + (e - s)
        return out


class WaitStore:
    """All SP wait/run segments of one run, plus PE-level stalls."""

    def __init__(self) -> None:
        self.sps: dict[int, SpRecord] = {}
        # Blocking-read-mode whole-PE stalls: pe -> [(start, end)].
        self.pe_stalls: dict[int, list[tuple[float, float]]] = {}
        self._open_stall: dict[int, float] = {}
        self.result_at: float | None = None
        self.result_src: int | None = None

    # -- hooks (called by the machine event loop) ------------------------
    #
    # An SP's record is created here; the machine then drives it directly
    # through ``sps[uid]`` (SpRecord.run_begin / run_end / block / wake /
    # end) — every simulated frame has one.

    def sp_create(self, pe: int, uid: int, t: float,
                  parent: int | None, name: str) -> None:
        self.sps[uid] = SpRecord(uid, name, pe, t, parent)

    def pe_stall_begin(self, pe: int, t: float) -> None:
        self._open_stall[pe] = t

    def pe_stall_end(self, pe: int, t: float) -> None:
        start = self._open_stall.pop(pe, None)
        if start is not None and t > start:
            self.pe_stalls.setdefault(pe, []).append((start, t))

    def result(self, t: float, src: int | None) -> None:
        self.result_at = t
        self.result_src = src

    # -- queries ---------------------------------------------------------

    def records(self) -> list[SpRecord]:
        """Deterministic (uid-ordered) SP records."""
        return [self.sps[uid] for uid in sorted(self.sps)]

    def wait_spans_by_pe(self) -> dict[int, list[tuple[float, float, str]]]:
        """Every wait span of every SP plus the PE-level stalls, as
        (start, end, category) grouped by PE in one pass over the
        records; per PE unsorted and possibly overlapping."""
        out: dict[int, list[tuple[float, float, str]]] = {}
        for rec in self.records():
            spans = out.setdefault(rec.pe, [])
            for s, e, kind, _ in rec.segments:
                if kind != RUN:
                    spans.append((s, e, kind))
        for pe, stalls in self.pe_stalls.items():
            out.setdefault(pe, []).extend(
                (s, e, "remote-read") for s, e in stalls)
        return out

    def pe_wait_spans(self, pe: int) -> list[tuple[float, float, str]]:
        """The :meth:`wait_spans_by_pe` entry of one PE."""
        return self.wait_spans_by_pe().get(pe, [])

    def final_sp(self) -> int | None:
        """The SP the backward walk starts from: the result's producer,
        falling back to the last SP to terminate."""
        if self.result_src is not None and self.result_src in self.sps:
            return self.result_src
        best, best_t = None, -1.0
        for rec in self.records():
            t = rec.ended_at
            if t is not None and t > best_t:
                best, best_t = rec.uid, t
        return best
