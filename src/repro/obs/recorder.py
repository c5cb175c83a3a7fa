"""The simulator-side recording front end of the observability layer.

A :class:`ObsRecorder` is attached to a :class:`repro.sim.machine.Machine`
when any :class:`repro.common.config.ObsConfig` feature is on.  The event
loop feeds it Range-Filter decisions and array page touches, and writes
busy spans and wait states straight into the stores it holds; at the end
of the run it folds everything — including the per-PE unit counters —
into one :class:`MetricsRegistry` whose metric names are shared with the
real-parallel backend (see :func:`repro.runtime.spmd.telemetry_registry`),
so cross-backend differential tests compare registry rows, not bespoke
attributes.
"""

from __future__ import annotations

from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import TimelineStore


class ObsRecorder:
    """Collects spans / RF decisions / page touches during one run."""

    __slots__ = ("timelines", "rf_spans", "pages_touched", "metrics",
                 "waits")

    def __init__(self, num_pes: int, timelines: bool = True,
                 metrics: bool = True, waits: bool = False) -> None:
        # Wait-state attribution needs the EU busy timelines to derive
        # the idle complement, so `waits` implies `timelines`.
        self.timelines = (TimelineStore(num_pes)
                          if (timelines or waits) else None)
        self.metrics = metrics
        self.waits = None
        if waits:
            from repro.obs.waits import WaitStore

            self.waits = WaitStore()
        # (pe, block, first, last, items) -> execution count
        self.rf_spans: dict[tuple, int] = {}
        # array id -> set of page indices with at least one element written
        self.pages_touched: dict[int, set[int]] = {}

    # -- hot-path hooks (machine event loop) ----------------------------

    def rf(self, pe: int, block: str, first: int, last: int,
           items: int) -> None:
        key = (pe, block, first, last, items)
        self.rf_spans[key] = self.rf_spans.get(key, 0) + 1

    def page_touch(self, array_id: int, page: int) -> None:
        pages = self.pages_touched.get(array_id)
        if pages is None:
            pages = self.pages_touched[array_id] = set()
        pages.add(page)

    # -- end-of-run publication -----------------------------------------

    def build_registry(self, pe_stats: list, units: tuple,
                       finish_us: float, net=None,
                       wait_breakdown: list | None = None) -> MetricsRegistry:
        """Fold counters + recorded decisions into one registry.

        Metric names prefixed ``sim.`` are simulator-model quantities;
        the un-prefixed ``rf.*`` / ``array.*`` families are *semantic*
        (they depend only on the program, not on the execution model)
        and are published identically by the parallel backend.

        ``wait_breakdown`` is the run's
        :func:`repro.obs.critpath.pe_wait_breakdown` (``RunStats.
        wait_breakdown``) when waits were recorded; it publishes as the
        ``wait.us`` family.

        ``net`` is the run's :class:`repro.sim.reliable.ReliableNet`
        when the fault-tolerant delivery layer was armed; its counters
        publish as the ``net.*`` family.  Zero-valued counters are
        skipped so a clean reliable run adds only ``net.sent`` and
        ``net.acks`` rows, and a fault-free (layer-off) run adds none —
        keeping registry dumps byte-identical to pre-fault-model runs.
        """
        reg = MetricsRegistry()
        reg.set_gauge("sim.finish_time_us", finish_us)
        for pid, s in enumerate(pe_stats):
            pe = str(pid)
            reg.inc("sim.instructions", s.instructions, pe=pe)
            reg.inc("sim.context_switches", s.context_switches, pe=pe)
            reg.inc("sim.tokens_matched", s.tokens_matched, pe=pe)
            reg.inc("sim.tokens_sent", s.tokens_sent_local, pe=pe,
                    scope="local")
            reg.inc("sim.tokens_sent", s.tokens_sent_remote, pe=pe,
                    scope="remote")
            reg.inc("sim.frames", s.frames_created, pe=pe, op="create")
            reg.inc("sim.frames", s.frames_destroyed, pe=pe, op="destroy")
            reg.inc("sim.cache", s.cache_hits, pe=pe, outcome="hit")
            reg.inc("sim.cache", s.cache_misses, pe=pe, outcome="miss")
            reg.inc("sim.pages_sent", s.pages_sent, pe=pe)
            reg.inc("sim.messages_sent", s.messages_sent, pe=pe)
            reg.inc("sim.bytes_sent", s.bytes_sent, pe=pe)
            reg.inc("array.element_reads", s.array_reads_local, pe=pe,
                    scope="local")
            reg.inc("array.element_reads", s.array_reads_remote, pe=pe,
                    scope="remote")
            # A forwarded remote write lands as a local write at the
            # owner, so the local counter alone is the semantic
            # element-write count (each element written exactly once).
            reg.inc("array.element_writes", s.array_writes_local, pe=pe)
            reg.inc("array.write_forwards", s.array_writes_remote, pe=pe)
            reg.inc("array.deferred_reads",
                    s.deferred_local + s.deferred_remote, pe=pe)
            for unit in units:
                reg.set_gauge("sim.unit_busy_us", s.busy[unit], pe=pe,
                              unit=unit)
                if finish_us > 0:
                    reg.set_gauge("sim.unit_utilization",
                                  s.busy[unit] / finish_us, pe=pe,
                                  unit=unit)
        for (pe, block, first, last, items), count in \
                sorted(self.rf_spans.items()):
            reg.inc("rf.subrange", count, pe=pe, block=block,
                    first=first, last=last)
            reg.inc("rf.items", items * count, pe=pe)
        for aid, pages in sorted(self.pages_touched.items()):
            reg.set_gauge("array.pages_touched", len(pages), array=aid)
        if wait_breakdown is not None:
            # `wait.us` is the shared cross-backend family: the parallel
            # executor publishes its deferred-read spin time under the
            # same name (cause="istructure-defer").
            for pid, per_cause in enumerate(wait_breakdown):
                for cause, us in sorted(per_cause.items()):
                    reg.set_gauge("wait.us", us, pe=str(pid), cause=cause)
        if net is not None:
            # Rows are named for the counter, except that ``acks_sent``
            # has always been published as ``net.acks``.
            for name, value in net.stats.counters().items():
                if value:
                    reg.inc("net.acks" if name == "acks_sent"
                            else f"net.{name}", value)
        return reg
