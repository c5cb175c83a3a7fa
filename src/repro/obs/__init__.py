"""Unified observability: metrics, busy-interval timelines, exporters.

``repro.obs`` is the one instrumentation pipeline shared by the
instruction-level simulator and the real-parallel backend.  Three data
models, all deterministic and all zero-cost when disabled:

* :class:`MetricsRegistry` — labelled counters / gauges / histograms.
  The simulator publishes its per-PE unit statistics into a registry at
  the end of a run; the multiprocessing backend publishes the per-worker
  telemetry into a registry with the same metric names, which is what
  makes cross-backend differential tests a one-liner.
* :class:`SpanLog` — the one record of a simulated run: busy intervals
  per (PE, unit), run and wait segments per SP, and the event trace
  (:mod:`repro.obs.spanlog`).  Figure 8's unit balance and Figure 9's EU
  utilization, the wait breakdown, the critical path and the trace
  exports are all derived from it rather than separately accumulated.
* Exporters (:mod:`repro.obs.export`) — Chrome/Perfetto ``trace_event``
  JSON (one track per PE x unit, SP lifecycle as flow events) and
  OpenMetrics text.

Recording is guarded by :class:`repro.common.config.ObsConfig`; with
everything off the simulator pays one ``is None`` check per event.
"""

from repro.obs.registry import MetricsRegistry, MetricRow
from repro.obs.spanlog import SpanLog
from repro.obs.store import RunStore

__all__ = [
    "MetricsRegistry",
    "MetricRow",
    "RunStore",
    "SpanLog",
]
