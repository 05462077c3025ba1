"""Observability layer: tracing, analysis, metrics, and export.

The simulators accept a :class:`Tracer`; the default :data:`NULL_TRACER`
records nothing and costs one attribute check per hot-path site.  Every
tracer hook builds one typed :class:`TraceEvent` and passes it to
``Tracer.emit``, the one method a trace consumer defines.  A
:class:`TraceRecorder` keeps the events against the virtual clock, which
the exporters render as a Chrome ``trace_event`` JSON file (openable in
Perfetto / ``chrome://tracing``), a JSONL event log, or a
per-agent/per-unit summary table.  The live consumers —
:class:`MetricsTracer` and :class:`DashboardTracer` — receive the same
events and pass each one on to an inner recorder.

On top of the raw trace sit the analysis passes:

* :func:`latency_breakdown` — critical-path attribution: per-agent queue
  wait vs. service time, p50/p95/p99, dominant stage;
* :func:`calibration_report` — cost-model calibration: the Theorem 1-3
  predicted load shares against the observed busy-time shares, with a
  load-imbalance index and a verdict on the allocation;
* :class:`MetricsRegistry` / :class:`MetricsTracer` — counters, gauges,
  and histograms with label support, exportable as JSON or Prometheus
  text exposition (:func:`prometheus_text`);
* :class:`SloEngine` / :func:`slo_report` — declarative service-level
  objectives (:class:`SloSpec`) evaluated online by the simulator over
  fixed windows with error-budget burn accounting, or byte-identically
  from a recorded trace;
* :class:`DriftEstimator` — the live predicted-vs-observed load-share
  signal the runtime control plane re-plans on;
* :func:`audit_report` — decision provenance: reconstructs, from the
  trace alone, the causal chain behind every control-plane
  ``ReplanDecision`` (trigger evidence, decision, before/after effect);
* :mod:`repro.obs.dashboard` — the terminal dashboard:
  :func:`render_frame` is a pure plain-text frame renderer,
  :class:`DashboardTracer` paints it live on the kernel's snapshot
  cadence, and :func:`replay_frames` / :func:`final_frame` reconstruct
  the same frames from a recorded JSONL trace (``repro watch``).
"""

from repro.obs.tracer import NULL_TRACER, TraceEvent, TraceKind, TraceRecorder, Tracer
from repro.obs.export import (
    chrome_trace,
    read_jsonl,
    summarize,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.analysis import latency_breakdown, percentile
from repro.obs.calibration import calibration_report
from repro.obs.drift import DriftEstimator
from repro.obs.slo import (
    DEFAULT_OBJECTIVE,
    SLO_METRICS,
    SloEngine,
    SloSpec,
    slo_report,
)
from repro.obs.audit import audit_report
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsTracer,
    populate_from_summary,
    prometheus_text,
)
from repro.obs.dashboard import (
    Dashboard,
    DashboardState,
    DashboardTracer,
    final_frame,
    render_frame,
    replay_frames,
)

__all__ = [
    "NULL_TRACER",
    "TraceEvent",
    "TraceKind",
    "TraceRecorder",
    "Tracer",
    "chrome_trace",
    "read_jsonl",
    "summarize",
    "write_chrome_trace",
    "write_jsonl",
    "latency_breakdown",
    "percentile",
    "calibration_report",
    "DriftEstimator",
    "DEFAULT_OBJECTIVE",
    "SLO_METRICS",
    "SloEngine",
    "SloSpec",
    "slo_report",
    "audit_report",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsTracer",
    "populate_from_summary",
    "prometheus_text",
    "Dashboard",
    "DashboardState",
    "DashboardTracer",
    "final_frame",
    "render_frame",
    "replay_frames",
]
