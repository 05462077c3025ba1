"""Metrics registry: counters, gauges, histograms with label support.

A light-weight, dependency-free metrics facility in the spirit of the
Prometheus client model:

* :class:`MetricsRegistry` owns named metric families;
* :class:`Counter` / :class:`Gauge` / :class:`Histogram` are families;
  ``family.labels(agent=0)`` returns the child series for one label set;
* :func:`prometheus_text` renders the whole registry in the Prometheus
  text exposition format; :meth:`MetricsRegistry.to_json` gives the same
  data as a JSON-serialisable dict.

Two population paths exist:

* :class:`MetricsTracer` — a :class:`~repro.obs.tracer.Tracer` whose
  ``emit`` updates a registry live from each trace event the simulator
  emits, then passes the same event on to an inner tracer, so metrics
  and a full trace come from one run;
* :func:`populate_from_summary` — fills a registry from an existing
  ``SimResult.extra["obs"]`` summary, for post-hoc export.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.obs.tracer import NULL_TRACER, TraceEvent, TraceKind, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsTracer",
    "populate_from_summary",
    "prometheus_text",
]

#: Default histogram bucket bounds (virtual work units / latency units).
DEFAULT_BUCKETS = (0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0)


def _label_key(labels: Mapping[str, object]) -> tuple[tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in key)
    return "{" + inner + "}"


class _Family:
    """Shared family machinery: name, help text, labelled children."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str = "") -> None:
        if not name or not name.replace("_", "a").isalnum():
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help_text = help_text
        self._children: dict[tuple[tuple[str, str], ...], object] = {}

    def labels(self, **labels: object):
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def _make_child(self):  # pragma: no cover - overridden
        raise NotImplementedError

    def _default_child(self):
        return self.labels()

    def series(self) -> "Iterable[tuple[tuple[tuple[str, str], ...], object]]":
        return sorted(self._children.items())


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount


class Counter(_Family):
    """Monotonically increasing count (events routed, matches, ...)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0, **labels: object) -> None:
        self.labels(**labels).inc(amount)


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Gauge(_Family):
    """Point-in-time value (queue depth, busy fraction, ...)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float, **labels: object) -> None:
        self.labels(**labels).set(value)


class _HistogramChild:
    __slots__ = ("buckets", "counts", "count", "total")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        self.counts = [0] * len(buckets)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1


class Histogram(_Family):
    """Cumulative-bucket histogram (span durations, latencies, ...)."""

    kind = "histogram"

    def __init__(self, name: str, help_text: str = "",
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, help_text)
        if list(buckets) != sorted(buckets) or not buckets:
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.buckets = tuple(float(bound) for bound in buckets)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float, **labels: object) -> None:
        self.labels(**labels).observe(value)


class MetricsRegistry:
    """Named collection of metric families."""

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}

    def _register(self, family: _Family) -> _Family:
        existing = self._families.get(family.name)
        if existing is not None:
            if type(existing) is not type(family):
                raise ValueError(
                    f"metric {family.name!r} already registered as "
                    f"{existing.kind}"
                )
            return existing
        self._families[family.name] = family
        return family

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._register(Counter(name, help_text))  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._register(Gauge(name, help_text))  # type: ignore[return-value]

    def histogram(self, name: str, help_text: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._register(Histogram(name, help_text, buckets))  # type: ignore[return-value]

    def families(self) -> list[_Family]:
        return [self._families[name] for name in sorted(self._families)]

    def to_json(self) -> dict:
        """JSON-serialisable dump of every series in the registry."""
        out: dict = {}
        for family in self.families():
            series = []
            for key, child in family.series():
                labels = {name: value for name, value in key}
                if isinstance(child, _HistogramChild):
                    series.append({
                        "labels": labels,
                        "count": child.count,
                        "sum": child.total,
                        "buckets": {
                            str(bound): count
                            for bound, count in zip(child.buckets, child.counts)
                        },
                    })
                else:
                    series.append({"labels": labels, "value": child.value})
            out[family.name] = {
                "type": family.kind,
                "help": family.help_text,
                "series": series,
            }
        return out


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render *registry* in the Prometheus text exposition format."""
    lines: list[str] = []
    for family in registry.families():
        if family.help_text:
            lines.append(f"# HELP {family.name} {family.help_text}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for key, child in family.series():
            if isinstance(child, _HistogramChild):
                # Bucket counts are already cumulative (every value
                # increments all buckets whose bound it fits under).
                for bound, count in zip(child.buckets, child.counts):
                    bucket_key = key + (("le", repr(bound)),)
                    lines.append(
                        f"{family.name}_bucket{_format_labels(bucket_key)} "
                        f"{count}"
                    )
                inf_key = key + (("le", "+Inf"),)
                lines.append(
                    f"{family.name}_bucket{_format_labels(inf_key)} "
                    f"{child.count}"
                )
                lines.append(
                    f"{family.name}_sum{_format_labels(key)} {child.total}"
                )
                lines.append(
                    f"{family.name}_count{_format_labels(key)} {child.count}"
                )
            else:
                lines.append(
                    f"{family.name}{_format_labels(key)} {child.value}"
                )
    return "\n".join(lines) + "\n"


class MetricsTracer(Tracer):
    """Tracer updating a :class:`MetricsRegistry` as events arrive.

    Each emitted event updates the registry and then goes on to *inner*
    (e.g. a :class:`~repro.obs.tracer.TraceRecorder`), so one run can feed
    both the registry and a full trace.  The simulators treat a
    ``MetricsTracer`` exactly like any recording tracer; attach one via
    the ``tracer=`` keyword of :func:`repro.simulator.simulate`.
    """

    enabled = True

    def __init__(self, registry: MetricsRegistry | None = None,
                 inner: Tracer | None = None,
                 strategy: str = "") -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.inner = inner if inner is not None else NULL_TRACER
        self._strategy = strategy
        reg = self.registry
        self._busy = reg.histogram(
            "sim_unit_busy_work", "UNIT_BUSY span durations (virtual work)"
        )
        self._busy_total = reg.counter(
            "sim_unit_busy_work_total", "total busy work per agent"
        )
        self._items = reg.counter(
            "sim_items_total", "work items processed per agent and kind"
        )
        self._depth = reg.gauge(
            "sim_queue_depth", "last sampled channel depth per agent"
        )
        self._routed = reg.counter(
            "sim_splitter_routed_total", "events fanned out by the splitter"
        )
        self._dropped = reg.counter(
            "sim_splitter_dropped_total", "foreign-type events dropped"
        )
        self._matches = reg.counter("sim_matches_total", "full matches emitted")
        self._latency = reg.histogram(
            "sim_match_latency", "detection latency of emitted matches"
        )
        self._dynamics = reg.counter(
            "sim_dynamics_total", "role switches and migrations"
        )
        self._replans = reg.counter(
            "sim_replans_total", "control-plane epoch decisions applied"
        )
        self._shed = reg.counter(
            "sim_shed_total", "events shed by the splitter under overload"
        )
        self._slo_windows = reg.counter(
            "sim_slo_windows_total", "closed SLO evaluation windows by verdict"
        )
        self._slo_burn = reg.gauge(
            "sim_slo_burn_rate", "error-budget burn rate per SLO metric"
        )

    def _labels(self, **labels: object) -> dict:
        if self._strategy:
            labels["strategy"] = self._strategy
        return labels

    # -- tracer interface ------------------------------------------------ #

    def emit(self, event: TraceEvent) -> None:
        kind = event.kind
        args = event.args
        if kind == TraceKind.UNIT_BUSY:
            agent = event.agent
            self._busy.observe(event.dur, **self._labels(agent=agent))
            self._busy_total.inc(event.dur, **self._labels(agent=agent))
            self._items.inc(1, **self._labels(agent=agent, item=args["item"]))
        elif kind == TraceKind.QUEUE_DEPTH:
            self._depth.set(args["depth"], **self._labels(
                agent=event.agent, channel=args["channel"],
            ))
        elif kind == TraceKind.SPLITTER_ROUTE:
            self._routed.inc(1, **self._labels(type=args["type"]))
        elif kind == TraceKind.SPLITTER_DROP:
            self._dropped.inc(1, **self._labels(type=args["type"]))
        elif kind in (TraceKind.ROLE_SWITCH, TraceKind.MIGRATION):
            self._dynamics.inc(1, **self._labels(kind=kind))
        elif kind == TraceKind.MATCH:
            agent = event.agent
            self._matches.inc(1, **self._labels(agent=agent))
            latency = args.get("latency")
            if latency is not None:
                self._latency.observe(latency, **self._labels(agent=agent))
        elif kind == TraceKind.REPLAN:
            self._replans.inc(1, **self._labels(decision=args["decision"]))
        elif kind == TraceKind.SHED:
            self._shed.inc(1, **self._labels(
                type=args["type"], policy=args["policy"],
            ))
        elif kind == TraceKind.SLO:
            metric = args["metric"]
            self._slo_windows.inc(1, **self._labels(
                metric=metric, ok=str(args["ok"]).lower(),
            ))
            self._slo_burn.set(args["burn"], **self._labels(metric=metric))
        self.inner.emit(event)

    def frame_tick(self, ts) -> None:
        self.inner.frame_tick(ts)

    # TraceRecorder compatibility: exporters accept any object exposing
    # ``events`` — the inner recorder's list, or ``None`` when nothing
    # records.
    @property
    def events(self):
        return self.inner.events


def populate_from_summary(registry: MetricsRegistry, summary: Mapping,
                          strategy: str = "",
                          extra: Mapping | None = None) -> MetricsRegistry:
    """Fill *registry* from a ``SimResult.extra["obs"]`` summary dict.

    Pass the whole ``SimResult.extra`` as *extra* to additionally export
    the adaptive-runtime sections that live beside the obs summary:
    ``extra["control"]`` (epochs, decisions by kind), ``extra["shed"]``
    (shed totals by type, the configured bound), and ``extra["slo"]``
    (windows evaluated/violated and burn rate per objective).
    """
    base = {"strategy": strategy} if strategy else {}
    total_time = registry.gauge(
        "sim_total_time", "virtual duration of the run"
    )
    total_time.set(summary.get("total_time", 0.0), **base)
    counts = registry.counter(
        "sim_trace_events_total", "trace events recorded, by kind"
    )
    for kind, count in summary.get("counts", {}).items():
        counts.inc(count, kind=kind, **base)
    busy = registry.gauge("sim_unit_busy", "busy time per execution unit")
    fraction = registry.gauge(
        "sim_unit_busy_fraction", "busy fraction per execution unit"
    )
    for unit, row in summary.get("units", {}).items():
        busy.set(row.get("busy", 0.0), unit=unit, **base)
        fraction.set(row.get("busy_fraction", 0.0), unit=unit, **base)
    depth = registry.gauge(
        "sim_queue_mean_depth", "mean sampled channel depth"
    )
    for agent, row in summary.get("agents", {}).items():
        for channel, stats in row.get("channels", {}).items():
            depth.set(
                stats.get("mean_depth", 0.0),
                agent=agent, channel=channel, **base,
            )
    splitter = summary.get("splitter", {})
    routed = registry.counter(
        "sim_splitter_routed_total", "events fanned out by the splitter"
    )
    routed.inc(splitter.get("routed", 0), **base)
    dropped = registry.counter(
        "sim_splitter_dropped_total", "foreign-type events dropped"
    )
    dropped.inc(splitter.get("dropped", 0), **base)
    matches = summary.get("matches", {})
    match_counter = registry.counter(
        "sim_matches_total", "full matches emitted"
    )
    match_counter.inc(matches.get("count", 0), **base)
    mean_latency = registry.gauge(
        "sim_match_mean_latency", "mean detection latency"
    )
    mean_latency.set(matches.get("mean_latency", 0.0), **base)

    if extra:
        control = extra.get("control")
        if control:
            epochs = registry.counter(
                "sim_control_epochs_total", "control-plane epochs evaluated"
            )
            epochs.inc(control.get("epochs", 0), **base)
            decisions = registry.counter(
                "sim_control_decisions_total",
                "control-plane decisions emitted, by kind",
            )
            for decision in control.get("decisions", []):
                decisions.inc(1, kind=decision.get("kind", "?"), **base)
        shed = extra.get("shed")
        if shed:
            shed_counter = registry.counter(
                "sim_shed_events_total",
                "events shed by the splitter, by type",
            )
            policy = shed.get("policy", "")
            for name, count in shed.get("by_type", {}).items():
                shed_counter.inc(count, type=name, policy=policy, **base)
            shed_bound = registry.gauge(
                "sim_shed_bound", "configured shedding backlog bound"
            )
            shed_bound.set(shed.get("bound", 0), **base)
        slo = extra.get("slo")
        if slo:
            windows = registry.counter(
                "sim_slo_windows_evaluated_total",
                "SLO windows evaluated per objective",
            )
            violated = registry.counter(
                "sim_slo_windows_violated_total",
                "SLO windows violated per objective",
            )
            burn = registry.gauge(
                "sim_slo_burn_rate", "error-budget burn rate per SLO metric"
            )
            for row in slo.get("specs", []):
                metric = row.get("spec", {}).get("metric", "?")
                windows.inc(row.get("windows_evaluated", 0),
                            metric=metric, **base)
                violated.inc(row.get("windows_violated", 0),
                             metric=metric, **base)
                burn.set(row.get("budget", {}).get("burn_rate", 0.0),
                         metric=metric, **base)
    return registry
