"""Tests for the metrics registry, exporters, and the MetricsTracer."""

import json
from collections import Counter

import pytest

from tests.conftest import make_stream
from repro.core import Pattern
from repro.datasets import BurstyConfig, generate_bursty_stream
from repro.obs import (
    DashboardTracer,
    MetricsRegistry,
    MetricsTracer,
    SloSpec,
    TraceKind,
    TraceRecorder,
    populate_from_summary,
    prometheus_text,
)
from repro.simulator import simulate

PATTERN = Pattern.sequence(["A", "B", "C"], window=6.0)


class TestFamilies:
    def test_counter_increments_and_rejects_decrease(self):
        reg = MetricsRegistry()
        counter = reg.counter("requests_total", "requests")
        counter.inc()
        counter.inc(2.5)
        assert counter.labels().value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry()
        gauge = reg.gauge("depth")
        gauge.set(4.0)
        child = gauge.labels()
        child.inc()
        child.dec(2.0)
        assert child.value == 3.0

    def test_labelled_series_are_independent(self):
        reg = MetricsRegistry()
        counter = reg.counter("items_total")
        counter.inc(1, agent=0)
        counter.inc(2, agent=1)
        counter.inc(1, agent=0)
        assert counter.labels(agent=0).value == 2
        assert counter.labels(agent=1).value == 2
        # label order is irrelevant to series identity
        counter.inc(1, agent=0, kind="x")
        counter.inc(1, kind="x", agent=0)
        assert counter.labels(agent=0, kind="x").value == 2

    def test_histogram_buckets_are_cumulative(self):
        reg = MetricsRegistry()
        histogram = reg.histogram("work", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 0.7, 3.0, 20.0):
            histogram.observe(value)
        child = histogram.labels()
        assert child.counts == [2, 3, 3]  # <=1, <=5, <=10
        assert child.count == 4
        assert child.total == pytest.approx(24.2)

    def test_histogram_rejects_unsorted_or_empty_buckets(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", buckets=(5.0, 1.0))
        with pytest.raises(ValueError):
            reg.histogram("worse", buckets=())

    def test_invalid_metric_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name")
        with pytest.raises(ValueError):
            reg.counter("")

    def test_reregistration_returns_same_family(self):
        reg = MetricsRegistry()
        first = reg.counter("hits_total")
        second = reg.counter("hits_total")
        assert first is second

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("value")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("value")


class TestExporters:
    def build_registry(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        reg.counter("events_total", "events seen").inc(5, agent=0)
        reg.gauge("depth", "queue depth").set(2.0, agent=0, channel="ES")
        histogram = reg.histogram("latency", "latency", buckets=(1.0, 10.0))
        histogram.observe(0.5)
        histogram.observe(4.0)
        return reg

    def test_prometheus_text_format(self):
        text = prometheus_text(self.build_registry())
        lines = text.splitlines()
        assert "# HELP events_total events seen" in lines
        assert "# TYPE events_total counter" in lines
        assert 'events_total{agent="0"} 5.0' in lines
        assert 'depth{agent="0",channel="ES"} 2.0' in lines
        assert 'latency_bucket{le="1.0"} 1' in lines
        assert 'latency_bucket{le="10.0"} 2' in lines
        assert 'latency_bucket{le="+Inf"} 2' in lines
        assert "latency_sum 4.5" in lines
        assert "latency_count 2" in lines
        assert text.endswith("\n")

    def test_to_json_is_serialisable_and_complete(self):
        dump = self.build_registry().to_json()
        json.dumps(dump)  # round-trippable
        assert dump["events_total"]["type"] == "counter"
        assert dump["events_total"]["series"][0] == {
            "labels": {"agent": "0"}, "value": 5.0,
        }
        histogram = dump["latency"]["series"][0]
        assert histogram["count"] == 2
        assert histogram["sum"] == pytest.approx(4.5)
        assert histogram["buckets"] == {"1.0": 1, "10.0": 2}


class TestMetricsTracer:
    def test_live_run_populates_registry(self):
        events = make_stream(num_events=300, seed=51)
        tracer = MetricsTracer(strategy="hypersonic")
        result = simulate("hypersonic", PATTERN, events, num_cores=4,
                          tracer=tracer)
        dump = tracer.registry.to_json()
        matches = sum(s["value"]
                      for s in dump["sim_matches_total"]["series"])
        assert matches == result.matches
        busy_total = sum(s["value"]
                         for s in dump["sim_unit_busy_work_total"]["series"])
        assert busy_total == pytest.approx(sum(result.unit_busy))
        assert dump["sim_splitter_routed_total"]["series"]
        # every series carries the strategy label
        for family in dump.values():
            for series in family["series"]:
                assert series["labels"].get("strategy") == "hypersonic"

    def test_chains_to_inner_recorder(self):
        events = make_stream(num_events=200, seed=52)
        inner = TraceRecorder()
        tracer = MetricsTracer(inner=inner)
        result = simulate("hypersonic", PATTERN, events, num_cores=3,
                          tracer=tracer)
        assert len(inner.events) > 0
        # the exporters see the inner recorder's events through the facade
        assert list(tracer.events) == list(inner.events)
        # and the kernel attached the full obs summary from those events
        assert "latency_breakdown" in result.extra["obs"]

    def test_metrics_match_plain_recorder_run(self):
        events = make_stream(num_events=200, seed=53)
        plain = simulate("hypersonic", PATTERN, events, num_cores=3,
                         tracer=TraceRecorder())
        metered = simulate("hypersonic", PATTERN, events, num_cores=3,
                           tracer=MetricsTracer())
        assert metered.matches == plain.matches
        assert metered.total_time == plain.total_time

    def test_dynamics_counter(self):
        pattern = Pattern.sequence(["A", "B", "C", "D"], window=8.0)
        events = make_stream(num_events=400, seed=13)
        tracer = MetricsTracer()
        simulate("hypersonic", pattern, events, num_cores=5,
                 agent_dynamic=True, tracer=tracer)
        dump = tracer.registry.to_json()
        kinds = {s["labels"]["kind"]: s["value"]
                 for s in dump["sim_dynamics_total"]["series"]}
        assert kinds.get("role_switch", 0) > 0
        assert kinds.get("migration", 0) > 0


class TestMetricsTracerAdaptiveSeries:
    def test_series_count_the_recorded_replan_shed_and_slo_events(self):
        pattern = Pattern.sequence(["S0", "S1", "S2"], window=0.5)
        events = list(generate_bursty_stream(BurstyConfig(
            symbols=("S0", "S1", "S2", "S3"), base_rate=40.0,
            num_phases=4, events_per_phase=120, seed=7,
        )))
        reference = simulate("hypersonic", pattern, events, num_cores=4)
        recorder = TraceRecorder()
        tracer = MetricsTracer(inner=recorder)
        simulate(
            "hypersonic", pattern, events, num_cores=4,
            adapt="on", shed_bound=8, shed_policy="pattern",
            pace=1.0 / (1.5 * reference.throughput),
            slos=[SloSpec("p95_latency", bound=40.0, window=30.0),
                  SloSpec("recall", bound=0.95, window=30.0)],
            tracer=tracer,
        )
        dump = tracer.registry.to_json()

        def total(name):
            return sum(s["value"] for s in dump[name]["series"])

        kinds = Counter(event.kind for event in recorder.events)
        assert kinds[TraceKind.REPLAN] and kinds[TraceKind.SHED]
        assert total("sim_replans_total") == kinds[TraceKind.REPLAN]
        assert total("sim_shed_total") == kinds[TraceKind.SHED]
        assert total("sim_slo_windows_total") == kinds[TraceKind.SLO]
        # The burn gauge holds each metric's latest burn exactly as the
        # trace records it (six decimals), so a replay reads the same.
        recorded = {
            event.args["metric"]: event.args["burn"]
            for event in recorder.events if event.kind == TraceKind.SLO
        }
        gauge = {
            s["labels"]["metric"]: s["value"]
            for s in dump["sim_slo_burn_rate"]["series"]
        }
        assert gauge == recorded


class TestConsumerWithoutRecorder:
    """A live consumer with no inner recorder keeps no events, so the run
    carries no obs summary rather than one built from zero events."""

    @pytest.mark.parametrize("make_tracer", [DashboardTracer, MetricsTracer],
                             ids=["dashboard", "metrics"])
    def test_no_obs_summary_from_an_empty_trace(self, make_tracer):
        tracer = make_tracer()
        result = simulate(
            "hypersonic", Pattern.sequence(["A", "B", "C"], window=5.0),
            make_stream(num_events=300, seed=51), num_cores=4, tracer=tracer,
        )
        assert result.matches > 0
        assert "obs" not in result.extra
        assert tracer.events is None

    def test_consumers_still_see_every_event(self):
        board = DashboardTracer()
        metrics = MetricsTracer(inner=board)
        result = simulate("hypersonic", PATTERN,
                          make_stream(num_events=300, seed=51),
                          num_cores=4, tracer=metrics)
        assert board.state.matches == result.matches
        dump = metrics.registry.to_json()
        assert sum(
            s["value"] for s in dump["sim_matches_total"]["series"]
        ) == result.matches


class TestPopulateFromSummary:
    def test_summary_round_trip(self):
        events = make_stream(num_events=300, seed=54)
        result = simulate("hypersonic", PATTERN, events, num_cores=4,
                          tracer=TraceRecorder())
        summary = result.extra["obs"]
        reg = populate_from_summary(MetricsRegistry(), summary,
                                    strategy="hypersonic")
        dump = reg.to_json()
        total_time = dump["sim_total_time"]["series"][0]
        assert total_time["labels"] == {"strategy": "hypersonic"}
        assert total_time["value"] == result.total_time
        matches = dump["sim_matches_total"]["series"][0]["value"]
        assert matches == summary["matches"]["count"]
        busy = {s["labels"]["unit"]: s["value"]
                for s in dump["sim_unit_busy"]["series"]}
        for unit, value in enumerate(result.unit_busy):
            assert busy[str(unit)] == value
        # the export renders without raising
        assert "sim_total_time" in prometheus_text(reg)

    def test_extra_exports_control_shed_and_slo_series(self):
        extra = {
            "control": {
                "epochs": 12,
                "decisions": [
                    {"kind": "migrate"}, {"kind": "shed"}, {"kind": "shed"},
                ],
            },
            "shed": {
                "policy": "pattern",
                "bound": 16,
                "by_type": {"S0": 5, "S1": 2},
            },
            "slo": {
                "specs": [{
                    "spec": {"metric": "p95_latency", "bound": 100.0},
                    "windows_evaluated": 9,
                    "windows_violated": 2,
                    "budget": {"burn_rate": 0.5},
                }],
            },
        }
        reg = populate_from_summary(
            MetricsRegistry(), {"total_time": 1.0},
            strategy="hypersonic", extra=extra,
        )
        dump = reg.to_json()
        assert dump["sim_control_epochs_total"]["series"][0]["value"] == 12
        decisions = {s["labels"]["kind"]: s["value"]
                     for s in dump["sim_control_decisions_total"]["series"]}
        assert decisions == {"migrate": 1, "shed": 2}
        shed = {s["labels"]["type"]: s["value"]
                for s in dump["sim_shed_events_total"]["series"]}
        assert shed == {"S0": 5, "S1": 2}
        assert all(
            s["labels"]["policy"] == "pattern"
            for s in dump["sim_shed_events_total"]["series"]
        )
        assert dump["sim_shed_bound"]["series"][0]["value"] == 16
        slo_series = dump["sim_slo_windows_evaluated_total"]["series"][0]
        assert slo_series["labels"]["metric"] == "p95_latency"
        assert slo_series["value"] == 9
        assert (
            dump["sim_slo_windows_violated_total"]["series"][0]["value"] == 2
        )
        assert dump["sim_slo_burn_rate"]["series"][0]["value"] == 0.5
        text = prometheus_text(reg)
        assert "sim_control_decisions_total" in text
        assert "sim_slo_burn_rate" in text

    def test_without_extra_no_adaptive_series_appear(self):
        reg = populate_from_summary(
            MetricsRegistry(), {"total_time": 1.0}, strategy="hypersonic"
        )
        dump = reg.to_json()
        for name in ("sim_control_epochs_total", "sim_shed_events_total",
                     "sim_slo_burn_rate"):
            assert name not in dump

    def test_multiple_strategies_share_one_registry(self):
        events = make_stream(num_events=200, seed=55)
        reg = MetricsRegistry()
        for strategy in ("sequential", "hypersonic"):
            result = simulate(strategy, PATTERN, events, num_cores=3,
                              tracer=TraceRecorder())
            populate_from_summary(reg, result.extra["obs"], strategy=strategy)
        series = reg.to_json()["sim_total_time"]["series"]
        strategies = {s["labels"]["strategy"] for s in series}
        assert strategies == {"sequential", "hypersonic"}
