"""SLO specs, windowed evaluation, burn accounting, live==replay parity."""

import json

import pytest

from repro.datasets import BurstyConfig, generate_bursty_stream
from repro.obs import (
    DEFAULT_OBJECTIVE,
    NULL_TRACER,
    SLO_METRICS,
    SloEngine,
    SloSpec,
    slo_report,
)
from repro.obs.tracer import TraceKind, TraceRecorder
from repro.simulator import simulate
from repro.workloads import stock_sequence_query


class TestSloSpec:
    def test_defaults(self):
        spec = SloSpec("p95_latency", bound=5.0, window=1.0)
        assert spec.objective == DEFAULT_OBJECTIVE
        assert spec.as_dict() == {
            "metric": "p95_latency",
            "bound": 5.0,
            "window": 1.0,
            "objective": DEFAULT_OBJECTIVE,
        }

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown SLO metric"):
            SloSpec("p99_latency", bound=5.0, window=1.0)

    @pytest.mark.parametrize("window", [0.0, -1.0])
    def test_non_positive_window_rejected(self, window):
        with pytest.raises(ValueError, match="window must be > 0"):
            SloSpec("recall", bound=0.9, window=window)

    @pytest.mark.parametrize("objective", [0.0, 1.0, 1.5, -0.1])
    def test_objective_outside_open_interval_rejected(self, objective):
        with pytest.raises(ValueError, match="objective"):
            SloSpec("recall", bound=0.9, window=1.0, objective=objective)

    def test_negative_latency_ceiling_rejected(self):
        with pytest.raises(ValueError, match="latency ceiling"):
            SloSpec("p95_latency", bound=-1.0, window=1.0)

    @pytest.mark.parametrize("bound", [0.0, 1.2, -0.5])
    def test_recall_floor_outside_unit_interval_rejected(self, bound):
        with pytest.raises(ValueError, match="recall floor"):
            SloSpec("recall", bound=bound, window=1.0)

    @pytest.mark.parametrize("bound", [0.0, -2.0])
    def test_non_positive_throughput_floor_rejected(self, bound):
        with pytest.raises(ValueError, match="throughput floor"):
            SloSpec("throughput", bound=bound, window=1.0)

    def test_every_published_metric_constructs(self):
        for metric in SLO_METRICS:
            SloSpec(metric, bound=0.5, window=1.0)


class TestSloEngineWindows:
    def test_duplicate_metric_rejected(self):
        with pytest.raises(ValueError, match="duplicate SLO spec"):
            SloEngine([
                SloSpec("recall", bound=0.9, window=1.0),
                SloSpec("recall", bound=0.5, window=2.0),
            ])

    def test_empty_engine_is_falsy(self):
        assert not SloEngine([])
        assert SloEngine([SloSpec("recall", bound=0.9, window=1.0)])

    def test_p95_ceiling_per_window(self):
        engine = SloEngine([SloSpec("p95_latency", bound=10.0, window=1.0)])
        for latency in (1.0, 2.0, 3.0):
            engine.observe_match(0.5, latency)
        engine.observe_match(1.5, 50.0)
        engine.observe_match(1.7, None)  # unknown latency: ignored
        engine.close(2.0)
        row = engine.report()["specs"][0]
        assert row["windows_evaluated"] == 2
        assert row["windows_violated"] == 1
        first, second = row["windows"]
        assert first["value"] == 3.0 and first["ok"] is True
        assert second["value"] == 50.0 and second["ok"] is False

    def test_recall_floor_counts_admitted_against_shed(self):
        engine = SloEngine([SloSpec("recall", bound=0.75, window=1.0)])
        for ts in (0.1, 0.2, 0.3):
            engine.observe_route(ts)
        engine.observe_shed(0.4)  # 3/4 == 0.75: floor holds (>=)
        engine.observe_route(1.1)
        engine.observe_shed(1.2)  # 1/2 < 0.75: violated
        engine.close(2.0)
        row = engine.report()["specs"][0]
        first, second = row["windows"]
        assert first["value"] == 0.75 and first["ok"] is True
        assert second["value"] == 0.5 and second["ok"] is False

    def test_empty_throughput_window_charges_the_budget(self):
        # A starved window is exactly what a throughput floor exists to
        # catch, so unlike the other metrics it evaluates when empty.
        engine = SloEngine([SloSpec("throughput", bound=1.0, window=1.0)])
        engine.observe_route(0.2)
        engine.observe_route(0.4)
        engine.observe_route(2.5)
        engine.close(3.0)
        row = engine.report()["specs"][0]
        assert row["windows_evaluated"] == 3
        assert [w["ok"] for w in row["windows"]] == [True, False, True]
        assert row["windows"][1]["value"] == 0.0

    def test_empty_latency_and_recall_windows_are_no_data(self):
        engine = SloEngine([
            SloSpec("p95_latency", bound=10.0, window=1.0),
            SloSpec("recall", bound=0.9, window=1.0),
        ])
        engine.close(5.0)
        report = engine.report()
        for row in report["specs"]:
            assert row["status"] == "no_data"
            assert row["windows_evaluated"] == 0
            assert all(w["ok"] is None for w in row["windows"])
        assert report["verdict"] == "met"

    def test_final_window_is_pro_rated_for_throughput(self):
        # One admit in the half-length tail window still meets a floor of
        # 1 event per unit time: 1 / (3.0 - 2.0) with window 2.0.
        engine = SloEngine([SloSpec("throughput", bound=1.0, window=2.0)])
        engine.observe_route(0.5)
        engine.observe_route(1.5)
        engine.observe_route(2.5)
        engine.close(3.0)
        row = engine.report()["specs"][0]
        tail = row["windows"][-1]
        assert tail["end"] == 3.0
        assert tail["value"] == 1.0 and tail["ok"] is True

    def test_close_is_idempotent(self):
        engine = SloEngine([SloSpec("throughput", bound=1.0, window=1.0)])
        engine.observe_route(0.5)
        engine.close(2.0)
        first = json.dumps(engine.report(), sort_keys=True)
        engine.close(4.0)  # no-op: already closed
        assert json.dumps(engine.report(), sort_keys=True) == first


class TestBurnAndStatus:
    def _recall_engine(self, objective=0.5):
        return SloEngine([
            SloSpec("recall", bound=0.9, window=1.0, objective=objective)
        ])

    def _window(self, engine, index, ok):
        base = float(index)
        engine.observe_route(base + 0.1)
        if not ok:
            for _ in range(3):
                engine.observe_shed(base + 0.2)

    def test_breach_status_before_budget_exhausts(self):
        engine = self._recall_engine(objective=0.5)
        self._window(engine, 0, ok=True)
        self._window(engine, 1, ok=True)
        self._window(engine, 2, ok=False)
        engine.close(3.0)
        row = engine.report()["specs"][0]
        assert row["status"] == "breach"
        assert row["budget"]["used_fraction"] == pytest.approx(1 / 3)
        assert row["budget"]["burn_rate"] == pytest.approx(2 / 3)

    def test_exhausted_once_burn_reaches_one(self):
        engine = self._recall_engine(objective=0.5)
        self._window(engine, 0, ok=False)
        self._window(engine, 1, ok=False)
        self._window(engine, 2, ok=True)
        engine.close(3.0)
        row = engine.report()["specs"][0]
        # Last window passed, but 2/3 violated against a 50% allowance.
        assert row["status"] == "exhausted"
        assert row["budget"]["burn_rate"] == pytest.approx(4 / 3)

    def test_ok_status_and_zero_burn_when_clean(self):
        engine = self._recall_engine()
        for index in range(4):
            self._window(engine, index, ok=True)
        engine.close(4.0)
        row = engine.report()["specs"][0]
        assert row["status"] == "ok"
        assert row["budget"]["burn_rate"] == 0.0
        assert engine.report()["verdict"] == "met"

    def test_fast_burn_sees_only_trailing_windows(self):
        # One old violation followed by four clean windows: the lifetime
        # burn stays charged while the fast (page-now) signal recovers.
        engine = self._recall_engine(objective=0.5)
        self._window(engine, 0, ok=False)
        for index in range(1, 5):
            self._window(engine, index, ok=True)
        engine.close(5.0)
        budget = engine.report()["specs"][0]["budget"]
        assert budget["burn_rate"] > 0.0
        assert budget["fast_burn"] == 0.0

    def test_evaluate_reports_running_status(self):
        engine = self._recall_engine(objective=0.5)
        assert engine.evaluate(0.5) == [{
            "metric": "recall", "bound": 0.9,
            "status": "no_data", "burn_rate": 0.0, "value": None,
        }]
        self._window(engine, 0, ok=False)
        status = engine.evaluate(1.5)  # closes window 0
        assert status[0]["status"] in ("breach", "exhausted")
        assert status[0]["value"] == 0.25


class TestLiveReplayParity:
    _SPECS = (
        SloSpec("p95_latency", bound=4.0, window=1.0),
        SloSpec("recall", bound=0.9, window=1.0),
        SloSpec("throughput", bound=2.0, window=1.0),
    )

    def _drive(self, engine, evaluate_midrun, recorder=NULL_TRACER):
        # Feed the engine the way the simulator does, recording each
        # observation as the trace event the simulator records with it.
        ts = 0.0
        for step in range(60):
            ts = step * 0.1
            engine.observe_route(ts)
            recorder.splitter_route(ts, "S0", 1)
            if step % 7 == 0:
                engine.observe_shed(ts)
                recorder.shed(ts, "S0", "pattern")
            if step % 3 == 0:
                latency = 1.0 + (step % 5)
                engine.observe_match(ts, latency)
                recorder.match(ts, agent=0, latency=latency)
            if evaluate_midrun and step % 10 == 0:
                engine.evaluate(ts)
        total = ts + 0.1
        engine.close(total)
        return total

    def test_live_report_equals_trace_replay_byte_for_byte(self):
        recorder = TraceRecorder()
        engine = SloEngine(list(self._SPECS))
        total = self._drive(engine, evaluate_midrun=True, recorder=recorder)
        live = json.dumps(engine.report(), sort_keys=True)
        replayed = json.dumps(
            slo_report(recorder.events, list(self._SPECS), total_time=total),
            sort_keys=True,
        )
        assert live == replayed

    def test_midrun_evaluation_cadence_cannot_change_the_report(self):
        # Window verdicts are pure functions of bucket contents, so how
        # often the control plane polls must be invisible in the report.
        reports = []
        for midrun in (True, False):
            engine = SloEngine(list(self._SPECS))
            self._drive(engine, evaluate_midrun=midrun)
            reports.append(json.dumps(engine.report(), sort_keys=True))
        assert reports[0] == reports[1]

    def test_engine_mirrors_window_closes_to_the_tracer(self):
        recorder = TraceRecorder()
        engine = SloEngine(
            [SloSpec("throughput", bound=2.0, window=1.0)], tracer=recorder
        )
        engine.observe_route(0.5)
        engine.close(2.0)
        slo_events = [
            e for e in recorder.events if e.kind == TraceKind.SLO
        ]
        assert len(slo_events) == 2
        assert slo_events[0].args["metric"] == "throughput"
        assert slo_events[0].args["ok"] is False  # 1 admit < floor of 2
        assert "burn" in slo_events[0].args


def _bursty_stock_query():
    events = list(generate_bursty_stream(BurstyConfig(
        symbols=("S0", "S1", "S2", "S3"),
        base_rate=0.6,
        num_phases=6,
        events_per_phase=250,
        seed=42,
    )))
    spec = stock_sequence_query(
        ["S0", "S1", "S2"], 30.0, events, selectivity=0.2
    )
    return spec.pattern, events


class TestSimulatorLiveReplayParity:
    """The simulator's live ``extra["slo"]`` equals :func:`slo_report`
    over the trace the same run recorded."""

    _SPECS = (
        SloSpec("p95_latency", bound=2000.0, window=30.0),
        SloSpec("recall", bound=0.95, window=30.0),
        SloSpec("throughput", bound=0.05, window=30.0),
    )

    @pytest.mark.parametrize("kwargs", [
        {},
        {"adapt": "on", "shed_bound": 16, "shed_policy": "pattern",
         "pace": 10.0},
    ], ids=["plain", "adaptive_shed_paced"])
    def test_live_slo_equals_trace_replay(self, kwargs):
        pattern, events = _bursty_stock_query()
        recorder = TraceRecorder()
        result = simulate(
            "hypersonic", pattern, events, num_cores=4,
            slos=list(self._SPECS), tracer=recorder, **kwargs,
        )
        live = json.dumps(result.extra["slo"], sort_keys=True)
        replayed = json.dumps(
            slo_report(
                recorder.events, list(self._SPECS),
                total_time=result.total_time,
            ),
            sort_keys=True,
        )
        assert live == replayed
        kinds = {event.kind for event in recorder.events}
        assert TraceKind.SLO in kinds
        if kwargs:
            # The cell exercises what it is named for: shedding under
            # pacing, with control-plane decisions in the trace.
            assert {TraceKind.SHED, TraceKind.REPLAN} <= kinds
