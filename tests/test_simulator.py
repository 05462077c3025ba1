"""Tests for the execution-unit simulator."""

import pytest

from tests.conftest import make_stream, reference_matches
from repro.core import Pattern
from repro.costmodel import CostParameters
from repro.simulator import (
    CacheModel,
    LatencyAccumulator,
    simulate,
)
from repro.simulator.hypersonic_sim import HypersonicSimulation
from repro.core.errors import SimulationError


PATTERN = Pattern.sequence(["A", "B", "C"], window=6.0)


class TestCacheModel:
    def test_scan_cost_linear_plus_quadratic(self):
        cache = CacheModel(capacity_items=100.0, touch_cost=1.0)
        assert cache.scan_cost(10, 100) == pytest.approx(10 + 1.0)
        assert cache.single_fragment_cost(10) == pytest.approx(10 + 1.0)

    def test_fragmentation_reduces_quadratic_term(self):
        cache = CacheModel(capacity_items=100.0, touch_cost=1.0)
        whole = cache.single_fragment_cost(100)
        split = cache.scan_cost(100, 4 * 25 * 25)  # four fragments of 25
        assert split < whole

    def test_comparison_penalty_weighted_mean(self):
        cache = CacheModel(capacity_items=64.0)
        assert cache.comparison_penalty(0, 0) == 1.0
        # One fragment of 64 items: penalty 2.
        assert cache.comparison_penalty(64, 64 * 64) == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheModel(capacity_items=0.0)
        with pytest.raises(ValueError):
            CacheModel(touch_cost=-1.0)


class TestLatencyAccumulator:
    def test_mean_and_max(self):
        acc = LatencyAccumulator()
        for value in [1.0, 2.0, 3.0]:
            acc.add(value)
        assert acc.mean == pytest.approx(2.0)
        assert acc.max_value == 3.0
        assert acc.count == 3

    def test_empty(self):
        acc = LatencyAccumulator()
        assert acc.mean == 0.0
        assert acc.percentile(0.95) == 0.0

    def test_percentile_reasonable(self):
        acc = LatencyAccumulator()
        for value in range(100):
            acc.add(float(value))
        assert 85.0 <= acc.percentile(0.9) <= 99.0

    def test_reservoir_bounded(self):
        acc = LatencyAccumulator(capacity=64)
        for value in range(10_000):
            acc.add(float(value))
        assert len(acc._reservoir) < 128
        assert acc.count == 10_000


class TestSimulate:
    @pytest.fixture(scope="class")
    def events(self):
        return make_stream(num_events=600, seed=31)

    @pytest.fixture(scope="class")
    def expected(self, events):
        return {m.key for m in reference_matches(PATTERN, events)}

    @pytest.mark.parametrize(
        "strategy",
        ["sequential", "hypersonic", "state", "rip", "rr", "jsq", "llsf"],
    )
    def test_every_strategy_finds_exact_matches(
        self, strategy, events, expected
    ):
        result = simulate(strategy, PATTERN, events, num_cores=4)
        assert result.matches == len(expected)
        assert result.strategy == strategy
        assert result.total_time > 0
        assert result.throughput > 0
        assert result.total_comparisons > 0

    def test_unknown_strategy_rejected(self, events):
        with pytest.raises(SimulationError):
            simulate("warp", PATTERN, events, num_cores=4)

    def test_sequential_uses_one_unit(self, events):
        result = simulate("sequential", PATTERN, events, num_cores=8)
        assert result.num_units == 1
        assert result.avg_utilization == pytest.approx(1.0, abs=0.05)

    def test_state_units_bounded_by_agents(self, events):
        result = simulate("state", PATTERN, events, num_cores=24)
        assert result.num_units == 2  # 3 stages -> 2 agents

    def test_hypersonic_beats_sequential_with_cores(self, events):
        seq = simulate("sequential", PATTERN, events, num_cores=1)
        hyper = simulate(
            "hypersonic", PATTERN, events, num_cores=8, agent_dynamic=True
        )
        assert hyper.gain_over(seq) > 1.0

    def test_paced_mode_runs(self, events):
        closed = simulate("hypersonic", PATTERN, events, num_cores=4)
        paced = simulate(
            "hypersonic", PATTERN, events, num_cores=4,
            pace=2.0 / closed.throughput,
        )
        assert paced.matches == closed.matches

    def test_costs_affect_total_time(self, events):
        cheap = simulate(
            "hypersonic", PATTERN, events, num_cores=4,
            costs=CostParameters(comparison=0.1),
        )
        dear = simulate(
            "hypersonic", PATTERN, events, num_cores=4,
            costs=CostParameters(comparison=10.0),
        )
        assert dear.total_time > cheap.total_time

    def test_result_summary_row(self, events):
        result = simulate("sequential", PATTERN, events, num_cores=1)
        row = result.summary_row()
        assert row["strategy"] == "sequential"
        assert row["matches"] == result.matches


class TestHypersonicSimulationInternals:
    def test_unit_busy_not_exceeding_total(self):
        events = make_stream(num_events=400, seed=32)
        sim = HypersonicSimulation(PATTERN, 4)
        result = sim.run(events)
        for busy in result.unit_busy:
            assert busy <= result.total_time + 1e-9

    def test_matches_accessible(self):
        events = make_stream(num_events=300, seed=33)
        sim = HypersonicSimulation(PATTERN, 4)
        result = sim.run(events)
        assert len(sim.matches) == result.matches

    def test_extra_diagnostics(self):
        events = make_stream(num_events=300, seed=34)
        result = HypersonicSimulation(PATTERN, 4).run(events)
        assert "allocation" in result.extra
        assert sum(result.extra["allocation"]) == 4
        assert len(result.extra["per_agent_items"]) == 2

    def test_latency_measured_per_match(self):
        events = make_stream(num_events=400, seed=35)
        result = HypersonicSimulation(PATTERN, 4).run(events)
        if result.matches:
            assert result.avg_latency > 0
            assert result.max_latency >= result.avg_latency

    def test_memory_peak_positive(self):
        events = make_stream(num_events=400, seed=36)
        result = HypersonicSimulation(PATTERN, 4).run(events)
        assert result.peak_memory_bytes > 0
