"""Tests for partition-simulation internals and SimResult mechanics."""

import pytest

from tests.conftest import make_stream, reference_matches
from repro.core import Pattern
from repro.baselines import LLSFEngine, RIPEngine
from repro.core.streams import Lookahead, as_source
from repro.simulator import PartitionSimulation, SequentialSimEngine
from repro.simulator.metrics import SimResult


PATTERN = Pattern.sequence(["A", "B", "C"], window=5.0)


def spans_of(engine, events):
    return list(engine.spans(Lookahead(as_source(events))))


class TestSequentialSimEngine:
    def test_single_partition_owns_everything(self):
        events = make_stream(num_events=100, seed=61)
        engine = SequentialSimEngine(PATTERN)
        spans = spans_of(engine, events)
        assert len(spans) == 1
        assert all(spans[0].contains(i) for i in range(len(events)))
        assert engine.assign_unit(spans[0], [0.0]) == 0

    def test_empty_stream_yields_nothing(self):
        engine = SequentialSimEngine(PATTERN)
        assert spans_of(engine, []) == []


class TestSimulatePartitioned:
    def test_sequential_exact_matches(self):
        events = make_stream(num_events=500, seed=62)
        expected = {m.key for m in reference_matches(PATTERN, events)}
        sim = PartitionSimulation(
            SequentialSimEngine(PATTERN), strategy_name="sequential"
        )
        result = sim.run(events)
        assert {m.key for m in sim.matches} == expected
        assert result.matches == len(expected)
        assert result.duplication_factor == pytest.approx(1.0, abs=0.05)

    def test_paced_vs_closed_loop_same_matches(self):
        events = make_stream(num_events=400, seed=63)
        closed = PartitionSimulation(RIPEngine(PATTERN, 3)).run(events)
        paced = PartitionSimulation(RIPEngine(PATTERN, 3), pace=5.0).run(
            events
        )
        assert closed.matches == paced.matches
        # Open-loop pacing stretches total time to about N * pace.
        assert paced.total_time >= 399 * 5.0

    def test_busy_time_bounded(self):
        events = make_stream(num_events=300, seed=65)
        result = PartitionSimulation(LLSFEngine(PATTERN, 4)).run(events)
        for busy in result.unit_busy:
            assert 0 <= busy <= result.total_time + 1e-9

    def test_llsf_duplication_reported(self):
        events = make_stream(num_events=400, seed=66)
        result = PartitionSimulation(LLSFEngine(PATTERN, 4)).run(events)
        assert 1.4 <= result.duplication_factor <= 2.3
        assert result.extra["partitions"] >= 2


class TestSimResult:
    def _result(self, throughput=2.0):
        total_time = 100.0 / throughput if throughput else 0.0
        return SimResult(
            strategy="x", num_units=4, events=100, matches=5,
            total_time=total_time, throughput=throughput,
            avg_latency=1.0, p95_latency=2.0, max_latency=3.0,
            peak_memory_bytes=1024, total_comparisons=10, total_work=50.0,
            unit_busy=[10.0, 20.0],
        )

    def test_gain_over(self):
        fast = self._result(throughput=4.0)
        slow = self._result(throughput=1.0)
        assert fast.gain_over(slow) == pytest.approx(4.0)

    def test_gain_over_zero_baseline(self):
        fast = self._result()
        zero = self._result(throughput=0.0)
        assert fast.gain_over(zero) == float("inf")

    def test_avg_utilization(self):
        result = self._result(throughput=2.0)  # total_time = 50
        assert result.avg_utilization == pytest.approx((10 + 20) / (2 * 50))

    def test_summary_row_units(self):
        row = self._result().summary_row()
        assert row["units"] == 4
        assert row["peak_memory_kb"] == 1.0
