"""Tests for workload-statistics estimation."""

import functools

import pytest

import repro.core.nfa as nfa
import repro.core.vectorized as vec
from tests.conftest import make_stream
from repro.core import (
    AndCondition,
    AttributeCondition,
    CorrelationCondition,
    Event,
    EventType,
    Pattern,
)
from repro.core.errors import ConditionError
from repro.costmodel import estimate_statistics, statistics, statistics_from_sample
from repro.datasets.sensors import SensorConfig, generate_sensor_stream
from repro.datasets.stocks import StockConfig, generate_stock_stream
from repro.datasets.trips import TripConfig, generate_trip_stream
from repro.workloads.queries import (
    stock_negation_query,
    stock_sequence_query,
    trip_chain_query,
    trip_negation_query,
)


class TestEstimateStatistics:
    def test_rates_reflect_frequencies(self):
        events = make_stream(num_events=2000, seed=1)
        pattern = Pattern.sequence(["A", "B", "C"], window=5.0)
        stats = estimate_statistics(pattern, events)
        # Five types uniformly: each ~0.2 of total rate (~1 event/time unit
        # at gap~0.5 mean => ~2 events per time unit overall).
        total_rate = sum(stats.rates)
        for rate in stats.rates:
            assert rate == pytest.approx(total_rate / 3, rel=0.35)

    def test_selectivity_of_unconditioned_stage_is_one(self):
        events = make_stream(num_events=1000, seed=2)
        pattern = Pattern.sequence(["A", "B"], window=5.0)
        stats = estimate_statistics(pattern, events)
        assert stats.selectivities[1] == pytest.approx(1.0)

    def test_selectivity_of_filter(self):
        events = make_stream(num_events=3000, seed=3, attr_range=10)
        pattern = Pattern.sequence(
            ["A", "B"],
            window=5.0,
            condition=AttributeCondition("p1", "x", "==", "p2", "x"),
        )
        stats = estimate_statistics(pattern, events)
        # x uniform over 10 values -> equality selectivity ~ 0.1.
        assert stats.selectivities[1] == pytest.approx(0.1, abs=0.05)

    def test_match_rates_measured(self):
        events = make_stream(num_events=1500, seed=4)
        pattern = Pattern.sequence(["A", "B", "C"], window=5.0)
        stats = estimate_statistics(pattern, events)
        assert len(stats.match_rates) == 3
        # Seeds arrive at the A rate.
        assert stats.match_rates[0] == pytest.approx(stats.rates[0], rel=0.05)

    def test_stage_work_measured_and_positive(self):
        events = make_stream(num_events=1500, seed=5)
        pattern = Pattern.sequence(["A", "B", "C"], window=5.0)
        stats = estimate_statistics(pattern, events)
        assert len(stats.stage_work) == 3
        assert stats.stage_work[1] > 0

    def test_event_sizes_from_payloads(self):
        events = make_stream(num_events=500, seed=6)
        pattern = Pattern.sequence(["A", "B"], window=5.0)
        stats = estimate_statistics(pattern, events)
        assert stats.event_sizes == (64.0, 64.0)

    def test_explicit_event_sizes_win(self):
        events = make_stream(num_events=200, seed=7)
        pattern = Pattern.sequence(["A", "B"], window=5.0)
        stats = estimate_statistics(pattern, events, event_sizes=[10, 20])
        assert stats.event_sizes == (10, 20)

    def test_empty_sample_degrades_gracefully(self):
        pattern = Pattern.sequence(["A", "B"], window=5.0)
        stats = estimate_statistics(pattern, [])
        assert stats.rates == (0.0, 0.0)
        assert stats.match_rates == ()


class TestStatisticsFromSample:
    def test_prefix_returned_for_replay(self):
        events = make_stream(num_events=100, seed=8)
        pattern = Pattern.sequence(["A", "B"], window=5.0)
        stats, prefix = statistics_from_sample(
            pattern, iter(events), sample_size=40
        )
        assert prefix == events[:40]
        assert stats.num_stages == 2

    def test_short_stream_fully_consumed(self):
        events = make_stream(num_events=10, seed=9)
        pattern = Pattern.sequence(["A", "B"], window=5.0)
        _stats, prefix = statistics_from_sample(
            pattern, iter(events), sample_size=100
        )
        assert len(prefix) == 10


# --------------------------------------------------------------------- #
# The sampler's kernel path against its pair loop                        #
# --------------------------------------------------------------------- #

STOCK_TYPES = ["S0", "S1", "S2", "S3"]


@functools.lru_cache(maxsize=None)
def stock_stream() -> tuple[Event, ...]:
    return tuple(generate_stock_stream(StockConfig(num_events=2000, seed=5)))


@functools.lru_cache(maxsize=None)
def trip_stream() -> tuple[Event, ...]:
    return tuple(generate_trip_stream(TripConfig(num_trips=200, seed=5)))


@functools.lru_cache(maxsize=None)
def sampler_case(name: str):
    """(pattern, sample) for one kernel-vs-loop case."""
    if name == "stocks_corr":
        events = stock_stream()
        return stock_sequence_query(STOCK_TYPES, 40.0, events).pattern, events
    if name == "stocks_negation":
        events = stock_stream()
        return stock_negation_query(STOCK_TYPES, 40.0, events).pattern, events
    if name == "trips_kleene":
        return trip_chain_query(4.0).pattern, trip_stream()
    if name == "trips_negation":
        return trip_negation_query(12.0).pattern, trip_stream()
    if name == "sensors_attribute":
        config = SensorConfig(num_events=2000, seed=5)
        types = list(config.activities[:3])
        condition = AndCondition((
            AttributeCondition("p1", "distance_kitchen", "<",
                               "p2", "distance_kitchen"),
            AttributeCondition("p3", "distance_kitchen", ">",
                               "p2", "distance_kitchen"),
        ))
        pattern = Pattern.sequence(types, window=30.0, condition=condition)
        return pattern, tuple(generate_sensor_stream(config))
    if name == "mixed_stage":
        # Stage 1 holds a correlation between two attribute conditions,
        # with the event on either side of them; the symbols are strings.
        condition = AndCondition((
            AttributeCondition("p2", "price", ">", "p1", "price"),
            CorrelationCondition("p1", "p2", threshold=0.2),
            AttributeCondition("p1", "symbol", "!=", "p2", "symbol"),
            CorrelationCondition("p2", "p3", threshold=-0.3),
        ))
        pattern = Pattern.sequence(STOCK_TYPES[:3], window=40.0,
                                   condition=condition)
        return pattern, stock_stream()
    if name == "tied_ids":
        # Whole-number timestamps tie often, and ids fall in stream order,
        # so the SEQ-order check rejects tied candidates the window admits.
        events = tuple(
            Event(event.type, float(int(event.timestamp)), event.attributes,
                  event_id=10**7 - index)
            for index, event in enumerate(make_stream(num_events=1500,
                                                      seed=11))
        )
        condition = AndCondition((
            AttributeCondition("p1", "x", "<=", "p2", "x"),
            AttributeCondition("p2", "x", "!=", "p3", "x"),
        ))
        return Pattern.sequence(["A", "B", "C"], window=3.0,
                                condition=condition), events
    raise KeyError(name)


SAMPLER_CASES = ["stocks_corr", "stocks_negation", "trips_kleene",
                 "trips_negation", "sensors_attribute", "mixed_stage",
                 "tied_ids"]


def no_join_keys(patch) -> None:
    """Compile every stage and guard without a join key (DESIGN §2p), so
    their scans stay full scans."""
    patch.setattr(nfa, "join_key", lambda conditions, position: None)


def pair_loop_statistics(monkeypatch, pattern, sample):
    """The reference: every stage on the pair loop, no keys, no kernels."""
    with monkeypatch.context() as patch:
        no_join_keys(patch)
        patch.setattr(vec, "compile_stage_kernel", lambda stage: None)
        return estimate_statistics(pattern, list(sample))


def scan_counts(monkeypatch, pattern, sample):
    """Estimate with the kernel path and keys off, counting its kernel
    scans; then again with every stage on the pair loop."""
    scans = []
    original = vec.StageKernel.accepts_over_matches

    def counted(self, *args, **kwargs):
        scans.append(self.position)
        return original(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        no_join_keys(patch)
        patch.setattr(vec.StageKernel, "accepts_over_matches", counted)
        kernel = estimate_statistics(pattern, list(sample))
    loop = pair_loop_statistics(monkeypatch, pattern, sample)
    return kernel, loop, scans


class TestKernelSampler:
    """The sampler scans the pools of kernel-compilable stages through
    ``StageKernel.accepts_over_matches``; the statistics must equal the
    pair loop's, to the bit."""

    @pytest.mark.parametrize("name", SAMPLER_CASES)
    def test_equals_pair_loop(self, monkeypatch, backend, name):
        pattern, sample = sampler_case(name)
        kernel, loop, scans = scan_counts(monkeypatch, pattern, sample)
        assert scans, "no pool went through a kernel"
        assert kernel == loop
        assert repr(kernel) == repr(loop)
        assert any(0.0 < s < 1.0 for s in kernel.selectivities)

    def test_binding_pool_cap_drops_the_same_partials(self, monkeypatch,
                                                      backend):
        pattern, sample = sampler_case("stocks_corr")
        uncapped = estimate_statistics(pattern, list(sample))
        monkeypatch.setattr(statistics, "_POOL_CAP", 3)
        kernel, loop, scans = scan_counts(monkeypatch, pattern, sample)
        assert scans
        assert kernel != uncapped, "the lowered cap does not bind"
        assert kernel == loop
        assert repr(kernel) == repr(loop)

    @pytest.mark.parametrize("name", SAMPLER_CASES)
    def test_keyed_sampler_equals_pair_loop(self, monkeypatch, backend,
                                            name):
        """The default sampler, keyed scans on, against the same pair
        loop: the trip queries' stages join on ``bike``, and their pools
        are scanned by key."""
        pattern, sample = sampler_case(name)
        keyed_scans = []
        original = statistics._SamplingRun._scan_keyed

        def counted(self, stage, *args):
            keyed_scans.append(stage.index)
            return original(self, stage, *args)

        with monkeypatch.context() as patch:
            patch.setattr(statistics._SamplingRun, "_scan_keyed", counted)
            keyed = estimate_statistics(pattern, list(sample))
        loop = pair_loop_statistics(monkeypatch, pattern, sample)
        assert keyed == loop
        assert repr(keyed) == repr(loop)
        assert bool(keyed_scans) == name.startswith("trips")

    def test_keyed_sampler_on_a_sample_out_of_order(self, monkeypatch):
        """A sample that steps back in time leaves a pool out of
        ``latest`` order, which the keyed scans' count relies on; from
        then on the sampler scans whole pools.  Here the rentals at 0, 2,
        1 and 3 are in the pool when the one at 1.5 comes, and two of
        them precede it."""
        pattern = trip_negation_query(12.0).pattern
        start = EventType("start")
        sample = [Event(start, timestamp, {"bike": 1})
                  for timestamp in (0.0, 2.0, 1.0, 3.0, 1.5)]
        keyed = estimate_statistics(pattern, sample)
        assert keyed == pair_loop_statistics(monkeypatch, pattern, sample)

    def test_ragged_history_raises_on_both_paths(self, monkeypatch, backend):
        pattern, sample = sampler_case("stocks_corr")
        ragged = [
            Event(event.type, event.timestamp,
                  {**event.attributes,
                   "history": event.attributes["history"][:-1]},
                  event_id=event.event_id)
            if event.type.name == "S0" and index >= 1000 else event
            for index, event in enumerate(sample)
        ]
        with pytest.raises(ConditionError):
            estimate_statistics(pattern, ragged)
        with monkeypatch.context() as patch:
            patch.setattr(vec, "compile_stage_kernel", lambda stage: None)
            with pytest.raises(ConditionError):
                estimate_statistics(pattern, ragged)
