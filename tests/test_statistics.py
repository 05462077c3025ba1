"""Tests for workload-statistics estimation."""

import functools
import math
import random
from dataclasses import astuple
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.nfa as nfa
import repro.core.vectorized as vec
from tests.conftest import make_stream
from repro.core import (
    AndCondition,
    AttributeCondition,
    CorrelationCondition,
    Event,
    EventType,
    PairwiseCondition,
    Pattern,
    UnaryCondition,
)
from repro.core.errors import ConditionError, StreamError
from repro.core.nfa import compile_pattern
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
# The sampler's sweep against its pair loop                              #
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
    """(pattern, sample) for one sweep-vs-loop case."""
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


#: Cases on which the sweep must give the counters: every one but the
#: Kleene chain, and the sensors join, whose pool outgrows the 512 cap.
SWEPT_CASES = {"stocks_corr", "stocks_negation", "trips_negation",
               "mixed_stage", "tied_ids"}


def pair_loop_statistics(pattern, sample):
    """The reference: every stage on the pair loop, no sweep."""
    with mock.patch.object(statistics, "_sweep", lambda nfa_, events: None):
        return estimate_statistics(pattern, list(sample))


def swept_statistics(pattern, sample):
    """``estimate_statistics`` and whether the sweep gave its counters."""
    results = []
    sweep = statistics._sweep

    def recorded(nfa_, events):
        results.append(sweep(nfa_, events))
        return results[-1]

    with mock.patch.object(statistics, "_sweep", recorded):
        stats = estimate_statistics(pattern, list(sample))
    return stats, results[0] is not None


def pool_peak(pattern, sample):
    """The most partials any pool of the uncapped event loop holds."""
    with mock.patch.object(statistics, "_POOL_CAP", len(sample) ** 2 + 1):
        run = statistics._SamplingRun(compile_pattern(pattern))
        peak = 0
        for event in sample:
            run.feed(event)
            peak = max(peak, *map(len, run._pools[1:]))
    return peak


#: ``(comparisons, successes, scanned, scan_sq)`` per stage of the
#: ``stocks_corr`` case, as the sweep first counted them.
PINNED_STOCKS_CORR = [
    (264, 264, 0, 0),
    (9701, 332, 9701, 393619),
    (5226, 583, 5226, 333572),
    (3883, 273, 3883, 416003),
]


class TestKernelSampler:
    """Where it can be exact, ``estimate_statistics`` counts with the
    stage-at-a-time sweep; its statistics must equal the pair loop's, to
    the bit, and without numpy the pair loop runs."""

    @pytest.mark.parametrize("name", SAMPLER_CASES)
    def test_equals_pair_loop(self, backend, name):
        pattern, sample = sampler_case(name)
        swept, ran = swept_statistics(pattern, sample)
        loop = pair_loop_statistics(pattern, sample)
        assert ran == (backend == "numpy" and name in SWEPT_CASES)
        assert swept == loop
        assert repr(swept) == repr(loop)
        assert any(0.0 < s < 1.0 for s in swept.selectivities)

    def test_binding_pool_cap_drops_the_same_partials(self, monkeypatch,
                                                      backend):
        pattern, sample = sampler_case("stocks_corr")
        uncapped = estimate_statistics(pattern, list(sample))
        monkeypatch.setattr(statistics, "_POOL_CAP", 3)
        capped, ran = swept_statistics(pattern, sample)
        loop = pair_loop_statistics(pattern, sample)
        assert not ran, "the sweep ran where the cap binds"
        assert capped != uncapped, "the lowered cap does not bind"
        assert capped == loop
        assert repr(capped) == repr(loop)

    @pytest.mark.parametrize("name", ["stocks_corr", "mixed_stage",
                                      "trips_negation"])
    def test_cap_check_is_exact(self, monkeypatch, name):
        """The sweep runs at a cap as high as the fullest pool, and one
        lower, which refuses the append that fills that pool, it does
        not."""
        pattern, sample = sampler_case(name)
        peak = pool_peak(pattern, sample)
        for cap, runs in ((peak, True), (peak - 1, False)):
            monkeypatch.setattr(statistics, "_POOL_CAP", cap)
            swept, ran = swept_statistics(pattern, sample)
            assert ran == (runs and vec.have_numpy())
            loop = pair_loop_statistics(pattern, sample)
            assert swept == loop
            assert repr(swept) == repr(loop)

    @pytest.mark.parametrize("name", SAMPLER_CASES)
    def test_keyed_sampler_equals_pair_loop(self, backend, name):
        """The event loop on stages compiled with their join keys, against
        the pair loop with ``join_key`` forced off: the trip queries'
        stages join on ``bike``, and the sampler must count them as if
        they had no key."""
        pattern, sample = sampler_case(name)
        keyed_stages = [stage.index
                        for stage in compile_pattern(pattern).stages[1:]
                        if stage.key is not None]
        keyed = pair_loop_statistics(pattern, sample)
        with mock.patch.object(nfa, "join_key",
                               lambda conditions, position: None):
            assert all(stage.key is None
                       for stage in compile_pattern(pattern).stages)
            loop = pair_loop_statistics(pattern, sample)
        assert keyed == loop
        assert repr(keyed) == repr(loop)
        assert bool(keyed_stages) == name.startswith("trips")

    def test_keyed_sampler_on_a_sample_out_of_order(self):
        """A sample that steps back in time is refused at entry, before
        any pool is filled: the rental at 1.0 follows the one at 2.0."""
        pattern = trip_negation_query(12.0).pattern
        start = EventType("start")
        sample = [Event(start, timestamp, {"bike": 1})
                  for timestamp in (0.0, 2.0, 1.0, 3.0, 1.5)]
        with pytest.raises(StreamError, match="timestamp 1.0 < previous 2.0"):
            estimate_statistics(pattern, sample)

    def test_ragged_history_raises_on_both_paths(self, backend):
        pattern, sample = sampler_case("stocks_corr")
        ragged = [
            Event(event.type, event.timestamp,
                  {**event.attributes,
                   "history": event.attributes["history"][:-1]},
                  event_id=event.event_id)
            if event.type.name == "S0" and index >= 1000 else event
            for index, event in enumerate(sample)
        ]
        assert statistics._sweep(compile_pattern(pattern), ragged) is None
        with pytest.raises(ConditionError):
            estimate_statistics(pattern, ragged)
        with pytest.raises(ConditionError):
            pair_loop_statistics(pattern, ragged)

    def test_counters_equal_the_pinned_ones(self, backend):
        """The sweep's counters on ``stocks_corr``, pinned, are the event
        loop's, with numpy or without (CI's no-numpy job runs this)."""
        pattern, sample = sampler_case("stocks_corr")
        nfa_ = compile_pattern(pattern)
        swept = statistics._sweep(nfa_, list(sample))
        assert (swept is not None) == (backend == "numpy")
        run = statistics._SamplingRun(nfa_)
        for event in sample:
            run.feed(event)
        assert [astuple(o) for o in run.observations] == PINNED_STOCKS_CORR
        if swept is not None:
            assert [astuple(o) for o in swept] == PINNED_STOCKS_CORR

    def test_an_overridden_evaluate_is_called(self, backend):
        """A correlation subclass whose ``evaluate`` rejects every pair
        makes stage 1 reject every candidate on both paths: its kernel
        would bypass the override, so the sweep declines."""
        events = generate_stock_stream(StockConfig(num_events=600, seed=3))
        pattern = Pattern.sequence(["S0", "S1", "S2"], window=20.0,
                                   condition=Never("p1", "p2", -1.0))
        swept, ran = swept_statistics(pattern, events)
        assert not ran
        assert swept.selectivities[1] == 0.0
        assert swept == pair_loop_statistics(pattern, events)


class Never(CorrelationCondition):
    """A correlation condition whose own ``evaluate`` rejects every
    binding."""

    def evaluate(self, binding):
        return False


# --------------------------------------------------------------------- #
# Where the sweep declines                                               #
# --------------------------------------------------------------------- #

LETTERS = {name: EventType(name) for name in "ABC"}


def lettered_stream(count: int = 120, seed: int = 1) -> list[Event]:
    """An in-order stream of A, B and C events with an int ``x`` and a
    four-value ``history``; ties and exact correlations are common."""
    rng = random.Random(seed)
    events, timestamp = [], 0.0
    for index in range(count):
        timestamp += rng.choice((0.0, 0.5, 1.0))
        events.append(Event(
            LETTERS[rng.choice("ABC")], timestamp,
            {"x": rng.randrange(4),
             "history": [float(rng.randrange(4)) for _ in range(4)]},
            event_id=index,
        ))
    return events


def lettered_pattern(window=3.0, condition=None, **options) -> Pattern:
    if condition is None:
        condition = AndCondition((
            CorrelationCondition("p1", "p2", 0.0),
            AttributeCondition("p2", "x", "<=", "p3", "x"),
        ))
    return Pattern.sequence(["A", "B", "C"], window=window,
                            condition=condition, **options)


def changed(events, index, **fields) -> list[Event]:
    """*events* with event *index* rebuilt from *fields*; ``attributes``
    are merged into the event's own."""
    event = events[index]
    attributes = {**event.attributes, **fields.pop("attributes", {})}
    for name in fields.pop("drop", ()):
        del attributes[name]
    rebuilt = Event(fields.pop("type", event.type),
                    fields.pop("timestamp", event.timestamp), attributes,
                    event_id=fields.pop("event_id", event.event_id))
    assert not fields
    return events[:index] + [rebuilt] + events[index + 1:]


def of_type(events, name: str) -> int:
    """The index of the first event of type *name*."""
    return next(i for i, event in enumerate(events) if event.type.name == name)


def _declined_cases():
    base = lettered_stream()
    b, c = of_type(base, "B"), of_type(base, "C")
    history = "history"
    return {
        "out_of_order": (lettered_pattern(), changed(
            base, 40, timestamp=base[39].timestamp - 0.25)),
        "nan_timestamp": (lettered_pattern(), changed(
            base, 40, timestamp=math.nan)),
        "infinite_timestamp": (lettered_pattern(), changed(
            base, len(base) - 1, timestamp=math.inf)),
        "int_timestamps_beyond_exact_floats": (lettered_pattern(), [
            Event(e.type, 2**53 + int(2 * e.timestamp), e.attributes,
                  event_id=e.event_id) for e in base]),
        "int_window_beyond_exact_floats": (
            lettered_pattern(window=2**60), base),
        "id_beyond_int64": (lettered_pattern(), changed(
            base, 40, event_id=2**63)),
        "id_not_an_int": (lettered_pattern(), [
            Event(e.type, e.timestamp, e.attributes, event_id=e.event_id + 0.5)
            for e in base]),
        "kleene_stage": (lettered_pattern(kleene=[1]), base),
        "kleene_first_stage": (lettered_pattern(kleene=[0]), base),
        "no_kernel": (lettered_pattern(condition=PairwiseCondition(
            "p1", "p2", lambda a, b: a["x"] < b["x"])), base),
        "overridden_evaluate": (lettered_pattern(
            condition=Never("p1", "p2", -1.0)), base),
        "missing_attribute": (lettered_pattern(), changed(
            base, b, drop=[history])),
        "history_not_a_sequence": (lettered_pattern(), changed(
            base, b, attributes={history: 1.5})),
        "ragged_history": (lettered_pattern(), changed(
            base, b, attributes={history: [1.0, 2.0]})),
        "history_lengths_differ_by_type": (
            lettered_pattern(condition=CorrelationCondition("p2", "p3", 0.0)),
            [Event(e.type, e.timestamp,
                   {**e.attributes, history: e[history] + [0.0]},
                   event_id=e.event_id) if e.type.name == "C" else e
             for e in base]),
        "non_finite_history": (lettered_pattern(), changed(
            base, b, attributes={history: [1.0, math.nan, 2.0, 0.0]})),
        "fraction_history": (lettered_pattern(), changed(
            base, b, attributes={history: [Fraction(1, 3), 2, 0, 1]})),
        "mixed_value_kinds": (lettered_pattern(
            condition=AttributeCondition("p1", "x", "!=", "p2", "x")),
            changed(base, b, attributes={"x": "one"})),
        "int_values_beyond_exact_floats": (lettered_pattern(), changed(
            base, c, attributes={"x": 2**60})),
    }


DECLINED_CASES = _declined_cases()


def outcome(call):
    """What *call* returns as a repr, or the type of what it raises."""
    try:
        return repr(call())
    except Exception as exc:  # noqa: BLE001 - the outcome is the point
        return type(exc)


class TestSweepDeclines:
    """Each condition under which the sweep could not be exact sends the
    sample to the event loop, whose statistics (or exception) the call
    returns."""

    def test_the_base_case_is_swept(self):
        pytest.importorskip("numpy")
        pattern, sample = lettered_pattern(), lettered_stream()
        swept, ran = swept_statistics(pattern, sample)
        assert ran
        assert swept == pair_loop_statistics(pattern, sample)

    @pytest.mark.parametrize("name", sorted(DECLINED_CASES))
    def test_declines(self, name):
        pattern, sample = DECLINED_CASES[name]
        assert statistics._sweep(compile_pattern(pattern), sample) is None
        assert outcome(lambda: estimate_statistics(pattern, sample)) == \
            outcome(lambda: pair_loop_statistics(pattern, sample))

    @pytest.mark.parametrize("missing", [False, True])
    def test_a_raising_check_raises_as_in_the_event_loop(self, missing):
        """A stage-0 check raises from 30.0 on.  With every column
        sound, the sweep raises it too; when a B event at 10.0 misses the
        attribute a stage-1 conjunct reads, the event loop raises for
        that pair first, and so does the call."""
        pytest.importorskip("numpy")
        condition = AndCondition((
            UnaryCondition("p1", lambda e: 1 / (e.timestamp < 30.0)),
            AttributeCondition("p1", "x", "<=", "p2", "x"),
        ))
        pattern, sample = lettered_pattern(condition=condition), \
            lettered_stream()
        if missing:
            early = next(i for i, e in enumerate(sample)
                         if e.type.name == "B" and e.timestamp >= 10.0)
            sample = changed(sample, early, drop=["x"])
        expected = ConditionError if missing else ZeroDivisionError
        assert outcome(lambda: pair_loop_statistics(pattern, sample)) is \
            expected
        assert outcome(lambda: estimate_statistics(pattern, sample)) is \
            expected

    def test_declines_without_numpy(self, monkeypatch):
        monkeypatch.setattr(vec, "np", None)
        pattern, sample = lettered_pattern(), lettered_stream()
        assert statistics._sweep(compile_pattern(pattern), sample) is None

    def test_declines_a_history_longer_than_the_dot_bound(self):
        pytest.importorskip("numpy")
        long = [0.5] * (vec.MAX_HISTORY + 1)
        sample = [Event(LETTERS[name], float(t), {"x": 0, "history": long})
                  for t, name in enumerate("ABC")]
        assert statistics._sweep(compile_pattern(lettered_pattern()),
                                 sample) is None


# --------------------------------------------------------------------- #
# The sweep against the pair loop on random streams                      #
# --------------------------------------------------------------------- #

VALUE_KINDS = {
    "int": st.integers(-2, 2),
    "float": st.sampled_from([-1.5, -0.0, 0.0, 0.5, 2.0, math.nan]),
    "str": st.sampled_from(["", "a", "ab", "b"]),
}
OPERATORS = ["<", "<=", ">", ">=", "==", "!="]


@st.composite
def sweep_cases(draw):
    """A SEQ pattern of two to four stages over types A-C (a type may
    stand at two stages) with correlation and attribute conjuncts, and an
    in-order stream of whole-number timestamps with ties, ids rising,
    falling or shuffled, and ``x`` values of one kind."""
    length = draw(st.integers(2, 4))
    types = draw(st.lists(st.sampled_from("ABC"), min_size=length,
                          max_size=length))
    conjuncts = []
    for index in range(1, length):
        for _ in range(draw(st.integers(0, 2))):
            here, there = f"p{index + 1}", f"p{draw(st.integers(1, index))}"
            left, right = draw(st.permutations([here, there]))
            if draw(st.booleans()):
                conjuncts.append(CorrelationCondition(
                    left, right,
                    draw(st.sampled_from([-1.0, -0.5, 0.0, 0.5, 0.8, 1.0]))))
            else:
                conjuncts.append(AttributeCondition(
                    left, "x", draw(st.sampled_from(OPERATORS)), right, "x"))
    window = float(draw(st.integers(1, 4)))
    condition = AndCondition(tuple(conjuncts)) if conjuncts else None
    pattern = Pattern.sequence(list(types), window=window,
                               condition=condition)
    count = draw(st.integers(0, 40))
    values = VALUE_KINDS[draw(st.sampled_from(sorted(VALUE_KINDS)))]
    width = draw(st.integers(1, 4))
    ids = draw(st.sampled_from(["rising", "falling", "shuffled"]))
    order = list(range(count))
    if ids == "falling":
        order.reverse()
    elif ids == "shuffled":
        order = draw(st.permutations(order))
    whole = draw(st.sampled_from([float, int]))
    events, timestamp = [], 0
    for index in range(count):
        timestamp += draw(st.sampled_from([0, 0, 1, 2]))
        events.append(Event(
            LETTERS[draw(st.sampled_from("ABC"))], whole(timestamp),
            {"x": draw(values),
             "history": [float(v) for v in draw(st.lists(
                 st.integers(0, 3), min_size=width, max_size=width))]},
            event_id=order[index],
        ))
    return pattern, events


@settings(deadline=None)
@given(case=sweep_cases())
def test_sweep_property_equals_the_pair_loop(case):
    """CI's pattern-oracle job runs this under the ``deep`` profile."""
    pattern, sample = case
    swept, ran = swept_statistics(pattern, sample)
    assert ran == vec.have_numpy()
    loop = pair_loop_statistics(pattern, sample)
    assert swept == loop
    assert repr(swept) == repr(loop)
