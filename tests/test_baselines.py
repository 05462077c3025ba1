"""Tests for the baseline parallelization strategies."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import TYPES, make_stream, reference_matches
from tests.oracle import oracle_keys
from repro.core import Event, Pattern
from repro.core.streams import Lookahead, as_source
from repro.engine import assert_equivalent
from repro.baselines import (
    JSQEngine,
    LLSFEngine,
    RIPEngine,
    RREngine,
    StateParallelEngine,
)
from repro.simulator import (
    PartitionSimulation,
    SequentialSimEngine,
    simulate,
)

PATTERNS = [
    Pattern.sequence(["A", "B", "C"], window=6.0),
    Pattern.sequence(["A", "B", "C"], window=5.0, kleene=[1]),
    Pattern.sequence(["A", "X", "B"], window=6.0, negated=[1]),
    Pattern.sequence(["A", "B", "X"], window=5.0, negated=[2]),
]

ENGINES = [RIPEngine, RREngine, JSQEngine, LLSFEngine]
SEGMENT_ENGINES = [RREngine, JSQEngine, LLSFEngine]

#: Streams on which rounding at a window-segment bound decides a match:
#: name -> (pattern, (type, timestamp) stream, reference match count).
BOUNDARY_CASES = {
    # (2.3 - 0.3) / 1.0 rounds to 1.9999999999999998, but A@2.3 is owned
    # by the segment that starts at 0.3 + 2 * 1.0 == 2.3.
    "owner_misses_its_event": (
        Pattern.sequence(["A", "B"], window=1.0),
        (("A", 0.3), ("A", 1.3), ("A", 2.3), ("B", 2.5)), 1,
    ),
    # X@2.0 voids A@0.9999999999999999 + B@1.5 (0.9999999999999999 + 1.0
    # rounds to 2.0) but is the first event of segment 2.
    "guard_past_the_next_bound": (
        Pattern.sequence(["A", "B", "X"], window=1.0, negated=[2]),
        (("A", 0.0), ("A", 0.9999999999999999), ("B", 1.5), ("X", 2.0)), 0,
    ),
}


#: Streams on which rounding at the window bound decides whether a span
#: must reach an event: name -> (pattern, (type, timestamp) stream,
#: reference match count).
REACH_CASES = {
    # B - A is exactly 1.1, but A + 1.1 rounds below B: a span that stops
    # after ``last + window`` leaves out the B that joins A.
    "join_by_difference": (
        Pattern.sequence(["A", "B"], window=1.1),
        (("A", 0.13835612642182593), ("B", 1.2383561264218261)), 1,
    ),
    # X - A is 0.20000000000000004, but A + 0.2 rounds to X, which voids
    # A + B as a trailing guard (``ts <= earliest + window``): a span that
    # stops after ``event - last > window`` leaves it out.
    "guard_by_sum": (
        Pattern.sequence(["A", "B", "X"], window=0.2, negated=[2]),
        (("A", 0.1), ("B", 0.15), ("X", 0.30000000000000004)), 0,
    ),
}


def simulated(engine, events):
    """Run *engine* through the partition simulator: (result, matches)."""
    sim = PartitionSimulation(engine)
    result = sim.run(events)
    return result, sim.matches


@pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p.describe())
@pytest.mark.parametrize("engine_cls", ENGINES)
def test_partitioned_equivalence(pattern, engine_cls):
    events = make_stream(num_events=600, seed=21)
    reference = reference_matches(pattern, events)
    _, got = simulated(engine_cls(pattern, num_units=4), events)
    assert_equivalent(reference, got, engine_cls.__name__)


@pytest.mark.parametrize("pattern", PATTERNS[:2], ids=lambda p: p.describe())
def test_state_parallel_equivalence(pattern):
    events = make_stream(num_events=500, seed=22)
    reference = reference_matches(pattern, events)
    engine = StateParallelEngine(pattern)
    got = engine.run(events)
    assert_equivalent(reference, got, "state-parallel")
    assert engine.num_agents == 2


# --------------------------------------------------------------------- #
# Spans                                                                  #
# --------------------------------------------------------------------- #

@st.composite
def gappy_streams(draw):
    """A window and an in-order stream whose gaps may exceed it, so some
    window segments hold no event of their own.  A step either adds a
    gap or moves to a segment bound ahead, nudged by at most one ulp,
    where rounding decides which segment an event falls in."""
    window = draw(st.floats(min_value=0.1, max_value=4.0))
    origin = draw(st.floats(min_value=0.0, max_value=10.0))
    steps = draw(st.lists(st.one_of(
        st.floats(min_value=0.0, max_value=3 * window),
        st.tuples(st.integers(1, 3), st.integers(-1, 1)),
    ), max_size=25))
    events = [Event(TYPES["A"], origin, {})]
    timestamp = origin
    for step in steps:
        if isinstance(step, tuple):
            ahead, nudge = step
            segment = int((timestamp - origin) / window) + ahead
            bound = origin + segment * window
            if nudge:
                bound = math.nextafter(bound, nudge * math.inf)
            timestamp = max(timestamp, bound)
        else:
            timestamp += step
        events.append(Event(TYPES["A"], timestamp, {}))
    return window, events


SPAN_STRATEGIES = {
    "rip": lambda pattern, chunk: RIPEngine(pattern, 2, chunk_size=chunk),
    "rr": lambda pattern, chunk: RREngine(pattern, 2),
    "jsq": lambda pattern, chunk: JSQEngine(pattern, 2),
    "llsf": lambda pattern, chunk: LLSFEngine(pattern, 2),
    "sequential": lambda pattern, chunk: SequentialSimEngine(pattern),
}


@settings(max_examples=300, deadline=None)
@given(stream=gappy_streams(),
       strategy=st.sampled_from(sorted(SPAN_STRATEGIES)),
       chunk=st.integers(min_value=1, max_value=20))
def test_spans_own_each_event_once_with_its_window(stream, strategy, chunk):
    """Spans arrive in ``begin`` order, every event has exactly one owning
    span, and that span holds the event and every later event within one
    window of it: by the difference the window test and the pool purges
    compute, or by the sum a trailing negation guard computes, which
    rounding can each make hold alone — so the owner sees every match the
    event starts and every event that can void one."""
    window, events = stream
    pattern = Pattern.sequence(["A", "B"], window=window)
    engine = SPAN_STRATEGIES[strategy](pattern, chunk)
    spans = list(engine.spans(Lookahead(as_source(events))))
    begins = [span.begin for span in spans]
    assert begins == sorted(begins)
    for position, event in enumerate(events):
        key = (event.timestamp, event.event_id)
        owners = [
            span for span in spans
            if (span.own_start, span.own_start_id) <= key
            < (span.own_end, span.own_end_id)
        ]
        assert len(owners) == 1, (position, owners)
        owner = owners[0]
        for later in range(position, len(events)):
            timestamp = events[later].timestamp
            if (timestamp - event.timestamp > window
                    and timestamp > event.timestamp + window):
                break
            assert owner.contains(later), (position, later, owner)


@pytest.mark.parametrize("strategy", ["sequential", "hypersonic", "state",
                                      "rip", "rr", "jsq", "llsf"])
@pytest.mark.parametrize("case", sorted(REACH_CASES))
def test_window_bound_keeps_the_reference_matches(case, strategy):
    pattern, stream, count = REACH_CASES[case]
    events = [Event(TYPES[name], timestamp, {}) for name, timestamp in stream]
    assert len(oracle_keys(pattern, events)) == count
    for chunk in (1, 2) if strategy == "rip" else (256,):
        result = simulate(strategy, pattern, events, 4, chunk_size=chunk)
        assert result.matches == count, chunk


class TestRIPStructure:
    def test_duplication_grows_with_window(self):
        events = make_stream(num_events=400, seed=24)

        def dup(window):
            engine = RIPEngine(
                Pattern.sequence(["A", "B"], window=window),
                num_units=3,
                chunk_size=40,
            )
            return simulated(engine, events)[0].duplication_factor

        assert dup(20.0) > dup(2.0)

    def test_round_robin_assignment(self):
        pattern = Pattern.sequence(["A", "B"], window=2.0)
        engine = RIPEngine(pattern, num_units=3, chunk_size=10)
        events = make_stream(num_events=100, seed=25)
        result, _ = simulated(engine, events)
        assert all(busy > 0 for busy in result.unit_busy)

    def test_invalid_chunk_size(self):
        with pytest.raises(ValueError):
            RIPEngine(Pattern.sequence(["A", "B"], window=1.0), 2, chunk_size=0)


class TestWindowSegments:
    def test_duplication_factor_about_two(self):
        pattern = Pattern.sequence(["A", "B"], window=5.0)
        engine = LLSFEngine(pattern, num_units=4)
        result, _ = simulated(engine, make_stream(num_events=600, seed=26))
        assert 1.5 <= result.duplication_factor <= 2.2

    def test_llsf_balances_load(self):
        pattern = Pattern.sequence(["A", "B"], window=5.0)
        engine = LLSFEngine(pattern, num_units=2)
        result, _ = simulated(engine, make_stream(num_events=800, seed=27))
        loads = result.unit_busy
        assert min(loads) > 0
        assert max(loads) < 5 * min(loads)

    def test_jsq_uses_all_units(self):
        pattern = Pattern.sequence(["A", "B"], window=5.0)
        engine = JSQEngine(pattern, num_units=3)
        result, _ = simulated(engine, make_stream(num_events=900, seed=28))
        assert all(busy > 0 for busy in result.unit_busy)

    def test_empty_stream(self):
        pattern = Pattern.sequence(["A", "B"], window=5.0)
        result, matches = simulated(RREngine(pattern, 2), [])
        assert matches == []
        assert result.matches == 0

    def test_metrics_populated(self):
        pattern = Pattern.sequence(["A", "B"], window=5.0)
        result, matches = simulated(
            RREngine(pattern, 3), make_stream(num_events=300, seed=29)
        )
        assert result.events == 300
        assert result.extra["partitions"] > 1
        assert result.total_comparisons > 0
        assert result.matches == len(matches)

    @pytest.mark.parametrize("engine_cls", SEGMENT_ENGINES)
    @pytest.mark.parametrize("case", sorted(BOUNDARY_CASES))
    def test_boundary_events_keep_the_reference_matches(self, case,
                                                        engine_cls):
        pattern, stream, count = BOUNDARY_CASES[case]
        events = [
            Event(TYPES[name], timestamp, {}) for name, timestamp in stream
        ]
        reference = reference_matches(pattern, events)
        assert len(reference) == count
        _, got = simulated(engine_cls(pattern, num_units=2), events)
        assert_equivalent(reference, got, engine_cls.__name__)

    def test_invalid_unit_count(self):
        with pytest.raises(ValueError):
            RREngine(Pattern.sequence(["A", "B"], window=1.0), 0)
