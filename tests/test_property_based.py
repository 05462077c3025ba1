"""Property-based tests (hypothesis) on core invariants.

These cover the load-bearing data structures and the headline end-to-end
property: every parallel execution strategy emits exactly the sequential
match set, for arbitrary in-order streams and a family of patterns.
"""

from __future__ import annotations

import math

from hypothesis import given, settings, strategies as st

from repro.core import (
    Event,
    EventType,
    Match,
    PartialMatch,
    Pattern,
    match_key,
    pearson_correlation,
)
from repro.costmodel import proportional_allocation
from repro.engine import SequentialEngine, diff_match_sets
from repro.hypersonic import HypersonicConfig, HypersonicEngine, WorkItem, WorkQueue
from repro.baselines import LLSFEngine, RIPEngine
from repro.simulator import PartitionSimulation

TYPES = {name: EventType(name) for name in "ABCX"}


# --------------------------------------------------------------------- #
# Stream generation                                                      #
# --------------------------------------------------------------------- #

@st.composite
def event_streams(draw, max_events=120):
    count = draw(st.integers(min_value=0, max_value=max_events))
    gaps = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
            min_size=count, max_size=count,
        )
    )
    names = draw(
        st.lists(st.sampled_from("ABCX"), min_size=count, max_size=count)
    )
    xs = draw(
        st.lists(st.integers(min_value=0, max_value=5),
                 min_size=count, max_size=count)
    )
    events = []
    timestamp = 0.0
    for gap, name, x in zip(gaps, names, xs):
        timestamp += gap
        events.append(Event(TYPES[name], timestamp, {"x": x}))
    return events


PATTERNS = [
    Pattern.sequence(["A", "B"], window=4.0),
    Pattern.sequence(["A", "B", "C"], window=5.0),
    Pattern.sequence(["A", "B", "C"], window=4.0, kleene=[1]),
    Pattern.sequence(["A", "X", "B"], window=4.0, negated=[1]),
    Pattern.sequence(["A", "B", "X"], window=4.0, negated=[2]),
]


def sequential_reference(pattern, events):
    engine = SequentialEngine(pattern)
    matches = []
    for event in events:
        matches.extend(engine.process(event))
    matches.extend(engine.close())
    return matches


# --------------------------------------------------------------------- #
# End-to-end equivalence                                                 #
# --------------------------------------------------------------------- #

@settings(max_examples=25, deadline=None)
@given(events=event_streams(), pattern_index=st.integers(0, len(PATTERNS) - 1),
       units=st.integers(2, 9))
def test_hybrid_equals_sequential(events, pattern_index, units):
    pattern = PATTERNS[pattern_index]
    reference = sequential_reference(pattern, events)
    got = HypersonicEngine(
        pattern, num_units=units, config=HypersonicConfig(agent_dynamic=True)
    ).run(events)
    assert diff_match_sets(reference, got).equivalent


@settings(max_examples=15, deadline=None)
@given(events=event_streams(), pattern_index=st.integers(0, len(PATTERNS) - 1),
       units=st.integers(1, 5), chunk=st.integers(5, 60))
def test_rip_equals_sequential(events, pattern_index, units, chunk):
    pattern = PATTERNS[pattern_index]
    reference = sequential_reference(pattern, events)
    sim = PartitionSimulation(
        RIPEngine(pattern, num_units=units, chunk_size=chunk)
    )
    sim.run(events)
    assert diff_match_sets(reference, sim.matches).equivalent


@settings(max_examples=15, deadline=None)
@given(events=event_streams(), pattern_index=st.integers(0, len(PATTERNS) - 1),
       units=st.integers(1, 5))
def test_llsf_equals_sequential(events, pattern_index, units):
    pattern = PATTERNS[pattern_index]
    reference = sequential_reference(pattern, events)
    sim = PartitionSimulation(LLSFEngine(pattern, num_units=units))
    sim.run(events)
    assert diff_match_sets(reference, sim.matches).equivalent


# --------------------------------------------------------------------- #
# Match invariants                                                       #
# --------------------------------------------------------------------- #

@settings(max_examples=25, deadline=None)
@given(events=event_streams(max_events=80),
       pattern_index=st.integers(0, len(PATTERNS) - 1))
def test_sequential_match_invariants(events, pattern_index):
    pattern = PATTERNS[pattern_index]
    matches = sequential_reference(pattern, events)
    keys = set()
    for match in matches:
        # No duplicates.
        assert match.key not in keys
        keys.add(match.key)
        # Window respected.
        assert match.latest - match.earliest <= pattern.window + 1e-9
        # SEQ temporal order of positive positions.
        last = None
        for item in pattern.positive_items():
            bound = match[item.name]
            first_event = bound[0] if isinstance(bound, tuple) else bound
            last_event = bound[-1] if isinstance(bound, tuple) else bound
            if last is not None:
                assert (last.timestamp, last.event_id) < (
                    first_event.timestamp, first_event.event_id,
                )
            # Types bound correctly.
            for event in (bound if isinstance(bound, tuple) else (bound,)):
                assert event.type.name == item.event_type.name
            last = last_event


# --------------------------------------------------------------------- #
# Data structures                                                        #
# --------------------------------------------------------------------- #

@settings(max_examples=100, deadline=None)
@given(
    operations=st.lists(
        st.one_of(
            st.tuples(st.just("push"),
                      st.floats(min_value=0, max_value=100)),
            st.tuples(st.just("pop"), st.just(0.0)),
        ),
        max_size=200,
    )
)
def test_workqueue_min_tracking(operations):
    queue = WorkQueue("prop")
    shadow: list[float] = []
    for op, value in operations:
        if op == "push":
            queue.push(WorkItem.event(Event(TYPES["A"], value)))
            shadow.append(value)
        else:
            item = queue.pop()
            if shadow:
                assert item is not None
                shadow.pop(0)
            else:
                assert item is None
        expected = min(shadow) if shadow else None
        if expected is None:
            assert queue.min_event_time() is None
        else:
            assert queue.min_event_time() == expected


@settings(max_examples=100, deadline=None)
@given(
    loads=st.lists(st.floats(min_value=0, max_value=1000), min_size=1,
                   max_size=12),
    extra=st.integers(min_value=0, max_value=40),
)
def test_proportional_allocation_properties(loads, extra):
    total = len(loads) + extra
    allocation = proportional_allocation(loads, total)
    assert sum(allocation) == total
    assert all(count >= 1 for count in allocation)
    # Heavier loads never receive drastically fewer units than lighter
    # ones (monotone up to rounding by one).
    for i in range(len(loads)):
        for j in range(len(loads)):
            if loads[i] >= loads[j]:
                assert allocation[i] >= allocation[j] - (1 + extra // 4)


@settings(max_examples=100, deadline=None)
@given(
    xs=st.lists(st.floats(min_value=-100, max_value=100), min_size=2,
                max_size=30),
    ys=st.lists(st.floats(min_value=-100, max_value=100), min_size=2,
                max_size=30),
)
def test_pearson_bounded_and_symmetric(xs, ys):
    size = min(len(xs), len(ys))
    xs, ys = xs[:size], ys[:size]
    value = pearson_correlation(xs, ys)
    assert -1.0 - 1e-9 <= value <= 1.0 + 1e-9
    assert pearson_correlation(ys, xs) == value
    assert not math.isnan(value)


@settings(max_examples=60, deadline=None)
@given(
    stamps=st.lists(
        st.floats(min_value=0, max_value=50, allow_nan=False),
        min_size=1, max_size=8, unique=True,
    )
)
def test_partial_match_extremes(stamps):
    events = [Event(TYPES["A"], stamp) for stamp in sorted(stamps)]
    pm = PartialMatch.of("p1", events[0])
    for index, event in enumerate(events[1:], start=2):
        pm = pm.extended(f"p{index}", event)
    assert pm.earliest == min(stamps)
    assert pm.latest == max(stamps)
    assert pm.event_count() == len(stamps)
    match = Match.from_partial(pm)
    assert match.key == match_key(pm.binding)


# --------------------------------------------------------------------- #
# Oracle properties                                                      #
# --------------------------------------------------------------------- #
#
# The brute-force oracle (tests/oracle.py) is itself a test asset, so it
# gets definitional properties of its own: Kleene+ is the union of all
# fixed-length SEQ expansions, negation over a stream with no negated
# events degenerates to the plain pattern, and the selection/consumption
# policies are pure refinements (subsets) of the skip-till-any set.

from tests.oracle import oracle_keys  # noqa: E402


@settings(max_examples=20, deadline=None)
@given(events=event_streams(max_events=40),
       window=st.sampled_from([3.0, 5.0]))
def test_oracle_kleene_is_union_of_fixed_length_expansions(events, window):
    kleene = Pattern.sequence(["A", "B", "C"], window=window, kleene=[1])
    expected = oracle_keys(kleene, events)
    union = set()
    num_b = sum(1 for event in events if event.type.name == "B")
    for n in range(1, num_b + 1):
        names = ["p1"] + [f"k{j}" for j in range(n)] + ["p3"]
        expansion = Pattern.sequence(
            ["A"] + ["B"] * n + ["C"], window=window, names=names
        )
        for key in oracle_keys(expansion, events):
            parts = dict(key)
            union.add((
                ("p1", parts["p1"]),
                ("p2", tuple(parts[f"k{j}"] for j in range(n))),
                ("p3", parts["p3"]),
            ))
    assert union == expected


@settings(max_examples=25, deadline=None)
@given(events=event_streams(max_events=60),
       window=st.sampled_from([3.0, 6.0]))
def test_oracle_negation_over_empty_negated_stream_is_plain(events, window):
    events = [event for event in events if event.type.name != "X"]
    negated = Pattern.sequence(
        ["A", "X", "B"], window=window, names=["p1", "p2", "p3"],
        negated=[1],
    )
    plain = Pattern.sequence(["A", "B"], window=window, names=["p1", "p3"])
    assert oracle_keys(negated, events) == oracle_keys(plain, events)


@settings(max_examples=20, deadline=None)
@given(events=event_streams(max_events=50), with_kleene=st.booleans(),
       window=st.sampled_from([3.0, 5.0]))
def test_oracle_policies_refine_skip_till_any(events, with_kleene, window):
    kwargs = {"kleene": [1]} if with_kleene else {}
    def build(selection, consumption):
        return Pattern.sequence(
            ["A", "B", "C"], window=window, selection=selection,
            consumption=consumption, **kwargs,
        )
    stam = oracle_keys(build("skip-till-any-match", "reuse"), events)
    stnm = oracle_keys(build("skip-till-next-match", "reuse"), events)
    consume = oracle_keys(build("skip-till-any-match", "consume"), events)
    both = oracle_keys(build("skip-till-next-match", "consume"), events)
    assert stnm <= stam
    assert consume <= stam
    assert both <= stam


@settings(max_examples=20, deadline=None)
@given(events=event_streams(max_events=60),
       pattern_index=st.integers(0, len(PATTERNS) - 1))
def test_oracle_equals_sequential_engine(events, pattern_index):
    from repro.core.policies import resolve_matches

    pattern = PATTERNS[pattern_index]
    resolved = resolve_matches(
        pattern, sequential_reference(pattern, events)
    )
    assert {match.key for match in resolved} == oracle_keys(pattern, events)


# --------------------------------------------------------------------- #
# The window bound                                                       #
# --------------------------------------------------------------------- #

from repro.baselines import JSQEngine, RREngine  # noqa: E402
from repro.simulator import SequentialSimEngine  # noqa: E402
from tests.conftest import boundary_streams  # noqa: E402

#: name -> (the pattern's event types, its builder for a drawn window):
#: SEQ patterns with and without negation, and one with a Kleene stage.
BOUNDARY_PATTERNS = {
    "seq2": ("AB", lambda w: Pattern.sequence(["A", "B"], window=w)),
    "seq3": ("ABC", lambda w: Pattern.sequence(["A", "B", "C"], window=w)),
    "internal_guard": ("AXB", lambda w: Pattern.sequence(
        ["A", "X", "B"], window=w, negated=[1])),
    "trailing_guard": ("ABX", lambda w: Pattern.sequence(
        ["A", "B", "X"], window=w, negated=[2])),
    "kleene": ("ABC", lambda w: Pattern.sequence(
        ["A", "B", "C"], window=w, kleene=[1])),
}

#: Every partition strategy of the partition simulator, RIP at the chunk
#: sizes whose spans end closest to the events they own.
BOUNDARY_PARTITIONS = {
    **{f"rip{chunk}": (lambda p, chunk=chunk: RIPEngine(p, 2, chunk_size=chunk))
       for chunk in (1, 2, 3, 4)},
    "rr": lambda p: RREngine(p, 2),
    "jsq": lambda p: JSQEngine(p, 2),
    "llsf": lambda p: LLSFEngine(p, 2),
    "sequential": SequentialSimEngine,
}


@settings(deadline=None)
@given(name=st.sampled_from(sorted(BOUNDARY_PATTERNS)), data=st.data())
def test_oracle_agrees_with_every_engine_on_window_bound_gaps(name, data):
    """On gaps that round to either side of the window, the oracle, the
    sequential engine, the hybrid engine and every partition strategy
    find the same matches.  The example budget is the Hypothesis
    profile's (``HYPOTHESIS_PROFILE``, tests/conftest.py)."""
    type_names, build_pattern = BOUNDARY_PATTERNS[name]
    window, events = data.draw(boundary_streams(type_names))
    pattern = build_pattern(window)
    expected = oracle_keys(pattern, events)
    found = {
        "sequential_engine": sequential_reference(pattern, events),
        "hypersonic_engine": HypersonicEngine(pattern, num_units=4)
        .run(events),
    }
    for strategy, build in BOUNDARY_PARTITIONS.items():
        sim = PartitionSimulation(build(pattern))
        sim.run(events)
        found[strategy] = sim.matches
    for engine, matches in found.items():
        assert {match.key for match in matches} == expected, engine
