"""The one candidate test, :func:`repro.core.nfa.seq_candidates`, against
the definitions it writes out, and the bisect count of the pools it scans.

The function decides which buffered partials may take a new event in the
sequential engine, the planner's sampler and the agents (DESIGN §2s).  It
spells ``max``, ``min`` and the SEQ-order tuple comparison out, so it is
held here to ``fits_with`` and :func:`seq_order_allows` on the values
where the spelling could differ: ties, ids, infinities and NaN, the same
NaN object on both sides, Kleene tuples and Kleene loop-backs.
"""

from __future__ import annotations

import math
from unittest import mock

from hypothesis import example, given, settings, strategies as st

from repro.core import Event, EventType, Pattern
from repro.core.conditions import AttributeCondition
from repro.core.matches import PartialMatch
from repro.core.nfa import (
    compile_pattern,
    count_seq_candidates,
    seq_candidates,
    seq_order_allows,
)
from repro.costmodel import statistics
from repro.engine import SequentialEngine, sequential

from tests.conftest import boundary_streams

TYPES = {name: EventType(name) for name in "ABC"}
NAN = float("nan")

#: Timestamps where a written-out comparison could part from the builtin:
#: ties, signed zeros, infinities, one shared NaN object and fresh NaNs.
TIMESTAMPS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 1.5, 2.0, math.inf, -math.inf, NAN]),
    st.builds(lambda: float("nan")),
    st.floats(min_value=-4.0, max_value=4.0),
)
IDS = st.integers(min_value=0, max_value=3)
EVENTS = st.builds(Event, st.sampled_from(list(TYPES.values())), TIMESTAMPS,
                   st.just({}), IDS)


def _fits(partial: PartialMatch, event: Event, window: float) -> bool:
    """The window test with the builtin ``max`` and ``min``."""
    timestamp = event.timestamp
    return (max(partial.latest, timestamp) - min(partial.earliest, timestamp)
            <= window)


def reference(partials, stages, index, event, window):
    """``fits_with`` and ``seq_order_allows``, partial by partial, with the
    agents' rule for a partial that already binds the stage's position: a
    Kleene loop-back, ordered by its tuple's last event."""
    stage = stages[index]
    position = stage.item.name
    kept = []
    for partial in partials:
        fits = _fits(partial, event, window)
        assert partial.fits_with(event, window) == fits
        if not fits:
            continue
        if position in partial.binding:
            if not stage.is_kleene:
                continue
            bound = partial.binding[position]
            last = bound[-1] if isinstance(bound, tuple) else bound
            if not ((last.timestamp, last.event_id)
                    < (event.timestamp, event.event_id)):
                continue
        elif not seq_order_allows(partial, stages, index, event):
            continue
        kept.append(partial)
    return kept


@st.composite
def partial_pools(draw):
    """A pattern, a stage index, a pool of partials whose bindings and
    bounds are drawn independently, an event and a window."""
    kleene = draw(st.sampled_from([(), (0,), (1,), (0, 1)]))
    pattern = Pattern.sequence(["A", "B", "C"], window=1.0, kleene=kleene)
    stages = compile_pattern(pattern).stages
    index = draw(st.integers(min_value=1, max_value=2))

    def bound(position: int):
        if position in kleene:
            return tuple(draw(st.lists(EVENTS, min_size=1, max_size=3)))
        return draw(EVENTS)

    pool = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        # Bind the stages before *index*, and sometimes the stage itself,
        # which makes the partial a loop-back on a Kleene stage.
        upto = index + draw(st.integers(min_value=0, max_value=1))
        binding = {stages[i].item.name: bound(i) for i in range(upto)}
        pool.append(PartialMatch(binding, draw(TIMESTAMPS), draw(TIMESTAMPS)))
    event = draw(EVENTS)
    window = draw(st.one_of(st.sampled_from([0.5, 1.0, math.inf]),
                            st.floats(min_value=0.01, max_value=8.0)))
    return stages, index, pool, event, window


@settings(max_examples=400, deadline=None)
@given(case=partial_pools())
@example(case=(
    # One NaN object on both sides: the tuple comparison treats it as a
    # tie, by identity, and lets the ids decide.
    compile_pattern(Pattern.sequence(["A", "B"], window=1.0)).stages, 1,
    [PartialMatch({"p1": Event(TYPES["A"], NAN, {}, 1)}, 0.0, 0.0)],
    Event(TYPES["B"], NAN, {}, 2), 1.0,
))
def test_seq_candidates_equals_fits_with_and_seq_order(case):
    stages, index, pool, event, window = case
    got = seq_candidates(pool, stages, index, event, window)
    want = reference(pool, stages, index, event, window)
    assert [id(partial) for partial in got] == [id(partial) for partial in want]


def test_shared_nan_is_a_tie_settled_by_id():
    stages = compile_pattern(Pattern.sequence(["A", "B"], window=1.0)).stages
    partial = PartialMatch({"p1": Event(TYPES["A"], NAN, {}, 1)}, 0.0, 0.0)
    assert seq_candidates([partial], stages, 1,
                          Event(TYPES["B"], NAN, {}, 2), 1.0) == [partial]
    assert seq_candidates([partial], stages, 1,
                          Event(TYPES["B"], float("nan"), {}, 2), 1.0) == []


# --------------------------------------------------------------------- #
# The bisect count on every pool the engine and the sampler scan         #
# --------------------------------------------------------------------- #

#: Patterns whose stage pools the two scans visit: plain, keyed (the scan
#: visits a bucket and charges the bisect count), negated and Kleene.
POOL_PATTERNS = {
    "seq3": ("ABC", lambda w: Pattern.sequence(["A", "B", "C"], window=w)),
    "keyed": ("AB", lambda w: Pattern.sequence(
        ["A", "B"], window=w,
        condition=AttributeCondition("p1", "x", "==", "p2", "x"))),
    "internal_guard": ("ACB", lambda w: Pattern.sequence(
        ["A", "C", "B"], window=w, negated=[1])),
    "kleene": ("ABC", lambda w: Pattern.sequence(
        ["A", "B", "C"], window=w, kleene=[1])),
}


def _check_pool(pool, stages, index, event, window):
    """The bisect count of a whole pool is its scan's length."""
    expected = [
        partial for partial in pool
        if partial.fits_with(event, window)
        and seq_order_allows(partial, stages, index, event)
    ]
    assert count_seq_candidates(pool, stages, index, event, window) == len(
        expected)


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(POOL_PATTERNS)), data=st.data())
def test_bisect_count_equals_the_scan_of_every_pool(name, data):
    type_names, build = POOL_PATTERNS[name]
    window, events = data.draw(boundary_streams(type_names, max_events=16))
    pattern = build(window)

    engine = SequentialEngine(pattern)

    def engine_scan(partials, stages, index, event, window_):
        _check_pool(engine._pools[index], stages, index, event, window_)
        return seq_candidates(partials, stages, index, event, window_)

    with mock.patch.object(sequential, "seq_candidates", engine_scan):
        for event in events:
            engine.process(event)

    # The sampler's event loop: the pair loop, or a keyed scan.
    run = statistics._SamplingRun(compile_pattern(pattern))

    def sampler_scan(partials, stages, index, event, window_):
        _check_pool(run._pools[index], stages, index, event, window_)
        return seq_candidates(partials, stages, index, event, window_)

    with mock.patch.object(statistics, "seq_candidates", sampler_scan):
        for event in events:
            run.feed(event)
