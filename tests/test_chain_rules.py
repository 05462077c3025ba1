"""Each chain rule is decided in one place, and every engine abides by it.

* **Stream order** (paper Section 3.1): every entry that takes a stream
  refuses one out of timestamp order with a
  :class:`~repro.core.errors.StreamError`
  (:func:`~repro.core.events.check_order`), where it used to return a
  silently wrong match set.
* **The conjunct class rule** (:func:`~repro.core.conditions.is_plain`):
  a condition subclass that overrides ``evaluate`` is judged by that
  ``evaluate``, whole, in every engine; one that overrides nothing is
  compiled, kernelized and keyed as its base class.
* **A conjunct that reads no position** runs when a partial binds its
  first position, in an AND pattern as on a chain's stage 0.

The expected counts are written out here, and the property's brute force
evaluates ``pattern.condition`` whole: ``tests/oracle.py`` places the
conjuncts of ``Pattern.conjuncts``, so it shares what it would check.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AndCondition,
    AttributeCondition,
    Event,
    EventType,
    Pattern,
    TrueCondition,
)
from repro.core import vectorized
from repro.core.errors import PatternError, StreamError
from repro.core.joinkeys import JoinKey
from repro.core.matches import match_key
from repro.core.nfa import compile_pattern
from repro.costmodel import estimate_statistics
from repro.engine import SequentialEngine
from repro.engine.sequential import detect
from repro.hypersonic.engine import HypersonicEngine, detect_hybrid
from repro.runtime.procs import ProcsPipelineEngine
from repro.simulator import STRATEGIES, HypersonicSimulation, simulate

LETTERS = {name: EventType(name) for name in "ABC"}
A, B = LETTERS["A"], LETTERS["B"]


# --------------------------------------------------------------------- #
# Stream order at every entry                                            #
# --------------------------------------------------------------------- #

ORDER_PATTERN = Pattern.sequence(["A", "B"], window=1.0)


def disordered() -> list[Event]:
    """``A@0, A@5, B@0.5``: sorted, ``A@0, B@0.5`` is one match."""
    return [Event(A, 0.0), Event(A, 5.0), Event(B, 0.5)]


def ordered_statistics():
    """Statistics of the sorted stream, so a planned engine reaches its
    own loop, not the sampler's order check."""
    return estimate_statistics(ORDER_PATTERN, sorted(disordered()))


def test_the_sorted_stream_has_one_match():
    assert len(detect(ORDER_PATTERN, sorted(disordered()))) == 1


def test_sequential_process_refuses_a_disordered_stream():
    engine = SequentialEngine(ORDER_PATTERN)
    first, second, late = disordered()
    engine.process(first)
    engine.process(second)
    with pytest.raises(StreamError, match="timestamp 0.5 < previous 5.0"):
        engine.process(late)


def test_sequential_run_keeps_its_message():
    stream = disordered()
    late = stream[2]
    with pytest.raises(StreamError) as raised:
        list(SequentialEngine(ORDER_PATTERN).run(stream))
    assert str(raised.value) == (
        f"out-of-order event {late!r}: timestamp 0.5 < previous 5.0"
    )


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_strategy_refuses_a_disordered_stream(strategy):
    with pytest.raises(StreamError):
        simulate(strategy, ORDER_PATTERN, disordered(), 4,
                 stats=ordered_statistics())


def test_the_hybrid_engine_refuses_a_disordered_stream():
    engine = HypersonicEngine(ORDER_PATTERN, 4, stats=ordered_statistics())
    with pytest.raises(StreamError):
        engine.run(disordered())


def test_the_sampler_refuses_a_disordered_sample():
    with pytest.raises(StreamError):
        estimate_statistics(ORDER_PATTERN, disordered())


# --------------------------------------------------------------------- #
# Condition subclasses through every engine                              #
# --------------------------------------------------------------------- #


class Either(AndCondition):
    """Holds when any part does: a conjunction by class, not by meaning."""

    def evaluate(self, binding):
        return any(part.evaluate(binding) for part in self.parts)


class Refusing(TrueCondition):
    """Holds for no binding."""

    def evaluate(self, binding):
        return False


class Inverted(AttributeCondition):
    """The negation of the comparison its fields describe."""

    def evaluate(self, binding):
        return not super().evaluate(binding)


class Keyed(AttributeCondition):
    """Overrides nothing, so it is judged as its base class."""


class Both(AndCondition):
    """A conjunction that overrides nothing, flattened as its base."""


EITHER = Either((AttributeCondition("p1", "x", "<", "p2", "x"),
                 AttributeCondition("p1", "x", ">", "p2", "x")))

#: name -> (condition on SEQ(A, B) within 2, matches on SUBCLASS_EVENTS)
SUBCLASS_CASES = {"either": (EITHER, 1), "refusing": (Refusing(), 0)}


def subclass_events() -> list[Event]:
    return [Event(A, 0.0, {"x": 1}), Event(B, 1.0, {"x": 2})]


def subclass_pattern(name: str) -> Pattern:
    return Pattern.sequence(["A", "B"], window=2.0,
                            condition=SUBCLASS_CASES[name][0])


@pytest.mark.parametrize("name", sorted(SUBCLASS_CASES))
def test_detect_calls_the_subclass(name):
    expected = SUBCLASS_CASES[name][1]
    assert len(detect(subclass_pattern(name), subclass_events())) == expected


@pytest.mark.parametrize("name", sorted(SUBCLASS_CASES))
def test_detect_hybrid_calls_the_subclass(name):
    expected = SUBCLASS_CASES[name][1]
    found = detect_hybrid(subclass_pattern(name), subclass_events(),
                          num_units=4)
    assert len(found) == expected


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", sorted(SUBCLASS_CASES))
def test_every_strategy_calls_the_subclass(name, strategy):
    expected = SUBCLASS_CASES[name][1]
    result = simulate(strategy, subclass_pattern(name), subclass_events(), 4)
    assert result.matches == expected


def test_the_sampler_calls_the_subclass():
    """Stage 1 compares the one pair, which ``Either`` accepts; stage 0
    compares the A event, which ``Refusing`` rejects."""
    either = estimate_statistics(subclass_pattern("either"),
                                 subclass_events())
    assert either.selectivities == (1.0, 1.0)
    refusing = estimate_statistics(subclass_pattern("refusing"),
                                   subclass_events())
    assert refusing.selectivities[0] == 0.0


@pytest.mark.wallclock
@pytest.mark.parametrize("name", sorted(SUBCLASS_CASES))
def test_procs_calls_the_subclass(name):
    expected = SUBCLASS_CASES[name][1]
    engine = ProcsPipelineEngine(subclass_pattern(name), start_method="fork")
    assert len(engine.run(subclass_events(), timeout=60.0)) == expected


#: The strategies that run an AND pattern; the agent chain ("hypersonic")
#: and the state-parallel pipeline ("state") refuse one.
AND_STRATEGIES = ("sequential", "rip", "rr", "jsq", "llsf")


def and_pattern(condition) -> Pattern:
    return Pattern.conjunction(["A", "B"], 2.0, condition=condition)


@pytest.mark.parametrize("condition,expected", [(Refusing(), 0), (None, 1)],
                         ids=["refusing", "plain"])
def test_an_and_pattern_runs_a_conjunct_that_reads_no_position(condition,
                                                               expected):
    """``Refusing`` reads no position, so it runs when a partial binds its
    first position, where the chain NFA runs it on stage 0."""
    pattern = and_pattern(condition)
    assert len(detect(pattern, subclass_events())) == expected
    for strategy in AND_STRATEGIES:
        result = simulate(strategy, pattern, subclass_events(), 4)
        assert result.matches == expected, strategy


@pytest.mark.parametrize("strategy", sorted(set(STRATEGIES)
                                            - set(AND_STRATEGIES)))
def test_chain_strategies_refuse_an_and_pattern(strategy):
    with pytest.raises(PatternError):
        simulate(strategy, and_pattern(Refusing()), subclass_events(), 4)


def test_a_plain_subclass_gets_a_join_key():
    """``Keyed`` gets the direct check, a kernel and now a join key;
    ``Inverted`` gets the generic check, no kernel and no key."""
    stage = compile_pattern(Pattern.sequence(
        ["A", "B"], window=2.0, condition=Keyed("p1", "x", "==", "p2", "y"),
    )).stages[1]
    assert stage.key == JoinKey("y", "p1", "x", "last")
    assert stage.checks[0].__qualname__.startswith(
        "AttributeCondition.compile_check")
    assert vectorized.compile_stage_kernel(stage) is not None
    inverted = compile_pattern(Pattern.sequence(
        ["A", "B"], window=2.0, condition=Inverted("p1", "x", "==", "p2", "y"),
    )).stages[1]
    assert inverted.key is None
    assert inverted.checks[0].__qualname__.startswith(
        "Condition.compile_check")
    assert vectorized.compile_stage_kernel(inverted) is None


# --------------------------------------------------------------------- #
# Random condition trees against the whole condition                     #
# --------------------------------------------------------------------- #

OPERATORS = ["<", "<=", ">", ">=", "==", "!="]


@st.composite
def condition_trees(draw, positions, depth=2):
    """A tree of plain and overriding ``AndCondition``s over leaves:
    ``TrueCondition``, ``Refusing`` and comparisons of ``x`` between two
    of *positions* (the same one twice, too), plain, ``Inverted`` or
    ``Keyed``."""
    if depth == 0 or draw(st.booleans()):
        kind = draw(st.sampled_from(
            [TrueCondition, Refusing, AttributeCondition, Inverted, Keyed]))
        if kind in (TrueCondition, Refusing):
            return kind()
        return kind(draw(st.sampled_from(positions)), "x",
                    draw(st.sampled_from(OPERATORS)),
                    draw(st.sampled_from(positions)), "x")
    parts = draw(st.lists(condition_trees(positions, depth - 1),
                          max_size=3))
    return draw(st.sampled_from([AndCondition, Both, Either]))(tuple(parts))


@st.composite
def tree_cases(draw):
    """A SEQ pattern of two or three positions over A-C with a random
    condition tree, and an in-order stream of up to nine events with
    whole-number timestamps, ties among them."""
    length = draw(st.integers(2, 3))
    types = draw(st.lists(st.sampled_from("ABC"), min_size=length,
                          max_size=length))
    positions = [f"p{index + 1}" for index in range(length)]
    pattern = Pattern.sequence(
        types, window=float(draw(st.integers(1, 3))),
        condition=draw(condition_trees(positions)),
    )
    events, timestamp = [], 0
    for _ in range(draw(st.integers(0, 9))):
        timestamp += draw(st.sampled_from([0, 0, 1, 2]))
        events.append(Event(LETTERS[draw(st.sampled_from("ABC"))],
                            float(timestamp), {"x": draw(st.integers(0, 2))}))
    return pattern, events


def brute_force_keys(pattern: Pattern, events: list[Event]) -> set:
    """Every binding of the positions to events of their types in stream
    order within the window that ``pattern.condition`` accepts whole."""
    names = [item.name for item in pattern.items]
    types = [item.event_type for item in pattern.items]
    keys = set()
    for chosen in itertools.combinations(events, len(names)):
        if [event.type for event in chosen] != types:
            continue
        if chosen[-1].timestamp - chosen[0].timestamp > pattern.window:
            continue
        binding = dict(zip(names, chosen))
        if pattern.condition.evaluate(binding):
            keys.add(match_key(binding))
    return keys


@settings(deadline=None)
@given(case=tree_cases())
def test_condition_tree_property_equals_the_whole_condition(case):
    """CI's pattern-oracle job runs this under the ``deep`` profile.  The
    simulator is the one ``simulate("hypersonic")`` runs."""
    pattern, events = case
    expected = brute_force_keys(pattern, events)
    assert {match.key for match in detect(pattern, events)} == expected
    simulation = HypersonicSimulation(pattern, 4)
    simulation.run(events)
    assert {match.key for match in simulation.matches} == expected
