"""Tests for the condition algebra and its compiled checks."""

from dataclasses import dataclass

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import (
    KLEENE_REDUCTIONS,
    AggregateCondition,
    AndCondition,
    AttributeCondition,
    Condition,
    ConditionError,
    CorrelationCondition,
    Event,
    EventType,
    NotCondition,
    OrCondition,
    PairwiseCondition,
    PartialMatch,
    Pattern,
    PatternError,
    TrueCondition,
    UnaryCondition,
    compile_pattern,
    kleene_representative,
    pearson_correlation,
)
from repro.core.conditions import CenteredHistories
from repro.datasets.stocks import StockConfig, generate_stock_stream
from repro.engine import SequentialEngine
from repro.simulator.runner import simulate

A = EventType("A")
B = EventType("B")


def ev(t, **attrs):
    return Event(A, t, attrs)


class TestTrueCondition:
    def test_accepts_everything(self):
        cond = TrueCondition()
        assert cond.evaluate({})
        assert cond.depends_on() == frozenset()


class TestUnaryCondition:
    def test_predicate_applied(self):
        cond = UnaryCondition("p1", lambda e: e["x"] > 3)
        assert cond.evaluate({"p1": ev(0, x=4)})
        assert not cond.evaluate({"p1": ev(0, x=2)})

    def test_depends_on_single_position(self):
        cond = UnaryCondition("p1", lambda e: True)
        assert cond.depends_on() == frozenset({"p1"})

    def test_kleene_tuple_uses_last_event(self):
        cond = UnaryCondition("p1", lambda e: e["x"] == 9)
        binding = {"p1": (ev(0, x=1), ev(1, x=9))}
        assert cond.evaluate(binding)

    def test_empty_kleene_tuple_raises(self):
        cond = UnaryCondition("p1", lambda e: True)
        with pytest.raises(ConditionError):
            cond.evaluate({"p1": ()})


class TestAttributeCondition:
    def test_operators(self):
        left = ev(0, v=1)
        right = ev(1, v=2)
        binding = {"a": left, "b": right}
        cases = {
            "<": True, "<=": True, ">": False, ">=": False,
            "==": False, "!=": True,
        }
        for op, expected in cases.items():
            cond = AttributeCondition("a", "v", op, "b", "v")
            assert cond.evaluate(binding) is expected, op

    def test_unknown_operator_rejected(self):
        with pytest.raises(ConditionError):
            AttributeCondition("a", "v", "~", "b", "v")

    def test_missing_attribute_raises_condition_error(self):
        cond = AttributeCondition("a", "nope", "<", "b", "v")
        with pytest.raises(ConditionError):
            cond.evaluate({"a": ev(0), "b": ev(1, v=1)})

    def test_depends_on_both_positions(self):
        cond = AttributeCondition("a", "v", "<", "b", "v")
        assert cond.depends_on() == frozenset({"a", "b"})


class TestPairwiseCondition:
    def test_predicate_receives_events(self):
        cond = PairwiseCondition(
            "a", "b", lambda x, y: x["v"] + y["v"] == 3
        )
        assert cond.evaluate({"a": ev(0, v=1), "b": ev(1, v=2)})


class TestPearsonCorrelation:
    def test_perfect_positive(self):
        assert pearson_correlation([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson_correlation([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_sequence_is_zero(self):
        assert pearson_correlation([1, 1, 1], [1, 2, 3]) == 0.0

    def test_short_sequence_is_zero(self):
        assert pearson_correlation([1], [2]) == 0.0

    def test_length_mismatch_raises(self):
        with pytest.raises(ConditionError):
            pearson_correlation([1, 2], [1, 2, 3])

    def test_bounded(self):
        value = pearson_correlation([1, 5, 2, 8, 3], [2, 1, 9, 4, 7])
        assert -1.0 <= value <= 1.0


class TestCorrelationCondition:
    def test_threshold(self):
        high = ev(0, history=(1.0, 2.0, 3.0))
        also_high = ev(1, history=(2.0, 4.0, 6.0))
        low = ev(2, history=(3.0, 1.0, 2.0))
        cond = CorrelationCondition("a", "b", threshold=0.9)
        assert cond.evaluate({"a": high, "b": also_high})
        assert not cond.evaluate({"a": high, "b": low})

    def test_missing_history_raises_condition_error(self):
        # Like AttributeCondition: a ConditionError naming the condition,
        # not a bare KeyError, from evaluate, the compiled check and every
        # engine that evaluates the stage.
        cond = CorrelationCondition("p1", "p2", threshold=0.5)
        message = r"missing attribute 'history' .*\(Corr\(p1,p2\) > 0\.5\)"
        with_history = Event(A, 0.0, {"history": (1.0, 2.0, 3.0)})
        without = Event(B, 1.0, {"price": 1.0})
        with pytest.raises(ConditionError, match=message):
            cond.evaluate({"p1": with_history, "p2": without})
        check = cond.compile_check("p2", CenteredHistories(5.0))
        with pytest.raises(ConditionError, match=message):
            check({"p1": with_history}, without)

        pattern = Pattern.sequence(["A", "B"], window=5.0, condition=cond)
        events = [Event(A, float(t), {"history": (1.0, 2.0, 3.0 + t)})
                  if t % 2 == 0 else Event(B, float(t), {"price": 1.0})
                  for t in range(6)]
        with pytest.raises(ConditionError, match=message):
            list(SequentialEngine(pattern).run(events))
        for batch_size in (1, 64):
            with pytest.raises(ConditionError, match=message):
                simulate("hypersonic", pattern, events, num_cores=2,
                         batch_size=batch_size)

    @pytest.mark.parametrize("bad_side", ["p1", "p2"])
    def test_non_sequence_history_raises_condition_error(self, bad_side):
        # A history without a length (a float here) raises the
        # ConditionError naming the condition, as a missing one does, not
        # the bare TypeError of len(): from evaluate, the compiled check,
        # the sequential engine and the simulator at both batch sizes
        # (the batched kernels decide such rows through the check).
        cond = CorrelationCondition("p1", "p2", threshold=0.5)
        message = (r"attribute 'history' is 7\.0, not a sequence, while "
                   r"evaluating \(Corr\(p1,p2\) > 0\.5\)")
        histories = {"p1": (1.0, 2.0, 3.0), "p2": (1.0, 2.0, 4.0),
                     bad_side: 7.0}
        first = Event(A, 0.0, {"history": histories["p1"]})
        second = Event(B, 1.0, {"history": histories["p2"]})
        with pytest.raises(ConditionError, match=message):
            cond.evaluate({"p1": first, "p2": second})
        check = cond.compile_check("p2", CenteredHistories(5.0))
        with pytest.raises(ConditionError, match=message):
            check({"p1": first}, second)

        pattern = Pattern.sequence(["A", "B"], window=5.0, condition=cond)
        events = [Event(A, float(t), {"history": histories["p1"]})
                  if t % 2 == 0 else
                  Event(B, float(t), {"history": histories["p2"]})
                  for t in range(6)]
        with pytest.raises(ConditionError, match=message):
            list(SequentialEngine(pattern).run(events))
        for batch_size in (1, 64):
            with pytest.raises(ConditionError, match=message):
                simulate("hypersonic", pattern, events, num_cores=2,
                         batch_size=batch_size)


class TestKleeneReduction:
    """Regression: the old ``_first_event`` helper silently took the *last*
    tuple element.  The reduction is now an explicit, validated choice."""

    def test_reductions_enumerated(self):
        assert KLEENE_REDUCTIONS == ("first", "last", "strict")

    def test_representative_first_and_last(self):
        first, last = ev(0, x=1), ev(1, x=9)
        assert kleene_representative((first, last), "first") is first
        assert kleene_representative((first, last), "last") is last
        assert kleene_representative((first, last)) is last  # default

    def test_representative_passthrough_for_single_event(self):
        event = ev(0, x=1)
        for reduce in KLEENE_REDUCTIONS:
            assert kleene_representative(event, reduce) is event

    def test_strict_refuses_tuples(self):
        with pytest.raises(ConditionError, match="ambiguous"):
            kleene_representative((ev(0), ev(1)), "strict")

    def test_unknown_reduction_rejected(self):
        with pytest.raises(ConditionError):
            kleene_representative(ev(0), "median")
        with pytest.raises(ConditionError):
            UnaryCondition("p1", lambda e: True, reduce="median")

    def test_unary_first_reduction(self):
        cond = UnaryCondition("p1", lambda e: e["x"] == 1, reduce="first")
        binding = {"p1": (ev(0, x=1), ev(1, x=9))}
        assert cond.evaluate(binding)

    def test_attribute_condition_reduction_choice(self):
        binding = {
            "a": (ev(0, v=1), ev(1, v=5)),
            "b": ev(2, v=3),
        }
        last = AttributeCondition("a", "v", "<", "b", "v")
        first = AttributeCondition("a", "v", "<", "b", "v", reduce="first")
        assert not last.evaluate(binding)  # 5 < 3 is False
        assert first.evaluate(binding)  # 1 < 3

    def test_strict_condition_raises_on_tuple_binding(self):
        cond = PairwiseCondition(
            "a", "b", lambda x, y: True, reduce="strict"
        )
        assert cond.evaluate({"a": ev(0), "b": ev(1)})
        with pytest.raises(ConditionError, match="ambiguous"):
            cond.evaluate({"a": (ev(0), ev(1)), "b": ev(2)})

    def test_strict_over_kleene_position_rejected_at_pattern_build(self):
        cond = AttributeCondition("p2", "x", "<=", "p3", "x", reduce="strict")
        with pytest.raises(PatternError, match="ambiguous"):
            Pattern.sequence(
                ["A", "B", "C"], window=5.0, kleene=[1], condition=cond
            )
        # The same condition is fine when no Kleene position is involved.
        Pattern.sequence(["A", "B", "C"], window=5.0, condition=cond)


class TestAggregateCondition:
    def test_aggregates_over_tuple(self):
        binding = {"p": (ev(0, x=1), ev(1, x=4), ev(2, x=3))}
        assert AggregateCondition("p", "sum", "==", 8, "x").evaluate(binding)
        assert AggregateCondition("p", "max", "==", 4, "x").evaluate(binding)
        assert AggregateCondition("p", "min", "==", 1, "x").evaluate(binding)
        assert AggregateCondition("p", "avg", ">", 2.5, "x").evaluate(binding)
        assert AggregateCondition("p", "first", "==", 1, "x").evaluate(binding)
        assert AggregateCondition("p", "last", "==", 3, "x").evaluate(binding)

    def test_count_ignores_attribute(self):
        binding = {"p": (ev(0), ev(1))}
        assert AggregateCondition("p", "count", ">=", 2).evaluate(binding)
        assert not AggregateCondition("p", "count", ">", 2).evaluate(binding)

    def test_single_event_degenerates(self):
        binding = {"p": ev(0, x=7)}
        assert AggregateCondition("p", "sum", "==", 7, "x").evaluate(binding)
        assert AggregateCondition("p", "count", "==", 1).evaluate(binding)

    def test_validation(self):
        with pytest.raises(ConditionError):
            AggregateCondition("p", "median", "==", 1, "x")
        with pytest.raises(ConditionError):
            AggregateCondition("p", "sum", "~", 1, "x")
        with pytest.raises(ConditionError):
            AggregateCondition("p", "sum", "==", 1)  # needs an attribute

    def test_missing_attribute_raises(self):
        cond = AggregateCondition("p", "sum", "==", 1, "nope")
        with pytest.raises(ConditionError):
            cond.evaluate({"p": (ev(0, x=1),)})

    def test_empty_tuple_raises(self):
        cond = AggregateCondition("p", "count", "==", 0)
        with pytest.raises(ConditionError):
            cond.evaluate({"p": ()})

    def test_depends_on(self):
        cond = AggregateCondition("p", "count", ">=", 2)
        assert cond.depends_on() == frozenset({"p"})

    def test_kept_off_stages_and_applied_at_closure(self):
        from repro.core import compile_pattern

        cond = AggregateCondition("p2", "count", ">=", 2)
        pattern = Pattern.sequence(
            ["A", "B", "C"], window=10.0, kleene=[1], condition=cond
        )
        assert pattern.closure_conjuncts() == (cond,)
        assert pattern.stage_conjuncts() == ()
        nfa = compile_pattern(pattern)
        assert all(stage.conditions == () for stage in nfa.stages)

    def test_filters_completed_matches(self):
        from tests.conftest import reference_matches

        B_type = EventType("B")
        C_type = EventType("C")
        events = [
            Event(A, 0.0, {"x": 0}),
            Event(B_type, 1.0, {"x": 1}),
            Event(B_type, 2.0, {"x": 2}),
            Event(C_type, 3.0, {"x": 3}),
        ]
        base = Pattern.sequence(["A", "B", "C"], window=10.0, kleene=[1])
        # Skip-till-any over two B events: tuples (b1), (b2), (b1, b2).
        assert len(reference_matches(base, events)) == 3
        pattern = Pattern.sequence(
            ["A", "B", "C"],
            window=10.0,
            kleene=[1],
            condition=AggregateCondition("p2", "count", ">=", 2),
        )
        matches = reference_matches(pattern, events)
        assert len(matches) == 1
        assert len(matches[0].binding["p2"]) == 2


class TestCombinators:
    def test_and_short_circuits(self):
        calls = []

        def tracking(result):
            def predicate(e):
                calls.append(result)
                return result
            return UnaryCondition("p", predicate)

        cond = AndCondition((tracking(False), tracking(True)))
        assert not cond.evaluate({"p": ev(0)})
        assert calls == [False]

    def test_or(self):
        cond = OrCondition(
            (
                UnaryCondition("p", lambda e: False),
                UnaryCondition("p", lambda e: True),
            )
        )
        assert cond.evaluate({"p": ev(0)})

    def test_not(self):
        cond = NotCondition(TrueCondition())
        assert not cond.evaluate({})

    def test_operator_overloads(self):
        true = TrueCondition()
        assert isinstance(true & true, AndCondition)
        assert isinstance(true | true, OrCondition)
        assert isinstance(~true, NotCondition)

    def test_and_flattened(self):
        inner = AndCondition((TrueCondition(), TrueCondition()))
        outer = AndCondition((inner, TrueCondition()))
        assert len(outer.flattened()) == 3

    def test_combined_depends_on(self):
        cond = AndCondition(
            (
                UnaryCondition("a", lambda e: True),
                UnaryCondition("b", lambda e: True),
            )
        )
        assert cond.depends_on() == frozenset({"a", "b"})


# --------------------------------------------------------------------- #
# Compiled checks                                                        #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class SumAbove(Condition):
    """A user-defined condition: it compiles through the base class."""

    left: str
    right: str
    bound: int

    def depends_on(self) -> frozenset[str]:
        return frozenset({self.left, self.right})

    def evaluate(self, binding) -> bool:
        total = 0
        for name in (self.left, self.right):
            total += kleene_representative(binding[name])["v"]
        return total > self.bound


def outcome(call):
    """What *call* returns, or the type and message of what it raises."""
    try:
        return ("value", type(result := call()), result)
    except Exception as exc:  # compared with the other outcome, not handled
        return ("raises", type(exc), str(exc))


attribute_values = st.one_of(st.integers(-3, 3), st.floats(-3.0, 3.0))
histories = st.one_of(
    st.lists(st.floats(-100.0, 100.0), min_size=0, max_size=5).map(tuple),
    st.sampled_from([(1.0, 1.0, 1.0), (2.0, 4.0, 6.0), 7.0]),
)


@st.composite
def events(draw, timestamp=st.floats(0.0, 10.0)):
    attributes = {}
    for name, values in (("v", attribute_values), ("w", attribute_values),
                         ("history", histories)):
        if draw(st.booleans()) or draw(st.booleans()):
            attributes[name] = draw(values)
    return Event(A, draw(timestamp), attributes)


bound_values = st.one_of(
    events(),
    st.lists(events(), min_size=0, max_size=3).map(tuple),
)

#: The compiled position is "p"; "a" is bound.  ("p", "p") and ("a", "a")
#: sides compile to the generic check.
sides = st.sampled_from([("a", "p"), ("p", "a"), ("p", "p"), ("a", "a")])
reductions = st.sampled_from(KLEENE_REDUCTIONS)


@st.composite
def conditions(draw):
    left, right = draw(sides)
    kind = draw(st.sampled_from(
        ["attribute", "correlation", "unary", "pairwise", "user"]))
    if kind == "attribute":
        return AttributeCondition(
            left, draw(st.sampled_from(["v", "w"])),
            draw(st.sampled_from(["<", "<=", ">", ">=", "==", "!="])),
            right, draw(st.sampled_from(["v", "w"])), reduce=draw(reductions))
    if kind == "correlation":
        return CorrelationCondition(
            left, right, draw(st.floats(-1.0, 1.0)), reduce=draw(reductions))
    if kind == "unary":
        return UnaryCondition(left, lambda e: e["v"] > 0,
                              reduce=draw(reductions))
    if kind == "pairwise":
        return PairwiseCondition(left, right, lambda x, y: x["v"] < y["w"],
                                 reduce=draw(reductions))
    return SumAbove(left, right, draw(st.integers(-2, 2)))


class TestCompiledChecks:
    @settings(max_examples=600, deadline=None)
    @given(condition=conditions(), bound=bound_values, event=events())
    # Both attributes missing: the error names the left one.
    @example(condition=AttributeCondition("a", "v", "<", "p", "w"),
             bound=Event(A, 0.0, {}), event=Event(A, 1.0, {}))
    @example(condition=AttributeCondition("p", "v", "<", "a", "w"),
             bound=Event(A, 0.0, {}), event=Event(A, 1.0, {}))
    def test_check_equals_evaluate_on_the_probe(self, condition, bound,
                                                event):
        binding = {"a": bound}
        expected = outcome(
            lambda: condition.evaluate({**binding, "p": event}))
        # Twice through one table: the second call reads what the first
        # one centered.
        check = condition.compile_check("p", CenteredHistories(5.0))
        assert outcome(lambda: check(binding, event)) == expected
        assert outcome(lambda: check(binding, event)) == expected

    def test_a_subclass_overriding_evaluate_is_still_called(self):
        class Inverted(AttributeCondition):
            def evaluate(self, binding):
                return not super().evaluate(binding)

        class Uncorrelated(CorrelationCondition):
            def evaluate(self, binding):
                return not super().evaluate(binding)

        low = Event(A, 0.0, {"v": 1, "history": (1.0, 2.0, 3.0)})
        high = Event(B, 1.0, {"v": 2, "history": (1.0, 2.0, 4.0)})
        down = Event(B, 1.0, {"v": 0, "history": (3.0, 2.0, 1.0)})
        for condition in (Inverted("a", "v", "<", "p", "v"),
                          Uncorrelated("a", "p", 0.5)):
            check = condition.compile_check("p", CenteredHistories(5.0))
            assert not check({"a": low}, high)
            assert check({"a": low}, down)

    def test_later_conjuncts_never_see_a_rejected_event(self):
        calls = []
        bindings = []

        @dataclass(frozen=True)
        class Recorded(Condition):
            name: str
            verdict: bool

            def depends_on(self):
                return frozenset({"p1", "p2"})

            def evaluate(self, binding):
                raise AssertionError("a stage runs its compiled checks")

            def compile_check(self, position, histories):
                def check(binding, event):
                    calls.append(self.name)
                    bindings.append(binding)
                    return self.verdict
                return check

        pattern = Pattern.sequence(
            ["A", "B", "X", "C"], window=5.0, negated=[2],
            condition=AndCondition((
                Recorded("first", False), Recorded("second", True),
                UnaryCondition("p3", lambda e: False, name="guard_first"),
                UnaryCondition("p3", lambda e: calls.append("guard_second")),
            )),
        )
        nfa = compile_pattern(pattern)
        stage = nfa.stages[1]
        partial = PartialMatch.of("p1", Event(A, 0.0, {}))
        assert not stage.accepts(partial, Event(B, 1.0, {}))
        assert calls == ["first"]
        # The stage hands its checks the partial's own binding: no copy.
        assert bindings == [partial.binding]
        assert bindings[0] is partial.binding

        [guard] = stage.guards_after
        extended = partial.extended("p2", Event(B, 1.0, {})).extended(
            "p4", Event(EventType("C"), 3.0, {}))
        negated = Event(EventType("X"), 2.0, {})
        assert not guard.violates(extended.binding, negated, 5.0,
                                  extended.earliest)
        assert calls == ["first"]


class TestCenteredHistories:
    def test_centers_each_history_once_while_it_lives(self, monkeypatch):
        import repro.core.conditions as conditions_module

        centered = []
        center = conditions_module.center_history
        sketch = conditions_module.history_sketch

        def counted(seq):
            centered.append(seq)
            return center(seq)

        monkeypatch.setattr(conditions_module, "center_history", counted)
        table = CenteredHistories(window=10.0)
        first, second = (1.0, 2.0, 4.0), (3.0, 1.0, 2.0)
        entry = table.entry(first, 0.0)
        assert entry == (first, center(first), 0.0, *sketch(center(first)))
        assert table.entry(first, 0.0) is entry
        assert table.entry(second, 1.0)[1] == center(second)
        assert centered == [first, second]
        # An equal but distinct history is centered on its own.
        table.entry(list(first), 1.0)
        assert len(centered) == 3

    def test_expires_a_window_behind_the_newest(self):
        table = CenteredHistories(window=10.0)
        old, kept, new = (1.0, 2.0), (2.0, 1.0), (5.0, 6.0)
        table.entry(old, 0.0)
        assert table.floor == -10.0
        table.entry(kept, 9.0)
        assert len(table.entries) == 2  # within two windows of the floor
        table.entry(new, 10.5)  # more than two windows past it: expire
        assert table.floor == 0.5
        assert [entry[0] for entry in table.entries.values()] == [kept, new]
        # Older than the floor: centered, but not kept.
        assert table.entry(old, 0.0)[1] is not None
        assert [entry[0] for entry in table.entries.values()] == [kept, new]

    def test_sequential_tables_stay_within_two_windows(self):
        """A 20,000-event stock stream through the sequential engine: after
        every event, no entry of any stage's table is more than two
        windows older than that table's newest centered event."""
        window = 40.0
        stream = generate_stock_stream(StockConfig(num_events=20_000, seed=11))
        pattern = Pattern.sequence(
            ["S0", "S1", "S2"], window=window,
            condition=AndCondition((
                CorrelationCondition("p1", "p2", 0.5),
                CorrelationCondition("p2", "p3", 0.5),
            )),
        )
        engine = SequentialEngine(pattern)
        tables = [stage.histories for stage in engine._nfa.stages]
        peak = 0
        for event in stream:
            engine.process(event)
            for table in tables:
                if table.entries:
                    oldest = min(entry[2] for entry in table.entries.values())
                    assert table.newest - oldest <= 2 * window
                    peak = max(peak, len(table.entries))
        engine.close()
        assert engine.stats.matches_emitted > 0
        # The bound was exercised: entries were kept and expired all along.
        assert 0 < peak < 1_000
        assert min(tables[1].floor, tables[2].floor) > stream[-1].timestamp - 3 * window
