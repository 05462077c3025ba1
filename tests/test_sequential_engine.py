"""Behavioural tests for the sequential baseline engine."""

import pytest

from repro.core import (
    AttributeCondition,
    AndCondition,
    EngineError,
    Event,
    EventType,
    Pattern,
)
from repro.engine import SequentialEngine, detect

A, B, C, D, X = (EventType(n) for n in "ABCDX")


def ev(type_, t, **attrs):
    return Event(type_, t, attrs)


class TestBasicSequence:
    def test_simple_triple(self):
        pattern = Pattern.sequence(["A", "B", "C"], window=10.0)
        matches = detect(
            pattern, [ev(A, 1), ev(B, 2), ev(C, 3)]
        )
        assert len(matches) == 1
        match = matches[0]
        assert match["p1"].timestamp == 1
        assert match["p3"].timestamp == 3

    def test_skip_till_any_match_enumerates_combinations(self):
        pattern = Pattern.sequence(["A", "B"], window=10.0)
        matches = detect(
            pattern, [ev(A, 1), ev(A, 2), ev(B, 3), ev(B, 4)]
        )
        assert len(matches) == 4  # every (A, B) pair

    def test_order_enforced(self):
        pattern = Pattern.sequence(["A", "B"], window=10.0)
        assert detect(pattern, [ev(B, 1), ev(A, 2)]) == []

    def test_window_enforced(self):
        pattern = Pattern.sequence(["A", "B"], window=2.0)
        assert detect(pattern, [ev(A, 1), ev(B, 3.5)]) == []
        assert len(detect(pattern, [ev(A, 1), ev(B, 3.0)])) == 1

    def test_purge_keeps_a_partial_the_window_test_admits(self):
        # B - A is exactly 1.1, but B - 1.1 rounds up past A: a purge at
        # ``earliest >= now - window`` dropped A before B could join it.
        pattern = Pattern.sequence(["A", "B"], window=1.1)
        a, b = ev(A, 0.13835612642182593), ev(B, 1.2383561264218261)
        assert b.timestamp - a.timestamp <= 1.1
        assert a.timestamp < b.timestamp - 1.1
        assert [m.key for m in detect(pattern, [a, b])] == [
            (("p1", a.event_id), ("p2", b.event_id))
        ]

    def test_conditions_enforced(self):
        pattern = Pattern.sequence(
            ["A", "B"],
            window=10.0,
            condition=AttributeCondition("p1", "x", "<", "p2", "x"),
        )
        stream = [ev(A, 1, x=5), ev(B, 2, x=3), ev(B, 3, x=9)]
        matches = detect(pattern, stream)
        assert len(matches) == 1
        assert matches[0]["p2"]["x"] == 9

    def test_transitive_conditions(self):
        pattern = Pattern.sequence(
            ["A", "B", "C"],
            window=10.0,
            condition=AndCondition(
                (
                    AttributeCondition("p1", "x", "==", "p2", "x"),
                    AttributeCondition("p2", "x", "==", "p3", "x"),
                )
            ),
        )
        stream = [
            ev(A, 1, x=1), ev(A, 2, x=2),
            ev(B, 3, x=1), ev(B, 4, x=2),
            ev(C, 5, x=2),
        ]
        matches = detect(pattern, stream)
        assert len(matches) == 1
        assert matches[0]["p1"]["x"] == 2

    def test_irrelevant_types_ignored(self):
        pattern = Pattern.sequence(["A", "B"], window=10.0)
        matches = detect(pattern, [ev(A, 1), ev(X, 1.5), ev(B, 2)])
        assert len(matches) == 1

    def test_detected_at_is_completing_event_time(self):
        pattern = Pattern.sequence(["A", "B"], window=10.0)
        matches = detect(pattern, [ev(A, 1), ev(B, 7)])
        assert matches[0].detected_at == 7
        assert matches[0].latency == 0.0


class TestKleene:
    def test_subsequence_semantics(self):
        pattern = Pattern.sequence(["A", "B", "C"], window=10.0, kleene=[1])
        matches = detect(
            pattern, [ev(A, 1), ev(B, 2), ev(B, 3), ev(B, 4), ev(C, 5)]
        )
        # Non-empty subsequences of three B events: 2^3 - 1 = 7.
        assert len(matches) == 7

    def test_kleene_requires_at_least_one(self):
        pattern = Pattern.sequence(["A", "B", "C"], window=10.0, kleene=[1])
        assert detect(pattern, [ev(A, 1), ev(C, 2)]) == []

    def test_kleene_final_stage_growable(self):
        pattern = Pattern.sequence(["A", "B"], window=10.0, kleene=[1])
        matches = detect(pattern, [ev(A, 1), ev(B, 2), ev(B, 3)])
        # (B2), (B3), (B2, B3)
        assert len(matches) == 3

    def test_kleene_tuple_order(self):
        pattern = Pattern.sequence(["A", "B"], window=10.0, kleene=[1])
        matches = detect(pattern, [ev(A, 1), ev(B, 2), ev(B, 3)])
        longest = max(matches, key=lambda m: len(m["p2"]))
        times = [e.timestamp for e in longest["p2"]]
        assert times == sorted(times)

    def test_kleene_window_bounds_tuple(self):
        pattern = Pattern.sequence(["A", "B", "C"], window=3.0, kleene=[1])
        matches = detect(
            pattern, [ev(A, 1), ev(B, 2), ev(C, 3.5), ev(B, 5)]
        )
        assert len(matches) == 1  # the B at t=5 is outside A's window


class TestNegation:
    def test_internal_negation_blocks(self):
        pattern = Pattern.sequence(["A", "X", "B"], window=10.0, negated=[1])
        assert detect(pattern, [ev(A, 1), ev(X, 2), ev(B, 3)]) == []
        assert len(detect(pattern, [ev(A, 1), ev(B, 3)])) == 1

    def test_internal_negation_outside_span_ok(self):
        pattern = Pattern.sequence(["A", "X", "B"], window=10.0, negated=[1])
        stream = [ev(X, 0.5), ev(A, 1), ev(B, 3), ev(X, 4)]
        assert len(detect(pattern, stream)) == 1

    def test_negation_condition_respected(self):
        cond = AttributeCondition("p1", "x", "==", "p2", "x")
        pattern = Pattern.sequence(
            ["A", "X", "B"], window=10.0, negated=[1], condition=cond
        )
        blocked = [ev(A, 1, x=1), ev(X, 2, x=1), ev(B, 3, x=0)]
        unblocked = [ev(A, 1, x=1), ev(X, 2, x=2), ev(B, 3, x=0)]
        assert detect(pattern, blocked) == []
        assert len(detect(pattern, unblocked)) == 1

    def test_trailing_negation_blocks_within_window(self):
        pattern = Pattern.sequence(["A", "B", "X"], window=5.0, negated=[2])
        engine = SequentialEngine(pattern)
        out = []
        for event in [ev(A, 1), ev(B, 2), ev(X, 3)]:
            out += engine.process(event)
        out += engine.close()
        assert out == []

    def test_trailing_negation_releases_after_window(self):
        pattern = Pattern.sequence(["A", "B", "X"], window=5.0, negated=[2])
        engine = SequentialEngine(pattern)
        out = []
        for event in [ev(A, 1), ev(B, 2), ev(X, 7)]:
            out += engine.process(event)
        # X at t=7 is past 1+5, so the match survives and was released by
        # the X event's arrival advancing time.
        out += engine.close()
        assert len(out) == 1

    def test_trailing_negation_released_at_close(self):
        pattern = Pattern.sequence(["A", "B", "X"], window=5.0, negated=[2])
        engine = SequentialEngine(pattern)
        out = []
        for event in [ev(A, 1), ev(B, 2)]:
            out += engine.process(event)
        assert out == []  # withheld: an X could still arrive
        out += engine.close()
        assert len(out) == 1


class TestConjunctionDisjunction:
    def test_and_any_order(self):
        pattern = Pattern.conjunction(["A", "B"], window=10.0)
        assert len(detect(pattern, [ev(B, 1), ev(A, 2)])) == 1
        assert len(detect(pattern, [ev(A, 1), ev(B, 2)])) == 1

    def test_and_window(self):
        pattern = Pattern.conjunction(["A", "B"], window=2.0)
        assert detect(pattern, [ev(B, 1), ev(A, 4)]) == []

    def test_and_conditions(self):
        pattern = Pattern.conjunction(
            ["A", "B"],
            window=10.0,
            condition=AttributeCondition("p1", "x", "<", "p2", "x"),
        )
        assert len(detect(pattern, [ev(B, 1, x=5), ev(A, 2, x=1)])) == 1
        assert detect(pattern, [ev(B, 1, x=1), ev(A, 2, x=5)]) == []

    def test_or_matches_each_alternative(self):
        pattern = Pattern.disjunction(["A", "B"], window=10.0)
        matches = detect(pattern, [ev(A, 1), ev(B, 2), ev(C, 3)])
        assert len(matches) == 2


class TestEngineLifecycle:
    def test_process_after_close_raises(self):
        engine = SequentialEngine(Pattern.sequence(["A", "B"], window=1.0))
        engine.close()
        with pytest.raises(EngineError):
            engine.process(ev(A, 1))

    def test_double_close_is_idempotent(self):
        engine = SequentialEngine(Pattern.sequence(["A", "B"], window=1.0))
        assert engine.close() == []
        assert engine.close() == []

    def test_purging_bounds_pools(self):
        pattern = Pattern.sequence(["A", "B"], window=2.0)
        engine = SequentialEngine(pattern)
        for i in range(200):
            engine.process(ev(A, float(i)))
        # Only the As within the last window (+ the new one) survive.
        assert engine.buffered_items() <= 4
        assert engine.stats.purged_partial_matches > 0

    def test_stats_counters(self):
        pattern = Pattern.sequence(["A", "B"], window=10.0)
        engine = SequentialEngine(pattern)
        for event in [ev(A, 1), ev(A, 2), ev(B, 3)]:
            engine.process(event)
        assert engine.stats.events_processed == 3
        assert engine.stats.comparisons >= 2
        assert engine.stats.matches_emitted == 2

    def test_memory_profile_counts_unique_payloads(self):
        pattern = Pattern.sequence(["A", "B", "C"], window=10.0)
        engine = SequentialEngine(pattern)
        for event in [ev(A, 1), ev(B, 2)]:
            engine.process(event)
        pointers, payload = engine.memory_profile()
        assert pointers >= 3  # seed A + (A,B) partial
        assert payload == 2 * 64  # two unique events
