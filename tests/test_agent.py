"""Unit tests for the agent core (buffered join, purging, Kleene, guards)."""

import pytest

from repro.core import Event, EventType, Pattern, PartialMatch, compile_pattern
from repro.hypersonic import ItemKind, WorkItem
from repro.hypersonic.agent import AgentCore

A, B, C, X = (EventType(n) for n in "ABCX")


def ev(type_, t, **attrs):
    return Event(type_, t, attrs)


def make_agent(pattern, stage_index=1, watermark=lambda: float("-inf"),
               is_last=None):
    nfa = compile_pattern(pattern)
    if is_last is None:
        is_last = stage_index == nfa.num_stages - 1
    return AgentCore(
        agent_index=stage_index - 1,
        stages=nfa.stages,
        stage_index=stage_index,
        window=nfa.window,
        watermark=watermark,
        is_last=is_last,
    )


def seed(event):
    return WorkItem(ItemKind.MATCH, PartialMatch.of("p1", event))


class TestBufferedJoin:
    def test_match_then_event(self):
        agent = make_agent(Pattern.sequence(["A", "B"], window=10.0))
        r1 = agent.process(seed(ev(A, 1)), unit_id=0)
        assert r1.emitted_down == []
        r2 = agent.process(WorkItem.event(ev(B, 2)), unit_id=0)
        assert len(r2.emitted_down) == 1

    def test_event_then_match(self):
        agent = make_agent(Pattern.sequence(["A", "B"], window=10.0))
        agent.process(WorkItem.event(ev(B, 2)), unit_id=0)
        receipt = agent.process(seed(ev(A, 1)), unit_id=0)
        assert len(receipt.emitted_down) == 1

    def test_exactly_once_pairs(self):
        agent = make_agent(Pattern.sequence(["A", "B"], window=10.0))
        emissions = 0
        for item in [
            seed(ev(A, 1)), WorkItem.event(ev(B, 2)),
            seed(ev(A, 1.5)), WorkItem.event(ev(B, 3)),
        ]:
            emissions += len(agent.process(item, unit_id=0).emitted_down)
        # pairs: (A1,B2), (A1,B3), (A1.5,B2)? no - order: A1.5 < B2 OK -> yes
        # (A1.5,B3). All four.
        assert emissions == 4

    def test_order_constraint(self):
        agent = make_agent(Pattern.sequence(["A", "B"], window=10.0))
        agent.process(WorkItem.event(ev(B, 1)), unit_id=0)
        receipt = agent.process(seed(ev(A, 2)), unit_id=0)
        assert receipt.emitted_down == []

    def test_window_constraint(self):
        agent = make_agent(Pattern.sequence(["A", "B"], window=2.0))
        agent.process(seed(ev(A, 1)), unit_id=0)
        receipt = agent.process(WorkItem.event(ev(B, 3.5)), unit_id=0)
        assert receipt.emitted_down == []

    def test_fragments_per_unit(self):
        agent = make_agent(Pattern.sequence(["A", "B"], window=10.0))
        agent.process(WorkItem.event(ev(B, 1)), unit_id=0)
        agent.process(WorkItem.event(ev(B, 2)), unit_id=1)
        assert agent.event_buffer.fragment_count() == 2
        assert agent.working_set_items(0) == 1

    def test_receipt_accounting(self):
        agent = make_agent(Pattern.sequence(["A", "B"], window=10.0))
        agent.process(seed(ev(A, 1)), unit_id=0)
        receipt = agent.process(WorkItem.event(ev(B, 2)), unit_id=0)
        assert receipt.fragments_locked >= 1
        assert receipt.comparisons >= 1
        assert receipt.scanned >= 1


class TestPurging:
    def test_expired_matches_purged_on_event(self):
        agent = make_agent(
            Pattern.sequence(["A", "B"], window=2.0),
            watermark=lambda: 50.0,
        )
        agent.process(seed(ev(A, 1)), unit_id=0)
        agent.process(WorkItem.event(ev(B, 50)), unit_id=0)
        assert agent.match_buffer.total_items() <= 1  # old seed purged

    def test_expired_incoming_match_dropped(self):
        agent = make_agent(
            Pattern.sequence(["A", "B"], window=2.0),
            watermark=lambda: 99.0,
        )
        agent.process(WorkItem.event(ev(B, 99)), unit_id=0)
        agent.process(seed(ev(A, 1)), unit_id=0)
        # The seed is expired relative to event progress: not stored.
        assert agent.match_buffer.total_items() == 0

    def test_event_purge_respects_queued_matches(self):
        agent = make_agent(
            Pattern.sequence(["A", "B"], window=2.0),
            watermark=lambda: 99.0,
        )
        agent.process(WorkItem.event(ev(B, 1.5)), unit_id=0)
        # Queue an old match without processing it: its presence must
        # keep the B event alive despite much newer matches arriving.
        agent.ms.push(seed(ev(A, 1)))
        agent.process(seed(ev(A, 99)), unit_id=0)
        assert agent.event_buffer.total_items() >= 1
        old = agent.ms.pop()
        receipt = agent.process(old, unit_id=0)
        assert len(receipt.emitted_down) == 1


class TestKleeneInline:
    def test_subsequences_from_buffered_events(self):
        pattern = Pattern.sequence(["A", "B", "C"], window=10.0, kleene=[1])
        agent = make_agent(pattern, stage_index=1, is_last=False)
        agent.process(WorkItem.event(ev(B, 2)), unit_id=0)
        agent.process(WorkItem.event(ev(B, 3)), unit_id=0)
        receipt = agent.process(seed(ev(A, 1)), unit_id=0)
        # Subsequences of {B2, B3}: (B2), (B3), (B2,B3).
        assert len(receipt.emitted_down) == 3

    def test_future_events_extend_stored_tuples(self):
        pattern = Pattern.sequence(["A", "B", "C"], window=10.0, kleene=[1])
        agent = make_agent(pattern, stage_index=1, is_last=False)
        agent.process(seed(ev(A, 1)), unit_id=0)
        first = agent.process(WorkItem.event(ev(B, 2)), unit_id=0)
        assert len(first.emitted_down) == 1  # (B2)
        second = agent.process(WorkItem.event(ev(B, 3)), unit_id=0)
        # (B3) from the seed plus (B2,B3) from the stored tuple.
        assert len(second.emitted_down) == 2


class TestInternalGuard:
    def make(self, watermark):
        pattern = Pattern.sequence(
            ["A", "X", "B"], window=10.0, negated=[1]
        )
        return make_agent(pattern, stage_index=1, watermark=watermark)

    def test_strike_by_buffered_guard_event(self):
        agent = self.make(lambda: 3.5)
        agent.process(WorkItem.guard(ev(X, 2)), unit_id=0)
        agent.process(seed(ev(A, 1)), unit_id=0)
        receipt = agent.process(WorkItem.event(ev(B, 3)), unit_id=0)
        assert receipt.emitted_down == []

    def test_clean_when_guard_outside_span(self):
        agent = self.make(lambda: 5.5)
        agent.process(WorkItem.guard(ev(X, 5)), unit_id=0)
        agent.process(seed(ev(A, 1)), unit_id=0)
        receipt = agent.process(WorkItem.event(ev(B, 3)), unit_id=0)
        assert len(receipt.emitted_down) == 1

    def test_quarantine_until_watermark(self):
        watermark = {"value": 2.5}
        agent = self.make(lambda: watermark["value"])
        agent.process(seed(ev(A, 1)), unit_id=0)
        receipt = agent.process(WorkItem.event(ev(B, 3)), unit_id=0)
        # Watermark has not passed the binding event: candidate held.
        assert receipt.emitted_down == []
        watermark["value"] = 10.0
        released = agent.maintenance()
        assert len(released.emitted_down) == 1

    def test_quarantined_candidate_struck_by_late_guard(self):
        watermark = {"value": 2.5}
        agent = self.make(lambda: watermark["value"])
        agent.process(seed(ev(A, 1)), unit_id=0)
        agent.process(WorkItem.event(ev(B, 3)), unit_id=0)
        watermark["value"] = 10.0
        struck = agent.process(WorkItem.guard(ev(X, 2)), unit_id=0)
        assert struck.emitted_down == []
        assert agent.maintenance().emitted_down == []

    def test_guard_queue_head_blocks_release(self):
        agent = self.make(lambda: 100.0)
        agent.process(seed(ev(A, 1)), unit_id=0)
        # An unprocessed guard event older than the binding blocks release.
        agent.guard_q.push(WorkItem.guard(ev(X, 2)))
        receipt = agent.process(WorkItem.event(ev(B, 3)), unit_id=0)
        assert receipt.emitted_down == []
        # Processing the guard event strikes the candidate.
        item = agent.pop("event")
        assert item.kind is ItemKind.GUARD
        struck = agent.process(item, unit_id=0)
        assert struck.emitted_down == []


class TestTrailingGuard:
    def make(self, watermark):
        pattern = Pattern.sequence(["A", "B", "X"], window=5.0, negated=[2])
        return make_agent(pattern, stage_index=1, watermark=watermark)

    def test_held_until_window_end(self):
        watermark = {"value": 3.0}
        agent = self.make(lambda: watermark["value"])
        agent.process(seed(ev(A, 1)), unit_id=0)
        receipt = agent.process(WorkItem.event(ev(B, 2)), unit_id=0)
        assert receipt.emitted_down == []
        watermark["value"] = 6.5  # past earliest + W = 6
        assert len(agent.maintenance().emitted_down) == 1

    def test_flush_releases_survivors(self):
        agent = self.make(lambda: 3.0)
        agent.process(seed(ev(A, 1)), unit_id=0)
        agent.process(WorkItem.event(ev(B, 2)), unit_id=0)
        flushed = agent.flush()
        assert len(flushed.emitted_down) == 1

    def test_strike_kills_pending(self):
        watermark = {"value": 3.0}
        agent = self.make(lambda: watermark["value"])
        agent.process(seed(ev(A, 1)), unit_id=0)
        agent.process(WorkItem.event(ev(B, 2)), unit_id=0)
        agent.process(WorkItem.guard(ev(X, 4)), unit_id=0)
        watermark["value"] = 10.0
        assert agent.maintenance().emitted_down == []
        assert agent.flush().emitted_down == []


class TestWorkIntake:
    def test_pop_prefers_guard_queue(self):
        pattern = Pattern.sequence(["A", "X", "B"], window=5.0, negated=[1])
        agent = make_agent(pattern)
        agent.es.push(WorkItem.event(ev(B, 2)))
        agent.guard_q.push(WorkItem.guard(ev(X, 1)))
        assert agent.pop("event").kind is ItemKind.GUARD
        assert agent.pop("event").kind is ItemKind.EVENT

    def test_queue_depth_counts_every_input(self):
        """The simulator wakes a parked unit when its agent's
        ``queue_depth`` is non-zero: it counts all three input queues."""
        pattern = Pattern.sequence(["A", "X", "B"], window=5.0, negated=[1])
        agent = make_agent(pattern)
        assert agent.queue_depth() == 0
        agent.es.push(WorkItem.event(ev(B, 2)))
        agent.guard_q.push(WorkItem.guard(ev(X, 1)))
        agent.ms.push(seed(ev(A, 0.5)))
        assert agent.queue_depth() == 3

    def test_invalid_stage_index(self):
        nfa = compile_pattern(Pattern.sequence(["A", "B"], window=5.0))
        with pytest.raises(ValueError):
            AgentCore(0, nfa.stages, 0, 5.0, lambda: 0.0, True)


class TestSnapshot:
    def test_snapshot_counts(self):
        agent = make_agent(Pattern.sequence(["A", "B"], window=10.0))
        agent.process(seed(ev(A, 1)), unit_id=0)
        agent.process(WorkItem.event(ev(B, 2)), unit_id=0)
        snapshot = agent.snapshot()
        assert snapshot.eb_items == 1
        assert snapshot.mb_items == 1
        assert snapshot.mb_pointers == 1
        assert snapshot.agb_bytes == 2 * 64
