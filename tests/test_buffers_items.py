"""Tests for fragmented buffers, AGB accounting, and work queues."""

from repro.core import Event, EventType, PartialMatch
from repro.hypersonic import (
    AgentGlobalBuffer,
    BufferSnapshot,
    FragmentedBuffer,
    ItemKind,
    Receipt,
    WorkItem,
    WorkQueue,
)

A = EventType("A")


def ev(t):
    return Event(A, t, payload_size=10)


class TestFragmentedBuffer:
    def test_lazy_fragment_creation(self):
        buffer = FragmentedBuffer("test")
        assert buffer.fragment_count() == 0
        buffer.store(1, "x")
        buffer.store(2, "y")
        assert buffer.fragment_count() == 2
        assert buffer.total_items() == 2

    def test_fragments_iteration_snapshot_safe(self):
        buffer = FragmentedBuffer("test")
        buffer.store(1, "x")
        for owner, _fragment in buffer.fragments():
            buffer.purge_fragment(owner, lambda item: False)
        assert buffer.total_items() == 0

    def test_empty_fragment_deleted_after_purge(self):
        buffer = FragmentedBuffer("test")
        buffer.store(1, "x")
        buffer.purge_fragment(1, lambda item: False)
        assert buffer.fragment_count() == 0
        assert buffer.purged == 1

    def test_partial_purge_keeps_fragment(self):
        buffer = FragmentedBuffer("test")
        buffer.store(1, 1)
        buffer.store(1, 2)
        buffer.purge_fragment(1, lambda item: item > 1)
        assert buffer.fragment_count() == 1
        assert list(buffer.all_items()) == [2]


class TestAgentGlobalBuffer:
    def test_dedup_by_event_id(self):
        agb = AgentGlobalBuffer()
        event = ev(1.0)
        agb.retain_event(event)
        agb.retain_event(event)
        assert agb.current_bytes == 10
        assert agb.unique_events() == 1

    def test_release_refcounts(self):
        agb = AgentGlobalBuffer()
        event = ev(1.0)
        agb.retain_event(event)
        agb.retain_event(event)
        agb.release_event(event)
        assert agb.current_bytes == 10
        agb.release_event(event)
        assert agb.current_bytes == 0
        assert agb.unique_events() == 0

    def test_release_unknown_is_noop(self):
        agb = AgentGlobalBuffer()
        agb.release_event(ev(1.0))
        assert agb.current_bytes == 0

    def test_match_retention(self):
        agb = AgentGlobalBuffer()
        e1, e2 = ev(1.0), ev(2.0)
        pm = PartialMatch.of("a", e1).extended("b", e2)
        agb.retain_match(pm)
        assert agb.current_bytes == 20
        agb.release_match(pm)
        assert agb.current_bytes == 0

    def test_peak_tracking(self):
        agb = AgentGlobalBuffer()
        e1, e2 = ev(1.0), ev(2.0)
        agb.retain_event(e1)
        agb.retain_event(e2)
        agb.release_event(e1)
        assert agb.peak_bytes == 20
        assert agb.current_bytes == 10


class TestWorkQueue:
    def test_fifo(self):
        q = WorkQueue("q")
        q.push(WorkItem.event(ev(1.0)))
        q.push(WorkItem.event(ev(2.0)))
        assert q.pop().payload.timestamp == 1.0
        assert q.pop().payload.timestamp == 2.0
        assert q.pop() is None

    def test_virtual_time_visibility(self):
        q = WorkQueue("q")
        q.push(WorkItem.event(ev(1.0)), ready_at=10.0)
        assert q.pop(now=5.0) is None
        assert q.has_ready(now=5.0) is False
        assert q.peek_ready_at() == 10.0
        assert q.pop(now=10.0) is not None

    def test_depth_statistics(self):
        q = WorkQueue("q")
        for i in range(3):
            q.push(WorkItem.event(ev(float(i))))
        q.pop()
        assert q.pushed == 3
        assert q.popped == 1
        assert q.peak_depth == 3
        assert len(q) == 2

    def test_min_event_time_tracking(self):
        q = WorkQueue("q")
        pm_old = PartialMatch.of("a", ev(1.0))
        pm_new = PartialMatch.of("a", ev(5.0))
        q.push(WorkItem.match(pm_new))
        q.push(WorkItem.match(pm_old))
        assert q.min_event_time() == 1.0
        q.pop()  # removes pm_new
        assert q.min_event_time() == 1.0
        q.pop()  # removes pm_old
        assert q.min_event_time() is None

    def test_min_event_time_with_duplicates(self):
        q = WorkQueue("q")
        e = ev(2.0)
        q.push(WorkItem.event(e))
        q.push(WorkItem.event(Event(A, 2.0)))
        q.pop()
        assert q.min_event_time() == 2.0

    def test_head_event_time(self):
        q = WorkQueue("q")
        assert q.head_event_time() is None
        q.push(WorkItem.guard(ev(7.0)))
        assert q.head_event_time() == 7.0


class TestReceipt:
    def test_pushes_counts_emitted_matches(self):
        receipt = Receipt()
        pm = PartialMatch.of("a", ev(1.0))
        receipt.emitted_down.extend([pm, pm])
        assert receipt.pushes == 2

    def test_note_fragment(self):
        receipt = Receipt()
        receipt.note_fragment(3)
        receipt.note_fragment(4)
        assert receipt.fragments_locked == 2
        assert receipt.scanned == 7
        assert receipt.scan_sq == 9 + 16

    def test_merge(self):
        first = Receipt(comparisons=1)
        first.note_fragment(2)
        second = Receipt(comparisons=2)
        second.emitted_down.append(PartialMatch.of("a", ev(1.0)))
        first.merge(second)
        assert first.comparisons == 3
        assert first.pushes == 1
        assert first.scanned == 2


class TestBufferSnapshot:
    def test_merge_and_totals(self):
        snaps = [
            BufferSnapshot(eb_items=1, mb_items=2, mb_pointers=4, agb_bytes=100),
            BufferSnapshot(eb_items=3, mb_items=1, mb_pointers=2, agb_bytes=50),
        ]
        merged = BufferSnapshot.merge(snaps)
        assert merged.eb_items == 4
        assert merged.mb_pointers == 6
        assert merged.pointer_items == 10
        assert merged.total_bytes(pointer_size=8) == 150 + 80


class TestItemKinds:
    def test_queue_event_time_for_all_kinds(self):
        event = ev(3.0)
        pm = PartialMatch.of("a", ev(1.0)).extended("b", ev(9.0))
        for item, expected in ((WorkItem.event(event), 3.0),
                               (WorkItem.guard(event), 3.0),
                               (WorkItem.match(pm), 1.0)):  # earliest
            q = WorkQueue("q")
            q.push(item)
            assert q.head_event_time() == expected
            assert q.min_event_time() == expected

    def test_kind_constructors(self):
        assert WorkItem.event(ev(0)).kind is ItemKind.EVENT
        assert WorkItem.guard(ev(0)).kind is ItemKind.GUARD
        assert (
            WorkItem.match(PartialMatch.of("a", ev(0))).kind is ItemKind.MATCH
        )


class TestAGBAccountingErrors:
    def test_re_retain_with_stale_payload_size_is_counted(self):
        # The same event id retained again with a different payload size:
        # the AGB keeps the originally recorded size (so release stays
        # balanced) but flags the anomaly instead of passing silently.
        agb = AgentGlobalBuffer()
        agb.retain_event(Event(A, 1.0, event_id=7, payload_size=10))
        agb.retain_event(Event(A, 1.0, event_id=7, payload_size=99))
        assert agb.accounting_errors == 1
        assert agb.current_bytes == 10
        agb.release_event(Event(A, 1.0, event_id=7, payload_size=99))
        agb.release_event(Event(A, 1.0, event_id=7, payload_size=99))
        assert agb.current_bytes == 0
        assert agb.accounting_errors == 1

    def test_consistent_re_retain_is_not_an_error(self):
        agb = AgentGlobalBuffer()
        event = ev(1.0)
        agb.retain_event(event)
        agb.retain_event(event)
        assert agb.accounting_errors == 0
        assert agb.current_bytes == 10

    def test_unmatched_release_is_counted_and_ignored(self):
        agb = AgentGlobalBuffer()
        retained = ev(1.0)
        agb.retain_event(retained)
        stranger = ev(2.0)
        agb.release_event(stranger)
        assert agb.accounting_errors == 1
        # The bogus release must not disturb the byte accounting.
        assert agb.current_bytes == 10
        agb.release_event(retained)
        assert agb.current_bytes == 0

    def test_errors_surface_in_snapshot_merge(self):
        snaps = [
            BufferSnapshot(eb_items=1, mb_items=0, mb_pointers=0,
                           agb_bytes=0, accounting_errors=2),
            BufferSnapshot(eb_items=0, mb_items=1, mb_pointers=0,
                           agb_bytes=0, accounting_errors=3),
            BufferSnapshot(eb_items=0, mb_items=0, mb_pointers=0,
                           agb_bytes=0),
        ]
        merged = BufferSnapshot.merge(snaps)
        assert merged.accounting_errors == 5
