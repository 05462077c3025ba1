"""Agent buffers: distributed EB/MB fragments and the agent-global buffer.

Paper Section 3.2: each worker owns a *fragment* of the agent's event
buffer (EB) and/or match buffer (MB), making synchronization pairwise — a
worker processing an item locks each opposite-role fragment in turn.  The
agent-global buffer (AGB) stores every event payload entering the agent
exactly once; EB and MB entries are pointers into it (Python object
references), so the AGB here is a reference-counting byte accountant used
for the peak-memory metric, not a separate copy of the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, Iterator, TypeVar

from repro.core.events import Event
from repro.core.matches import PartialMatch

__all__ = ["FragmentedBuffer", "AgentGlobalBuffer", "BufferSnapshot"]

ItemT = TypeVar("ItemT")


class FragmentedBuffer(Generic[ItemT]):
    """A buffer split into per-worker fragments.

    Fragments are created lazily when a worker first stores into the buffer
    (workers migrating between agents under the agent-dynamic model create
    fragments on arrival; their old fragments stay behind and drain as their
    contents expire, exactly as in Section 4.1).
    """

    __slots__ = ("name", "_fragments", "stored", "purged")

    def __init__(self, name: str) -> None:
        self.name = name
        self._fragments: dict[int, list[ItemT]] = {}
        self.stored = 0
        self.purged = 0

    def store(self, owner: int, item: ItemT) -> None:
        self._fragments.setdefault(owner, []).append(item)
        self.stored += 1

    def replace_fragment(self, owner: int, kept: list[ItemT]) -> None:
        """Install the post-purge contents of one fragment.

        Accounts the removed items and drops the fragment entirely when
        emptied (a fragment left behind by a migrated worker stops costing
        a lock per traversal once its contents expire — Section 4.1).
        No-op when nothing was removed.
        """
        fragment = self._fragments.get(owner)
        removed = (len(fragment) if fragment else 0) - len(kept)
        if removed <= 0:
            return
        self.purged += removed
        if kept:
            self._fragments[owner] = kept
        else:
            del self._fragments[owner]

    def fragments(self) -> Iterator[tuple[int, list[ItemT]]]:
        """Iterate (owner, fragment) pairs — each visit models one lock.

        Yields over a snapshot so callers may purge (and delete emptied)
        fragments while iterating.
        """
        yield from list(self._fragments.items())

    def fragment_count(self) -> int:
        return len(self._fragments)

    def purge_fragment(self, owner: int, keep) -> int:
        """Filter one fragment in place with predicate *keep*; returns the
        number of removed items."""
        fragment = self._fragments.get(owner)
        if not fragment:
            return 0
        kept = [item for item in fragment if keep(item)]
        removed = len(fragment) - len(kept)
        if removed:
            self.replace_fragment(owner, kept)
        return removed

    def total_items(self) -> int:
        return sum(len(fragment) for fragment in self._fragments.values())

    def all_items(self) -> Iterator[ItemT]:
        for fragment in self._fragments.values():
            yield from fragment

    def __repr__(self) -> str:
        return (
            f"FragmentedBuffer({self.name}, fragments={len(self._fragments)}, "
            f"items={self.total_items()})"
        )


class AgentGlobalBuffer:
    """Reference-counted accounting of unique event payloads in an agent.

    ``retain`` when an event enters (via ES, or inside a partial match via
    MS); ``release`` when the referencing EB/MB entry is purged.  The
    ``current_bytes`` / ``peak_bytes`` figures feed the memory metric: the
    modelled size of the payloads this agent would hold in a real
    deployment, with the paper's no-duplication property (an event stored by
    both EB and several partial matches is counted once).
    """

    __slots__ = ("_refcounts", "current_bytes", "peak_bytes",
                 "accounting_errors")

    def __init__(self) -> None:
        self._refcounts: dict[int, tuple[int, int]] = {}
        self.current_bytes = 0
        self.peak_bytes = 0
        # Accounting anomalies: an event re-retained under the same id with
        # a different payload size (the stale recorded size keeps driving
        # the byte figures), or a release for an id never retained (a
        # refcount leak elsewhere).  Both used to pass silently and could
        # drift ``current_bytes``/``peak_bytes``; they are now counted and
        # surfaced through :class:`BufferSnapshot`.
        self.accounting_errors = 0

    def retain_event(self, event: Event) -> None:
        entry = self._refcounts.get(event.event_id)
        if entry is None:
            self._refcounts[event.event_id] = (1, event.payload_size)
            self.current_bytes += event.payload_size
            if self.current_bytes > self.peak_bytes:
                self.peak_bytes = self.current_bytes
        else:
            count, size = entry
            if size != event.payload_size:
                self.accounting_errors += 1
            self._refcounts[event.event_id] = (count + 1, size)

    def release_event(self, event: Event) -> None:
        entry = self._refcounts.get(event.event_id)
        if entry is None:
            self.accounting_errors += 1
            return
        count, size = entry
        if count <= 1:
            del self._refcounts[event.event_id]
            self.current_bytes -= size
        else:
            self._refcounts[event.event_id] = (count - 1, size)

    def retain_match(self, partial: PartialMatch) -> None:
        for event in partial.events():
            self.retain_event(event)

    def release_match(self, partial: PartialMatch) -> None:
        for event in partial.events():
            self.release_event(event)

    def unique_events(self) -> int:
        return len(self._refcounts)


@dataclass(frozen=True)
class BufferSnapshot:
    """Point-in-time memory measurement of one agent (item + byte units)."""

    eb_items: int
    mb_items: int
    mb_pointers: int          # sum of event counts over buffered matches
    agb_bytes: int
    quarantined: int = 0
    accounting_errors: int = 0  # AGB retain/release anomalies observed

    @property
    def pointer_items(self) -> int:
        return self.eb_items + self.mb_pointers

    def total_bytes(self, pointer_size: int = 8) -> int:
        return self.agb_bytes + self.pointer_items * pointer_size

    @staticmethod
    def merge(snapshots: "list[BufferSnapshot]") -> "BufferSnapshot":
        return BufferSnapshot(
            eb_items=sum(s.eb_items for s in snapshots),
            mb_items=sum(s.mb_items for s in snapshots),
            mb_pointers=sum(s.mb_pointers for s in snapshots),
            agb_bytes=sum(s.agb_bytes for s in snapshots),
            quarantined=sum(s.quarantined for s in snapshots),
            accounting_errors=sum(s.accounting_errors for s in snapshots),
        )
