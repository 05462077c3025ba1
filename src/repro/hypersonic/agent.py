"""HYPERSONIC agents (paper Section 3.2).

An agent is the logical unit of execution responsible for one NFA state.
Agent ``j`` (0-based; the paper's ``A_{j+2}``) matches events of stage
``j+1``'s type — received on its *event stream* (ES) — against the partial
matches covering stages ``0..j`` received from its predecessor on its
*match stream* (MS).  Internally it keeps:

* a fragmented event buffer (EB) and match buffer (MB), one fragment per
  worker, so synchronization is pairwise;
* an agent-global buffer (AGB) reference-counting unique event payloads;
* for stages guarded by negation, a buffer of negated-type events plus a
  *quarantine* of candidate matches awaiting the all-clear.

The streaming-join discipline gives exactly-once pair evaluation: an
incoming item is compared against everything already stored in the opposite
buffer, then stored itself; any later opposite item will find it.

Negation and the quarantine
---------------------------
The chain NFA attaches negation guards to the stage *preceding* the negated
item (see :mod:`repro.core.nfa`).  Agent ``j`` therefore enforces the
guards between stages ``j`` and ``j+1``... from the perspective of binding:
when agent ``j`` binds stage ``j+1``'s event, both neighbours of any guard
between stages ``j`` and ``j+1`` are known.  Because events and matches
reach an agent with (bounded) delay, a freshly extended match cannot be
declared guard-clean immediately: a negated-type event with a smaller
timestamp may still be in flight.  The agent quarantines the candidate
until the splitter watermark passes the candidate's release point and the
agent's own guard queue holds nothing older — then no striking event can
exist anywhere in the system.

Trailing guards (negation at the end of the pattern) are enforced by the
*last* agent on its own outputs with release point ``earliest + W``.

Kleene closure
--------------
A Kleene agent implements the NFA self-loop by growing every accepted
tuple *inline* on the unit that created it: the new tuple is joined against
the event buffer ("append after the tuple's last element" semantics) and
stored into the match buffer so future events keep extending it — every
non-empty subsequence appears exactly once, as skip-till-any-match
requires.  (The paper routes loop-backs through the agent's own match
stream; inline growth performs the identical comparisons but avoids the
unbounded event-time lag a loop-back accumulates behind queue backlogs,
which no window-based purge bound could tolerate.)

Time-indexed buffers
--------------------
Scans visit only the buffer entries that can still match, using the
timestamp order the buffers already have: each EB fragment has one
writer, its unit, which stores events in ES pop order, and the ES is FIFO
in stream order; the guard list is appended in guard-queue order and only
ever loses a prefix.  MB fragments are ordered by partial-match timestamp
unless a store broke the order, which the fragment's *unordered* mark
records.  Virtual charges do not depend on what a scan skips: fragments
are charged by size and guard scans by list position.

Join-key buckets
----------------
When the stage's first conjunct is an equality with an earlier position
(``Stage.key``, DESIGN §2p), each EB and MB fragment is also grouped by
that key, and a scan visits only the new item's group; a guard with a
key does the same over the guard list.  Every scan still charges what
the full scan charges: fragment scans count their candidates by
``bisect`` or by their window and SEQ-order tests alone, and guard scans
keep charging by list position.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, islice
from operator import attrgetter
from typing import Callable, Iterable

from repro.core.events import Event
from repro.core.joinkeys import KeyBuckets, position_of
from repro.core.matches import PartialMatch
from repro.core.nfa import NegationGuard, Stage, last_bound_event, seq_candidates
from repro.hypersonic.buffers import AgentGlobalBuffer, BufferSnapshot, FragmentedBuffer
from repro.hypersonic.items import ItemKind, Receipt, WorkItem, WorkQueue

__all__ = ["AgentCore", "QuarantineEntry", "guard_type_names"]

_timestamp = attrgetter("timestamp")
_earliest = attrgetter("earliest")


def _agent_guards(
    stages: tuple[Stage, ...], stage_index: int, is_last: bool
) -> tuple[tuple[NegationGuard, ...], tuple[NegationGuard, ...]]:
    """The negation guards the agent binding *stage_index* enforces:
    internal ones, between the previous stage and this one, and, on the
    last agent, the trailing ones."""
    internal = tuple(
        guard for guard in stages[stage_index - 1].guards_after
        if not guard.trailing
    )
    trailing = (
        tuple(g for g in stages[stage_index].guards_after if g.trailing)
        if is_last
        else ()
    )
    return internal, trailing


def guard_type_names(
    stages: tuple[Stage, ...], stage_index: int, is_last: bool
) -> frozenset[str]:
    """The negated event types the agent binding *stage_index* consumes."""
    internal, trailing = _agent_guards(stages, stage_index, is_last)
    return frozenset(guard.item.event_type.name for guard in internal + trailing)


@dataclass
class QuarantineEntry:
    """A candidate match awaiting negation clearance."""

    partial: PartialMatch
    release_ts: float
    guards: tuple[NegationGuard, ...]
    phase: str  # "internal" or "trailing"


class AgentCore:
    """State and matching logic of one agent.

    Drivers call :meth:`pop` / :meth:`process` in a loop; the returned
    :class:`Receipt` carries both the emitted matches (for routing) and the
    work counters (for the simulator's virtual clock).
    """

    def __init__(
        self,
        agent_index: int,
        stages: tuple[Stage, ...],
        stage_index: int,
        window: float,
        watermark: Callable[[], float],
        is_last: bool,
        global_floor=None,
    ) -> None:
        if stage_index < 1 or stage_index >= len(stages):
            raise ValueError(f"agent stage index {stage_index} out of range")
        self.agent_index = agent_index
        self.stages = stages
        self.stage = stages[stage_index]
        self.stage_index = stage_index
        self.window = window
        self.watermark = watermark
        self.is_last = is_last
        # Two different safety slacks: partial matches can arrive with an
        # ``earliest`` up to one window older than the splitter watermark
        # (a Kleene loop-back adds up to W of event-time skew), so buffered
        # *events* must out-live the window by a full W.  The event stream,
        # by contrast, is timestamp-FIFO, so buffered *matches* can be
        # purged against a tight watermark-backed bound.
        self.event_purge_slack = window
        self.match_purge_slack = 0.25 * window

        self.internal_guards, self.trailing_guards = _agent_guards(
            stages, stage_index, is_last
        )
        self.guard_type_names = guard_type_names(stages, stage_index, is_last)

        label = f"A{agent_index}"
        self.es = WorkQueue(f"{label}.ES")
        self.ms = WorkQueue(f"{label}.MS")
        self.guard_q = WorkQueue(f"{label}.GQ")

        self.event_buffer: FragmentedBuffer[Event] = FragmentedBuffer(f"{label}.EB")
        self.match_buffer: FragmentedBuffer[PartialMatch] = FragmentedBuffer(
            f"{label}.MB"
        )
        self.agb = AgentGlobalBuffer()
        self._guard_events: list[Event] = []
        self._quarantine: list[QuarantineEntry] = []
        self._pending_loop: list[PartialMatch] = []
        # Per-fragment minimum match timestamp, maintained on store/purge;
        # min over fragments bounds the oldest buffered match (the guard
        # buffer may only purge events no alive match could still need).
        self._mb_frag_min: dict[int, float] = {}
        # MB fragments whose partial matches are not in timestamp order
        # (a downstream agent's inputs, or Kleene growth); those keep the
        # full scan until a purge finds them ordered again.
        self._mb_unordered: set[int] = set()
        # Join-key buckets (DESIGN §2p): of each EB and MB fragment, by
        # owner, when the stage has a key and the agent is not in vector
        # mode; of the guard list, for each guard with a key, over the
        # events of its type.
        self._eb_keys: dict[int, KeyBuckets] = {}
        self._mb_keys: dict[int, KeyBuckets] = {}
        # The first agent's MB holds only seeds, one event each, so its
        # scans can be counted by bisect (_count_joinable_partials).
        self._seeds_only = stage_index == 1 and not self.stage.is_kleene
        self._guard_keys: tuple[tuple[NegationGuard, KeyBuckets], ...] = tuple(
            (guard, KeyBuckets.of_events(guard.key))
            for guard in self.internal_guards + self.trailing_guards
            if guard.key is not None
        )

        self.latest_event_ts = float("-inf")
        self.latest_match_ts = float("-inf")
        self.items_processed = 0
        # Batched execution mode (opt-in via :meth:`enable_vector_mode`):
        # a compiled per-stage kernel plus cached columnar views over the
        # EB/MB fragments.  ``None`` kernel = stage not vectorizable; the
        # scalar path is then used unconditionally.
        self.vector_mode = False
        self._vector_kernel = None
        self._eb_columns: dict[int, object] = {}
        self._mb_columns: dict[int, object] = {}
        # Callable returning the minimum timestamp of any partial match
        # still alive anywhere in the system (queued, buffered, or
        # quarantined at any agent).  Guard-event purges must respect it:
        # a negated event may still need to strike a candidate derived
        # from a match that has not reached this agent yet.
        self.global_floor = global_floor

    # ------------------------------------------------------------------ #
    # Work intake                                                        #
    # ------------------------------------------------------------------ #

    def pop(self, role: str, now: float = float("inf")) -> WorkItem | None:
        """Dequeue per role: event workers drain the guard queue first so
        quarantine release points are reached promptly."""
        if role == "event":
            item = self.guard_q.pop(now)
            if item is not None:
                return item
            return self.es.pop(now)
        return self.ms.pop(now)

    # ------------------------------------------------------------------ #
    # Processing                                                         #
    # ------------------------------------------------------------------ #

    def process(self, item: WorkItem, unit_id: int) -> Receipt:
        self.items_processed += 1
        if item.kind is ItemKind.EVENT:
            receipt = self._process_event(item.payload, unit_id)
        elif item.kind is ItemKind.MATCH:
            receipt = self._process_match(item.payload, unit_id)
        else:
            receipt = self._process_guard_event(item.payload)
        self._release_quarantine(receipt)
        self._drain_kleene(receipt, unit_id)
        return receipt

    def enable_vector_mode(self) -> bool:
        """Compile this stage's vectorized kernel (batched mode).

        Returns ``True`` when the stage's conditions are vectorizable;
        otherwise the agent stays on the scalar path (Kleene stages,
        arbitrary predicates).  Idempotent.
        """
        if self._vector_kernel is None:
            from repro.core.vectorized import compile_stage_kernel

            self._vector_kernel = compile_stage_kernel(self.stage)
        self.vector_mode = self._vector_kernel is not None
        if self.vector_mode:
            # The batched scans read no fragment buckets (DESIGN §2p), so
            # none are kept, and the scalar scans go unkeyed.
            self._eb_keys.clear()
            self._mb_keys.clear()
        return self.vector_mode

    def process_batch(self, items: list[WorkItem], unit_id: int) -> Receipt:
        """Process a micro-batch of work items with one merged receipt.

        Event batches on a vectorized stage take the batched scan — one
        MB-fragment lock per batch instead of one per event.  Anything
        else (mixed kinds, guard items, non-vectorizable stages) falls
        back to the scalar loop; the match set is identical either way
        because pair evaluation is exactly-once regardless of
        interleaving (see the module docstring's streaming-join note).
        """
        if (
            len(items) > 1
            and self.vector_mode
            and all(item.kind is ItemKind.EVENT for item in items)
        ):
            self.items_processed += len(items)
            receipt = self._process_event_batch(
                [item.payload for item in items], unit_id
            )
            self._release_quarantine(receipt)
            self._drain_kleene(receipt, unit_id)
            return receipt
        receipt = Receipt()
        for item in items:
            receipt.merge(self.process(item, unit_id))
        return receipt

    def maintenance(self) -> Receipt:
        """Release any quarantine entries whose release point has passed.

        Drivers call this when an agent is otherwise idle so negation
        results are not withheld until the next data item.
        """
        receipt = Receipt()
        self._release_quarantine(receipt)
        self._drain_kleene(receipt, unit_id=-1)
        return receipt

    def flush(self) -> Receipt:
        """End of stream: no more events can arrive, release everything."""
        receipt = Receipt()
        remaining = self._quarantine
        self._quarantine = []
        for entry in remaining:
            if entry.phase == "internal":
                self._finish_candidate(entry.partial, receipt, from_flush=True)
            else:
                receipt.emitted_down.append(entry.partial)
        self._drain_kleene(receipt, unit_id=-1)
        return receipt

    # -- event path ----------------------------------------------------- #

    def _process_event(self, event: Event, unit_id: int) -> Receipt:
        receipt = Receipt()
        if event.timestamp > self.latest_event_ts:
            self.latest_event_ts = event.timestamp
        window = self.window
        stage = self.stage
        kleene = stage.is_kleene
        position = stage.item.name
        # Purge horizon for matches: the opposite stream's progress, with
        # slack absorbing inter-agent delay (paper Section 3.2 assumes W
        # exceeds the processing delay).
        horizon = self.latest_event_ts - window - self.match_purge_slack
        event_key = stage.key.of_event(event) if stage.key is not None else None

        for owner, fragment in self.match_buffer.fragments():
            if horizon > float("-inf"):
                self._purge_match_fragment(owner, horizon)
            resident = self.match_buffer._fragments.get(owner, ())
            receipt.note_fragment(len(resident))
            ordered = owner not in self._mb_unordered
            buckets = self._mb_keys.get(owner)
            group = None if buckets is None else buckets.group(event_key)
            if group is None:
                joinable = self._joinable_partials(event, resident, ordered)
                receipt.comparisons += len(joinable)
            else:
                # Only the event's group can pass the key conjunct; the
                # charge is what scanning the whole fragment compares.
                receipt.comparisons += self._count_joinable_partials(
                    event, resident, ordered)
                joinable = (
                    self._joinable_partials(event, group, ordered)
                    if group else ()
                )
            for partial in joinable:
                if not stage.accepts(partial, event):
                    continue
                if kleene and position in partial.binding:
                    # Kleene loop-back match already holding a tuple here:
                    # append semantics.
                    grown = partial.extended_kleene(position, event)
                    self._accept(grown, receipt)
                    continue
                extended = stage.bind(partial, event)
                self._route_new_candidate(extended, event.timestamp, receipt)
        self._store_event(event, unit_id)
        return receipt

    def _joinable_partials(self, event: Event, partials, ordered: bool
                           ) -> list[PartialMatch]:
        """The partials of one MB fragment, or of one key's group in it,
        that the scan compares with *event*: within the window and before
        it in SEQ order (a Kleene loop-back match by its tuple's last
        event), in fragment order.

        *ordered* says the partials are in timestamp order.  Then SEQ
        order rejects every partial that starts after the event, and one
        that starts more than a window before it fails either the window
        (``fits_with`` is ``ts - earliest`` unless the partial ends after
        the event) or SEQ order (it does end after the event), so the
        scan covers the band between, which a ``bisect`` on the same
        difference finds.
        """
        if ordered:
            partials = islice(partials, *self._band(event, partials))
        return seq_candidates(partials, self.stages, self.stage_index, event,
                              self.window)

    def _band(self, event: Event, partials) -> tuple[int, int]:
        """The index range of an ordered MB fragment that can join
        *event* (see :meth:`_joinable_partials`)."""
        timestamp = event.timestamp
        return (
            bisect_left(partials, -self.window,
                        key=lambda partial: -(timestamp - partial.earliest)),
            bisect_right(partials, timestamp, key=_earliest),
        )

    def _count_joinable_partials(self, event: Event, partials,
                                 ordered: bool) -> int:
        """``len(self._joinable_partials(event, partials, ordered))``.

        On the first agent an ordered fragment is counted by bisect: each
        seed is one event, at its ``earliest``, so every seed in the band
        before the event's timestamp is within the window and before it
        in SEQ order, and only the seeds tied with it are settled by id.
        """
        if not (ordered and self._seeds_only):
            return len(self._joinable_partials(event, partials, ordered))
        first, end = self._band(event, partials)
        tied = bisect_left(partials, event.timestamp, lo=first, hi=end,
                           key=_earliest)
        count = tied - first
        if end > tied:
            count += len(seq_candidates(
                islice(partials, tied, end), self.stages, 1, event,
                self.window
            ))
        return count

    def _process_event_batch(self, events: list[Event], unit_id: int) -> Receipt:
        """Batched event scan: one MB traversal amortized over the batch.

        ES deliveries are timestamp-FIFO, so the purge horizon derives from
        the *first* event of the batch — every later event's matchable
        partials (``earliest >= ts - window``) then survive the purge, and
        the extra partials a laxer horizon retains cannot match (they fail
        ``fits_with``), keeping the match set identical to the scalar
        order.  Deferring the stores to the end of the batch is safe for
        the same reason: events of this stage's type never join against
        each other (non-Kleene stages only — Kleene stages are never
        vectorized).
        """
        receipt = Receipt()
        window = self.window
        stage = self.stage
        kernel = self._vector_kernel
        horizon = events[0].timestamp - window - self.match_purge_slack
        for event in events:
            if event.timestamp > self.latest_event_ts:
                self.latest_event_ts = event.timestamp
        for owner, fragment in self.match_buffer.fragments():
            self._purge_match_fragment(owner, horizon)
            resident = self.match_buffer._fragments.get(owner)
            if not resident:
                receipt.note_fragment(0)
                continue
            receipt.note_fragment(len(resident))
            columns = self._match_columns(owner, resident)
            for event in events:
                candidates = columns.candidate_indices(event, window)
                if not candidates:
                    continue
                receipt.vector_comparisons += len(candidates)
                accepted = kernel.accepts_over_matches(
                    event, columns, candidates,
                    scalar=lambda i, e=event, r=resident: stage.accepts(r[i], e),
                )
                for index in accepted:
                    extended = stage.bind(resident[index], event)
                    self._route_new_candidate(
                        extended, event.timestamp, receipt
                    )
        for event in events:
            self._store_event(event, unit_id)
        return receipt

    def _match_columns(self, owner: int, fragment: list[PartialMatch]):
        columns = self._mb_columns.get(owner)
        if columns is None:
            from repro.core.vectorized import MatchColumns

            columns = MatchColumns(
                self._vector_kernel, self.stages, self.stage_index
            )
            self._mb_columns[owner] = columns
        columns.sync(fragment)
        return columns

    def _event_columns(self, owner: int, fragment: list[Event]):
        columns = self._eb_columns.get(owner)
        if columns is None:
            from repro.core.vectorized import EventColumns

            columns = EventColumns(self._vector_kernel)
            self._eb_columns[owner] = columns
        columns.sync(fragment)
        return columns

    # -- match path ------------------------------------------------------ #

    def _process_match(self, partial: PartialMatch, unit_id: int) -> Receipt:
        receipt = Receipt()
        if partial.timestamp > self.latest_match_ts:
            self.latest_match_ts = partial.timestamp
        stage = self.stage
        position = stage.item.name
        looping = stage.is_kleene and position in partial.binding
        # A buffered event may only expire relative to the oldest partial
        # match that can still reach it: the slowest match waiting in the
        # MS queue (emitted matches land in the queue instantly, so the
        # queue minimum is a sound bound on arrival skew — including Kleene
        # loop-backs, which re-enter this same queue).
        horizon = self.latest_match_ts - self.window - self.event_purge_slack
        ms_min = self.ms.min_event_time()
        if ms_min is not None and ms_min < horizon:
            horizon = ms_min
        # The match in hand is no longer in the queue, so the queue minimum
        # does not cover it — it still needs every event from its own
        # earliest onward.
        if partial.timestamp < horizon:
            horizon = partial.timestamp
        # The event a new binding must follow in SEQ order: the tuple's
        # last element on a Kleene loop, else the previous stage's event.
        if looping:
            last = partial.binding[position][-1]
        else:
            last = last_bound_event(partial, self.stages, self.stage_index)
        partial_key = (
            stage.key.of_partial(partial) if stage.key is not None else None
        )

        for owner, fragment in self.event_buffer.fragments():
            if horizon > float("-inf"):
                self._purge_event_fragment(owner, horizon)
            resident = self.event_buffer._fragments.get(owner, ())
            receipt.note_fragment(len(resident))
            if self.vector_mode and not looping and resident:
                self._scan_events_vector(partial, resident, owner, receipt)
                continue
            joinable, count = self._joinable_events(partial, last, resident)
            receipt.comparisons += count
            buckets = self._eb_keys.get(owner)
            group = None if buckets is None else buckets.group(partial_key)
            if group is not None:
                # Only the partial's group can pass the key conjunct.
                joinable, _ = self._joinable_events(partial, last, group)
            for event in joinable:
                if not stage.accepts(partial, event):
                    continue
                if looping:
                    grown = partial.extended_kleene(position, event)
                    self._accept(grown, receipt)
                    continue
                extended = stage.bind(partial, event)
                self._route_new_candidate(extended, event.timestamp, receipt)
        # Purge the fragment we are about to store into using the tightest
        # safe bound on future event timestamps: the head of the unprocessed
        # ES backlog, or the splitter watermark when the backlog is empty
        # (every routed event of this type is then already processed).
        # Without this, bursts of arriving matches outpace the event-driven
        # purges and the MB balloons past its steady-state size.
        es_head = self.es.head_event_time()
        effective_event_ts = max(
            self.latest_event_ts,
            es_head if es_head is not None else self.watermark(),
        )
        tight_horizon = effective_event_ts - self.window - self.match_purge_slack
        if tight_horizon > float("-inf"):
            self._purge_match_fragment(unit_id, tight_horizon)
            if partial.timestamp < tight_horizon:
                # The arriving match is itself already expired — no future
                # event can extend it; drop instead of storing.
                self.match_buffer.purged += 1
                return receipt
        self._store_match(partial, unit_id)
        return receipt

    def _joinable_events(
        self, partial: PartialMatch, last: Event, resident: list[Event]
    ) -> tuple[Iterable[Event], int]:
        """The events of one EB fragment, or of one key's group in it,
        that *partial* can bind after *last* (later in SEQ order and
        within the window), in order, and how many there are.

        The fragment is in timestamp order, so the events start at
        *last*'s timestamp.  Those up to ``partial.latest`` (usually only
        the ones tied with *last*, settled by event id) are tested one by
        one.  Past ``latest``, ``fits_with`` computes ``ts - earliest``,
        which only grows with ``ts``, so the events that fit are a run,
        ended by a ``bisect`` on that same difference.  Comparing ``ts``
        with ``earliest + window`` instead can disagree with ``fits_with``
        in either direction, by rounding.
        """
        window = self.window
        earliest = partial.earliest
        last_ts = last.timestamp
        last_id = last.event_id
        start = bisect_left(resident, last_ts, key=_timestamp)
        after = bisect_right(resident, partial.latest, lo=start, key=_timestamp)
        early = [
            event for event in islice(resident, start, after)
            if partial.fits_with(event, window)
            and not (event.timestamp == last_ts and event.event_id <= last_id)
        ]
        stop = bisect_right(resident, window, lo=after,
                            key=lambda event: event.timestamp - earliest)
        return (chain(early, islice(resident, after, stop)),
                len(early) + stop - after)

    def _scan_events_vector(
        self, partial: PartialMatch, resident: list[Event], owner: int,
        receipt: Receipt,
    ) -> None:
        """Vectorized EB-fragment scan for one arriving (non-Kleene) match:
        window/order pre-masks over the columnar view, then the stage
        kernel over the surviving candidates."""
        stage = self.stage
        columns = self._event_columns(owner, resident)
        last = last_bound_event(partial, self.stages, self.stage_index)
        if last is None:
            last_ts, last_id = float("-inf"), -1
        else:
            last_ts, last_id = last.timestamp, last.event_id
        candidates = columns.candidate_indices(
            partial.earliest, partial.latest, last_ts, last_id, self.window
        )
        if not candidates:
            return
        receipt.vector_comparisons += len(candidates)
        accepted = self._vector_kernel.accepts_over_events(
            partial, columns, candidates,
            scalar=lambda i: stage.accepts(partial, resident[i]),
        )
        for index in accepted:
            event = resident[index]
            extended = stage.bind(partial, event)
            self._route_new_candidate(extended, event.timestamp, receipt)

    # -- guard path ------------------------------------------------------ #

    def _process_guard_event(self, event: Event) -> Receipt:
        receipt = Receipt()
        self._guard_events.append(event)
        for guard, buckets in self._guard_keys:
            if guard.item.event_type.name == event.type.name:
                buckets.add(event)
        # Strike quarantined candidates this event invalidates.
        if self._quarantine:
            survivors = []
            for entry in self._quarantine:
                if self._struck_by(entry, event, receipt):
                    continue
                survivors.append(entry)
            self._quarantine = survivors
        # Purge guard events too old to matter for any future candidate:
        # candidates bind events after their match's earliest, so any alive
        # match — anywhere in the system, since in-flight matches may still
        # be headed here — bounds the oldest guard event that can strike.
        horizon = self.watermark() - 3.0 * self.window - self.event_purge_slack
        floor = (
            self.global_floor() if self.global_floor is not None
            else self.local_match_floor()
        )
        if floor < horizon:
            horizon = floor
        if horizon > float("-inf") and self._guard_events:
            cut = bisect_left(self._guard_events, horizon, key=_timestamp)
            for guard, buckets in self._guard_keys:
                type_name = guard.item.event_type.name
                buckets.remove(
                    dropped for dropped in islice(self._guard_events, cut)
                    if dropped.type.name == type_name
                )
            del self._guard_events[:cut]
        return receipt

    # ------------------------------------------------------------------ #
    # Internals                                                          #
    # ------------------------------------------------------------------ #

    def _route_new_candidate(
        self, extended: PartialMatch, bind_ts: float, receipt: Receipt
    ) -> None:
        """Send a freshly extended match through guard checks, quarantine,
        or straight out."""
        if self.internal_guards:
            if self._struck_by_guard_events(
                extended, self.internal_guards, receipt
            ):
                return
            if not self._clear_at(bind_ts):
                self._quarantine.append(
                    QuarantineEntry(
                        partial=extended,
                        release_ts=bind_ts,
                        guards=self.internal_guards,
                        phase="internal",
                    )
                )
                return
        self._finish_candidate(extended, receipt)

    def _finish_candidate(
        self, extended: PartialMatch, receipt: Receipt, from_flush: bool = False
    ) -> None:
        """Internal guards cleared; apply trailing quarantine if needed."""
        if self.trailing_guards:
            release_ts = extended.earliest + self.window
            if self._struck_by_guard_events(
                extended, self.trailing_guards, receipt
            ):
                return
            if not from_flush and not self._clear_at(release_ts):
                self._quarantine.append(
                    QuarantineEntry(
                        partial=extended,
                        release_ts=release_ts,
                        guards=self.trailing_guards,
                        phase="trailing",
                    )
                )
                return
        self._accept(extended, receipt)

    def _struck_by_guard_events(
        self, extended: PartialMatch, guards: tuple[NegationGuard, ...],
        receipt: Receipt,
    ) -> bool:
        """Does a buffered guard event strike the candidate *extended*?

        Charged as a scan of the whole guard list up to the striking
        event; with a single guard that has a join key, the scan reads
        only the guard events of the candidate's key (DESIGN §2p), and
        the striking event's list position is found by ``bisect``.  The
        scan itself starts at the candidate's ``earliest``:
        a guard event must come after the guard's ``after`` event, which
        is bound no earlier than that.  ``bisect_left``, because an event
        tied with ``after`` but with a larger id can still strike.  It
        stops at the first event past every guard's
        :meth:`~repro.core.nfa.NegationGuard.last_strike_time`, the
        ``bisect_right`` position of the largest one: a driver that queues
        events ahead of their partial matches buffers guard events far
        past the candidate.
        """
        guard_events = self._guard_events
        binding = extended.binding
        window = self.window
        earliest = extended.earliest
        last = float("-inf")
        for guard in guards:
            bound = guard.last_strike_time(binding, window, earliest)
            if bound > last:
                last = bound
        scanned = guard_events
        if len(guards) == 1:
            for keyed, buckets in self._guard_keys:
                if keyed is guards[0]:
                    group = buckets.matching(extended)
                    if group is not None:
                        scanned = group
        start = bisect_left(scanned, earliest, key=_timestamp)
        for guard_event in islice(scanned, start, None):
            if guard_event.timestamp > last:
                break
            if any(
                guard.item.event_type.name == guard_event.type.name
                and guard.violates(binding, guard_event, window, earliest)
                for guard in guards
            ):
                receipt.comparisons += position_of(guard_events,
                                                   guard_event) + 1
                return True
        receipt.comparisons += len(guard_events)
        return False

    def _accept(self, partial: PartialMatch, receipt: Receipt) -> None:
        """A guard-clean result: emit downstream and, at a Kleene stage,
        queue it for inline self-loop growth.

        The paper routes loop-backs through the agent's own match stream;
        we grow them inline on the creating unit instead (same work, same
        results) because queueing a loop-back behind a backlog would let
        its event-time lag grow without bound — every loop hop would add a
        full queue traversal — defeating any window-based purge bound.
        """
        receipt.successes += 1
        receipt.emitted_down.append(partial)
        if self.stage.is_kleene:
            self._pending_loop.append(partial)

    def _drain_kleene(self, receipt: Receipt, unit_id: int) -> None:
        """Inline Kleene self-loop: grow each pending tuple against the
        event buffer, then make it visible in the MB for future events."""
        if not self._pending_loop:
            return
        stage = self.stage
        position = stage.item.name
        while self._pending_loop:
            current = self._pending_loop.pop()
            last = current.binding[position][-1]
            for owner, _fragment in self.event_buffer.fragments():
                resident = self.event_buffer._fragments.get(owner, ())
                receipt.note_fragment(len(resident))
                joinable, count = self._joinable_events(current, last,
                                                        resident)
                receipt.comparisons += count
                for event in joinable:
                    if not stage.accepts(current, event):
                        continue
                    grown = current.extended_kleene(position, event)
                    receipt.successes += 1
                    receipt.emitted_down.append(grown)
                    self._pending_loop.append(grown)
            self._store_match(current, unit_id)

    def _clear_at(self, release_ts: float) -> bool:
        """All negated events with timestamp <= release_ts processed?"""
        if self.watermark() <= release_ts:
            return False
        head_ts = self.guard_q.head_event_time()
        return head_ts is None or head_ts > release_ts

    def _struck_by(
        self, entry: QuarantineEntry, event: Event, receipt: Receipt
    ) -> bool:
        for guard in entry.guards:
            if guard.item.event_type.name != event.type.name:
                continue
            receipt.comparisons += 1
            if guard.violates(
                entry.partial.binding, event, self.window, entry.partial.earliest
            ):
                return True
        return False

    def _release_quarantine(self, receipt: Receipt) -> None:
        if not self._quarantine:
            return
        still_held = []
        for entry in self._quarantine:
            if self._clear_at(entry.release_ts):
                if entry.phase == "internal":
                    self._finish_candidate(entry.partial, receipt)
                else:
                    self._accept(entry.partial, receipt)
            else:
                still_held.append(entry)
        self._quarantine = still_held

    # -- storage and purging ---------------------------------------------- #

    def _store_event(self, event: Event, unit_id: int) -> None:
        self.event_buffer.store(unit_id, event)
        self.agb.retain_event(event)
        if self.stage.key is not None and not self.vector_mode:
            self._bucket(self._eb_keys, unit_id, KeyBuckets.of_events).add(event)

    def _store_match(self, partial: PartialMatch, unit_id: int) -> None:
        fragment = self.match_buffer._fragments.get(unit_id)
        if fragment and partial.earliest < fragment[-1].earliest:
            self._mb_unordered.add(unit_id)
        self.match_buffer.store(unit_id, partial)
        self.agb.retain_match(partial)
        if self.stage.key is not None and not self.vector_mode:
            self._bucket(self._mb_keys, unit_id,
                         KeyBuckets.of_partials).add(partial)
        current = self._mb_frag_min.get(unit_id)
        if current is None or partial.timestamp < current:
            self._mb_frag_min[unit_id] = partial.timestamp

    def _bucket(self, keys: dict[int, KeyBuckets], owner: int,
                make: Callable) -> KeyBuckets:
        buckets = keys.get(owner)
        if buckets is None:
            buckets = keys[owner] = make(self.stage.key)
        return buckets

    @staticmethod
    def _unbucket(keys: dict[int, KeyBuckets], owner: int, dropped,
                  emptied: bool) -> None:
        """Drop what a purge of *owner*'s fragment dropped from its
        buckets, and the buckets with the fragment."""
        buckets = keys.get(owner)
        if buckets is None:
            return
        if emptied:
            del keys[owner]
        else:
            buckets.remove(dropped)

    def _purge_match_fragment(self, owner: int, horizon: float) -> None:
        fragment = self.match_buffer._fragments.get(owner)
        if not fragment:
            self._mb_frag_min.pop(owner, None)
            self._mb_unordered.discard(owner)
            return
        if self._mb_frag_min[owner] >= horizon:
            return
        if owner in self._mb_unordered:
            keep = [partial.earliest >= horizon for partial in fragment]
            kept = []
            dropped = []
            for partial, kept_it in zip(fragment, keep):
                if kept_it:
                    kept.append(partial)
                else:
                    dropped.append(partial)
                    self.agb.release_match(partial)
            stamps = [partial.earliest for partial in kept]
            if stamps == sorted(stamps):
                self._mb_unordered.discard(owner)
            kept_min = min(stamps, default=None)
        else:
            cut = bisect_left(fragment, horizon, key=_earliest)
            dropped = fragment[:cut]
            for partial in dropped:
                self.agb.release_match(partial)
            keep = slice(cut, None)
            kept = fragment[keep]
            kept_min = kept[0].earliest if kept else None
        self._unbucket(self._mb_keys, owner, dropped, not kept)
        self._replace_fragment(self.match_buffer, self._mb_columns, owner,
                               kept, keep)
        if kept_min is None:
            self._mb_frag_min.pop(owner, None)
        else:
            self._mb_frag_min[owner] = kept_min

    def _purge_event_fragment(self, owner: int, horizon: float) -> None:
        fragment = self.event_buffer._fragments.get(owner)
        if not fragment or fragment[0].timestamp >= horizon:
            return
        cut = bisect_left(fragment, horizon, key=_timestamp)
        dropped = fragment[:cut]
        for event in dropped:
            self.agb.release_event(event)
        keep = slice(cut, None)
        self._unbucket(self._eb_keys, owner, dropped, cut == len(fragment))
        self._replace_fragment(self.event_buffer, self._eb_columns, owner,
                               fragment[keep], keep)

    @staticmethod
    def _replace_fragment(buffer: FragmentedBuffer, views: dict, owner: int,
                          kept: list, keep) -> None:
        """Install a purge on one fragment and on its columnar view.

        *keep* names the surviving entries, a slice for a prefix cut or a
        boolean mask, and the view drops the same rows in place, so a
        buffered history is centered once however many purges it
        survives.  A purge that empties the fragment deletes it, and the
        view goes with it.
        """
        buffer.replace_fragment(owner, kept)
        view = views.get(owner)
        if view is None:
            return
        if kept:
            view.retain(keep)
        else:
            del views[owner]

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    def local_match_floor(self) -> float:
        """Minimum timestamp of any match alive at this agent: queued in
        the MS, buffered in the MB, or held in quarantine."""
        floor = min(self._mb_frag_min.values(), default=float("inf"))
        ms_min = self.ms.min_event_time()
        if ms_min is not None and ms_min < floor:
            floor = ms_min
        for entry in self._quarantine:
            if entry.partial.timestamp < floor:
                floor = entry.partial.timestamp
        for pending in self._pending_loop:
            if pending.timestamp < floor:
                floor = pending.timestamp
        return floor

    def snapshot(self) -> BufferSnapshot:
        mb_pointers = sum(
            partial.event_count() for partial in self.match_buffer.all_items()
        )
        return BufferSnapshot(
            eb_items=self.event_buffer.total_items(),
            mb_items=self.match_buffer.total_items(),
            mb_pointers=mb_pointers,
            agb_bytes=self.agb.current_bytes,
            quarantined=len(self._quarantine),
            accounting_errors=self.agb.accounting_errors,
        )

    def working_set_items(self, unit_id: int) -> int:
        """Items resident in the fragments owned by *unit_id* — the working
        set driving the simulator's cache-pressure model."""
        eb = self.event_buffer._fragments.get(unit_id)
        mb = self.match_buffer._fragments.get(unit_id)
        return (len(eb) if eb else 0) + (len(mb) if mb else 0)

    def queue_depth(self) -> int:
        return len(self.es) + len(self.ms) + len(self.guard_q)

    def channel_depths(self) -> tuple[tuple[str, int], ...]:
        """Current depth of each input channel, for queue-depth tracing."""
        return (
            ("ES", len(self.es)),
            ("MS", len(self.ms)),
            ("GQ", len(self.guard_q)),
        )

    def __repr__(self) -> str:
        return (
            f"AgentCore(A{self.agent_index}, stage={self.stage_index}, "
            f"type={self.stage.event_type_name})"
        )
