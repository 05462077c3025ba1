"""Sequential baseline CEP engine (the paper's non-parallel comparator).

Evaluates one pattern over an in-order event stream on a single logical
execution unit, maintaining per-stage pools of partial matches exactly as
the chain NFA of Section 2.2 prescribes.  This engine is the ground truth:
every parallel strategy's functional executor must emit the same match set
(the validation the authors perform in Section 5.1).

Besides SEQ chain patterns it also evaluates flat AND and OR patterns, which
the chain compiler does not cover; the parallel engines are SEQ-only, like
the system in the paper.

The engine counts the work it does (`EngineStats`): event-match comparisons,
buffered items, peak pool sizes.  The discrete-event simulator reuses these
counters as its ground-truth computational load.

A stage or negation guard with a join key (DESIGN §2p) has its pool or
negated-event buffer bucketed by that key, and a scan visits only the
new item's bucket; it still charges every pair the full scan would have
compared.  Both rely on stream order, which :meth:`SequentialEngine.process`
checks for every event (:func:`~repro.core.events.check_order`).

A scan, a Kleene loop-back's included, takes its candidates from
:func:`~repro.core.nfa.seq_candidates`, the window and SEQ-order test the
agents and the planner's sampler share, and the purges expire by the
difference that test computes (DESIGN §2s).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.core.errors import EngineError
from repro.core.events import Event, check_order
from repro.core.joinkeys import KeyBuckets, position_of
from repro.core.matches import Match, PartialMatch
from repro.core.nfa import (
    ChainNFA,
    NegationGuard,
    Stage,
    compile_pattern,
    count_seq_candidates,
    seq_candidates,
)
from repro.core.patterns import Operator, Pattern

__all__ = ["EngineStats", "SequentialEngine", "detect"]


@dataclass
class EngineStats:
    """Work counters maintained by an engine run.

    ``comparisons`` counts event-vs-partial-match condition evaluations —
    the unit of computational cost ``c_i`` in the paper's model.  Peak
    counters approximate the paper's peak-memory metric in item units.
    """

    events_processed: int = 0
    comparisons: int = 0
    matches_emitted: int = 0
    partial_matches_created: int = 0
    peak_partial_matches: int = 0
    peak_buffered_events: int = 0
    purged_partial_matches: int = 0
    purged_events: int = 0

    def observe_pools(self, partials: int, events: int) -> None:
        if partials > self.peak_partial_matches:
            self.peak_partial_matches = partials
        if events > self.peak_buffered_events:
            self.peak_buffered_events = events


class SequentialEngine:
    """Single-threaded evaluation of one pattern.

    Usage::

        engine = SequentialEngine(pattern)
        for match in engine.run(events):
            ...

    or incrementally::

        engine = SequentialEngine(pattern)
        for event in events:
            for match in engine.process(event):
                ...
        for match in engine.close():
            ...
    """

    def __init__(self, pattern: Pattern) -> None:
        self.pattern = pattern
        self.stats = EngineStats()
        self._closed = False
        self._last_timestamp = float("-inf")
        if pattern.operator is Operator.SEQ:
            self._nfa: ChainNFA | None = compile_pattern(pattern)
            self._pools: list[list[PartialMatch]] = [
                [] for _ in range(self._nfa.num_stages)
            ]
            self._stages_by_type: dict[str, list[Stage]] = {}
            for stage in self._nfa.stages:
                self._stages_by_type.setdefault(
                    stage.event_type_name, []).append(stage)
            self._guarded_types = self._nfa.guarded_type_names()
            self._neg_buffer: dict[str, list[Event]] = {
                name: [] for name in self._guarded_types
            }
            # The earliest timestamp in each pool and negated-event
            # buffer, so a purge skips those it would leave unchanged.
            self._pool_floors = [math.inf] * self._nfa.num_stages
            self._neg_floors = dict.fromkeys(self._guarded_types, math.inf)
            self._has_trailing_guard = any(
                guard.trailing
                for stage in self._nfa.stages
                for guard in stage.guards_after
            )
            self._pending: list[PartialMatch] = []
            # Join-key buckets (DESIGN §2p): of each keyed stage's pool,
            # and of the negated-event buffer each keyed guard scans.
            stages = self._nfa.stages
            self._pool_keys: list[KeyBuckets | None] = [
                KeyBuckets.of_partials(stage.key)
                if index and stage.key is not None else None
                for index, stage in enumerate(stages)
            ]
            self._guard_keys: dict[str, list[tuple[NegationGuard, KeyBuckets]]] = {}
            for stage in stages:
                for guard in stage.guards_after:
                    if guard.key is not None:
                        self._guard_keys.setdefault(
                            guard.item.event_type.name, []
                        ).append((guard, KeyBuckets.of_events(guard.key)))
        else:
            self._nfa = None
            self._and_pool: list[PartialMatch] = [PartialMatch.empty()]

    # ------------------------------------------------------------------ #
    # Public driving interface                                           #
    # ------------------------------------------------------------------ #

    def run(self, events: Iterable[Event]) -> Iterator[Match]:
        """Process a whole in-order stream and yield matches as found."""
        for event in events:
            yield from self.process(event)
        yield from self.close()

    def process(self, event: Event) -> list[Match]:
        """Feed one event; return the full matches it completed.

        Raises :class:`~repro.core.errors.StreamError` when *event* is
        earlier than the event before it."""
        if self._closed:
            raise EngineError("process() called after close()")
        self._last_timestamp = check_order(event, self._last_timestamp)
        self.stats.events_processed += 1
        if self._nfa is not None:
            return self._process_seq(event)
        if self.pattern.operator is Operator.AND:
            return self._process_and(event)
        return self._process_or(event)

    def close(self) -> list[Match]:
        """Signal end of stream; release matches held back by trailing
        negation guards."""
        if self._closed:
            return []
        self._closed = True
        if self._nfa is None or not self._has_trailing_guard:
            return []
        window = self._nfa.window
        released = []
        for partial in self._pending:
            detected = max(partial.latest, partial.earliest + window)
            released.append(Match.from_partial(partial, detected_at=detected))
        self._pending = []
        self.stats.matches_emitted += len(released)
        return released

    # ------------------------------------------------------------------ #
    # Introspection (used by the simulator's cost accounting)            #
    # ------------------------------------------------------------------ #

    def buffered_items(self) -> int:
        """Partial matches + buffered events currently held."""
        if self._nfa is not None:
            partials = sum(len(pool) for pool in self._pools) + len(self._pending)
            negated = sum(len(buf) for buf in self._neg_buffer.values())
            return partials + negated
        return len(self._and_pool)

    def buffered_match_count(self) -> int:
        """Number of partial matches currently buffered (excludes the
        negated-event buffers)."""
        if self._nfa is not None:
            return sum(len(pool) for pool in self._pools) + len(self._pending)
        return len(self._and_pool)

    def pool_sizes(self) -> list[int]:
        """Sizes of the engine's contiguous buffers (one per stage pool),
        feeding the simulator's cache-pressure term."""
        if self._nfa is not None:
            sizes = [len(pool) for pool in self._pools]
            sizes.append(len(self._pending))
            sizes.extend(len(buf) for buf in self._neg_buffer.values())
            return sizes
        return [len(self._and_pool)]

    def memory_profile(self, pointer_size: int = 8) -> tuple[int, int]:
        """(pointer_count, payload_bytes) of the current buffered state.

        Payload bytes count each referenced event once within this engine —
        replicas across partitioned engines each pay for their own copy,
        which is exactly the duplication cost of data-parallel methods.
        """
        pointer_count = 0
        seen: dict[int, int] = {}
        if self._nfa is not None:
            for pool in self._pools:
                for partial in pool:
                    pointer_count += partial.event_count()
                    for event in partial.events():
                        seen.setdefault(event.event_id, event.payload_size)
            for partial in self._pending:
                pointer_count += partial.event_count()
                for event in partial.events():
                    seen.setdefault(event.event_id, event.payload_size)
            for buffer in self._neg_buffer.values():
                pointer_count += len(buffer)
                for event in buffer:
                    seen.setdefault(event.event_id, event.payload_size)
        else:
            for partial in self._and_pool:
                pointer_count += partial.event_count()
                for event in partial.events():
                    seen.setdefault(event.event_id, event.payload_size)
        return pointer_count, sum(seen.values())

    # ------------------------------------------------------------------ #
    # SEQ evaluation                                                     #
    # ------------------------------------------------------------------ #

    def _process_seq(self, event: Event) -> list[Match]:
        nfa = self._nfa
        assert nfa is not None
        window = nfa.window
        now = event.timestamp
        self._purge_seq(now)

        emitted: list[Match] = []
        type_name = event.type.name

        # Negated-type events: buffer and strike pending trailing-guard
        # matches.  An event can be both a guard type and a stage type if
        # the pattern reuses a type; handle guards first.
        if type_name in self._guarded_types:
            self._neg_buffer[type_name].append(event)
            if now < self._neg_floors[type_name]:
                self._neg_floors[type_name] = now
            for _guard, buckets in self._guard_keys.get(type_name, ()):
                buckets.add(event)
            if self._has_trailing_guard and self._pending:
                self._strike_pending(event)

        additions: list[tuple[int, PartialMatch]] = []
        for stage in self._stages_by_type.get(type_name, ()):
            index = stage.index
            if index == 0:
                self.stats.comparisons += 1
                if stage.accepts(PartialMatch.empty(), event):
                    self.stats.partial_matches_created += 1
                    additions.append(
                        (1, stage.bind(PartialMatch.empty(), event)))
            else:
                pool = self._pools[index]
                group = self._same_key(self._pool_keys[index], event)
                candidates = seq_candidates(
                    pool if group is None else group,
                    nfa.stages, index, event, window,
                )
                # Only the event's bucket can pass the key conjunct;
                # charge what scanning the whole pool compares.
                self.stats.comparisons += (
                    len(candidates) if group is None else
                    count_seq_candidates(pool, nfa.stages, index, event,
                                         window)
                )
                for partial in candidates:
                    if not stage.accepts(partial, event):
                        continue
                    self.stats.partial_matches_created += 1
                    extended = stage.bind(partial, event)
                    if self._violates_internal_guard(
                        nfa.stages[index - 1], extended, window
                    ):
                        continue
                    additions.append((index + 1, extended))
            if stage.is_kleene:
                # Self-loop: extend partials that already entered this stage.
                additions.extend(self._extend_kleene(stage, event, window))

        if additions:
            emitted.extend(self._commit(additions, event))

        # Release pending trailing-guard matches that are now safe.
        if self._has_trailing_guard and self._pending:
            emitted.extend(self._release_pending(now))

        self.stats.observe_pools(
            sum(map(len, self._pools)) + len(self._pending),
            sum(map(len, self._neg_buffer.values())),
        )
        return emitted

    def _extend_kleene(
        self, stage, event: Event, window: float
    ) -> list[tuple[int, PartialMatch]]:
        """Grow existing Kleene tuples at *stage* with *event*.

        Partials that completed the Kleene stage live in the next pool (or
        among completed matches pending emission — but those are final:
        skip-till-any-match keeps the shorter tuples as separate partials,
        so growth always happens on pool entries).  Every one of them binds
        the stage, so :func:`~repro.core.nfa.seq_candidates` takes it as a
        loop-back, ordered by its tuple's last event.
        """
        target = stage.index + 1
        if target >= len(self._pools):
            return []
        candidates = seq_candidates(self._pools[target], self._nfa.stages,
                                    stage.index, event, window)
        self.stats.comparisons += len(candidates)
        additions: list[tuple[int, PartialMatch]] = []
        for partial in candidates:
            if stage.accepts(partial, event):
                self.stats.partial_matches_created += 1
                additions.append(
                    (target, partial.extended_kleene(stage.item.name, event)))
        return additions

    def _same_key(self, buckets: KeyBuckets | None, item):
        """The entries of *buckets* with the key of *item*, a new event or
        partial match, or ``None`` when the scan must visit the whole
        buffer: it has no buckets, or the item or an entry has no key."""
        return None if buckets is None else buckets.matching(item)

    def _violates_internal_guard(self, previous_stage, extended: PartialMatch,
                                 window: float) -> bool:
        """Check the negation guards sitting between the previous stage and
        the one just bound."""
        return any(
            self._struck(guard, extended, window)
            for guard in previous_stage.guards_after if not guard.trailing
        )

    def _struck(self, guard: NegationGuard, partial: PartialMatch,
                window: float) -> bool:
        """Does a buffered event of the guard's type violate *guard* for
        *partial*?  Charged one comparison per buffered event up to the
        striking one, or the whole buffer, as a full scan is."""
        type_name = guard.item.event_type.name
        buffer = self._neg_buffer.get(type_name, ())
        buckets = None
        for keyed, candidates in self._guard_keys.get(type_name, ()):
            if keyed is guard:
                buckets = candidates
        group = self._same_key(buckets, partial)
        if group is None:
            for negated_event in buffer:
                self.stats.comparisons += 1
                if guard.violates(
                    partial.binding, negated_event, window, partial.earliest
                ):
                    return True
            return False
        for negated_event in group:
            if guard.violates(
                partial.binding, negated_event, window, partial.earliest
            ):
                self.stats.comparisons += position_of(buffer, negated_event) + 1
                return True
        self.stats.comparisons += len(buffer)
        return False

    def _commit(
        self, additions: list[tuple[int, PartialMatch]], event: Event
    ) -> list[Match]:
        """Insert newly created partials; emit those that completed."""
        nfa = self._nfa
        assert nfa is not None
        emitted: list[Match] = []
        for level, partial in additions:
            if level < nfa.num_stages:
                self._pools[level].append(partial)
                if partial.earliest < self._pool_floors[level]:
                    self._pool_floors[level] = partial.earliest
                buckets = self._pool_keys[level]
                if buckets is not None:
                    buckets.add(partial)
                continue
            # Completed the final stage: trailing guards may defer emission.
            if self._has_trailing_guard:
                if not self._violated_by_buffered_trailing(partial):
                    self._pending.append(partial)
                continue
            match = Match.from_partial(partial, detected_at=event.timestamp)
            emitted.append(match)
        # Completed partials also sit in the last pool when the final stage
        # is Kleene (their tuple can still grow); handled by storing them in
        # pools too.
        for level, partial in additions:
            if level == nfa.num_stages and nfa.stages[-1].is_kleene:
                self._pools_store_final(partial)
        self.stats.matches_emitted += len(emitted)
        return emitted

    def _pools_store_final(self, partial: PartialMatch) -> None:
        """Keep a completed Kleene-final partial growable.

        When the final stage is Kleene, a completed match's tuple can still
        be extended to produce further (longer) matches.  We keep such
        partials in a synthetic pool one past the last stage.
        """
        nfa = self._nfa
        assert nfa is not None
        while len(self._pools) <= nfa.num_stages:
            self._pools.append([])
            self._pool_floors.append(math.inf)
        self._pools[nfa.num_stages].append(partial)
        if partial.earliest < self._pool_floors[nfa.num_stages]:
            self._pool_floors[nfa.num_stages] = partial.earliest

    def _violated_by_buffered_trailing(self, partial: PartialMatch) -> bool:
        nfa = self._nfa
        assert nfa is not None
        return any(
            self._struck(guard, partial, nfa.window)
            for guard in nfa.stages[-1].guards_after if guard.trailing
        )

    def _strike_pending(self, negated_event: Event) -> None:
        nfa = self._nfa
        assert nfa is not None
        window = nfa.window
        last_stage = nfa.stages[-1]
        guards = [g for g in last_stage.guards_after if g.trailing]
        survivors = []
        for partial in self._pending:
            violated = False
            for guard in guards:
                if guard.item.event_type.name != negated_event.type.name:
                    continue
                self.stats.comparisons += 1
                if guard.violates(
                    partial.binding, negated_event, window, partial.earliest
                ):
                    violated = True
                    break
            if not violated:
                survivors.append(partial)
        self._pending = survivors

    def _release_pending(self, now: float) -> list[Match]:
        nfa = self._nfa
        assert nfa is not None
        window = nfa.window
        releasable = []
        still_pending = []
        for partial in self._pending:
            if partial.earliest + window < now:
                releasable.append(
                    Match.from_partial(partial, detected_at=now)
                )
            else:
                still_pending.append(partial)
        self._pending = still_pending
        self.stats.matches_emitted += len(releasable)
        return releasable

    def _purge_seq(self, now: float) -> None:
        """Drop expired partial matches and negated-event buffers.

        A partial whose earliest event is more than W old can never be
        completed within the window (new events only have larger
        timestamps), matching the purge rule of Section 3.2.  "More than
        W old" is ``now - earliest > W``, the difference ``fits_with``
        computes for a later event, so the purge keeps every partial the
        window test can still admit.  A negated event is kept by the same
        difference: a guard event that can strike a kept partial lies
        after its earliest event, and subtracting a larger timestamp from
        ``now`` cannot give a larger difference.
        """
        nfa = self._nfa
        assert nfa is not None
        window = nfa.window
        for index, pool in enumerate(self._pools):
            if now - self._pool_floors[index] <= window:
                continue
            kept = [p for p in pool if now - p.earliest <= window]
            self._pool_floors[index] = min(
                (p.earliest for p in kept), default=math.inf
            )
            self.stats.purged_partial_matches += len(pool) - len(kept)
            self._pools[index] = kept
            buckets = (
                self._pool_keys[index] if index < len(self._pool_keys)
                else None
            )
            if buckets is not None:
                buckets.remove(p for p in pool if not now - p.earliest <= window)
        for name, buffer in self._neg_buffer.items():
            if now - self._neg_floors[name] <= window:
                continue
            kept_events = [e for e in buffer if now - e.timestamp <= window]
            self._neg_floors[name] = min(
                (e.timestamp for e in kept_events), default=math.inf
            )
            self.stats.purged_events += len(buffer) - len(kept_events)
            self._neg_buffer[name] = kept_events
            for _guard, buckets in self._guard_keys.get(name, ()):
                buckets.remove(
                    e for e in buffer if not now - e.timestamp <= window
                )

    # ------------------------------------------------------------------ #
    # AND / OR evaluation                                                #
    # ------------------------------------------------------------------ #

    def _process_and(self, event: Event) -> list[Match]:
        pattern = self.pattern
        window = pattern.window
        now = event.timestamp
        type_name = event.type.name
        positions = [
            item.name for item in pattern.items
            if item.event_type.name == type_name
        ]
        if not positions:
            return []
        conjuncts = pattern.conjuncts()
        kept = [
            p for p in self._and_pool
            if now - p.earliest <= window or not p.binding
        ]
        self.stats.purged_partial_matches += len(self._and_pool) - len(kept)
        self._and_pool = kept

        emitted: list[Match] = []
        additions: list[PartialMatch] = []
        all_positions = {item.name for item in pattern.items}
        for partial in self._and_pool:
            for position in positions:
                if position in partial.binding:
                    continue
                if partial.binding and not partial.fits_with(event, window):
                    continue
                probe = dict(partial.binding)
                probe[position] = event
                bound_now = set(probe)
                first = not partial.binding
                ok = True
                for conjunct in conjuncts:
                    deps = conjunct.depends_on()
                    # A conjunct that reads no position runs once per
                    # partial, when it binds its first position, as
                    # compile_pattern places it on stage 0.
                    if (position in deps and deps <= bound_now
                            or first and not deps):
                        self.stats.comparisons += 1
                        if not conjunct.evaluate(probe):
                            ok = False
                            break
                if not ok:
                    continue
                extended = partial.extended(position, event)
                self.stats.partial_matches_created += 1
                if set(extended.binding) == all_positions:
                    emitted.append(
                        Match.from_partial(extended, detected_at=now)
                    )
                else:
                    additions.append(extended)
        self._and_pool.extend(additions)
        self.stats.matches_emitted += len(emitted)
        self.stats.observe_pools(len(self._and_pool), 0)
        return emitted

    def _process_or(self, event: Event) -> list[Match]:
        pattern = self.pattern
        type_name = event.type.name
        conjuncts = pattern.conjuncts()
        emitted: list[Match] = []
        for item in pattern.items:
            if item.event_type.name != type_name:
                continue
            probe = {item.name: event}
            ok = True
            for conjunct in conjuncts:
                if conjunct.depends_on() <= {item.name}:
                    self.stats.comparisons += 1
                    if not conjunct.evaluate(probe):
                        ok = False
                        break
            if ok:
                partial = PartialMatch.of(item.name, event)
                emitted.append(
                    Match.from_partial(partial, detected_at=event.timestamp)
                )
        self.stats.matches_emitted += len(emitted)
        return emitted


def detect(pattern: Pattern, events: Iterable[Event]) -> list[Match]:
    """One-shot convenience: run the sequential engine over *events* and
    apply the pattern's selection/consumption policies."""
    from repro.core.policies import resolve_matches

    return resolve_matches(pattern, SequentialEngine(pattern).run(events))
