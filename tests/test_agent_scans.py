"""The agent's time-indexed scans against the full scans they replace.

:class:`FullScanAgentCore` keeps the plain loops over whole buffer
fragments and the whole guard list, as :class:`AgentCore` had them before
its scans were indexed by timestamp.  On hand-built buffers with tied
timestamps, tied event ids, and events whose distance from a match's
earliest event rounds across the window, the indexed agent must emit the
same partial matches in the same order and fill its :class:`Receipt` with
the same counts.  A whole-engine check then runs both cores through the
simulator on streams full of tied timestamps.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.core import Event, EventType, Pattern
from repro.core.conditions import UnaryCondition
from repro.core.matches import PartialMatch, match_key
from repro.core.nfa import compile_pattern, seq_order_allows
from repro.hypersonic import fusion
from repro.hypersonic.agent import AgentCore
from repro.hypersonic.items import ItemKind, Receipt, WorkItem
from repro.simulator import simulate

from tests.conftest import make_stream
from tests.make_sim_goldens import result_payload

TYPES = {name: EventType(name) for name in ("A", "B", "C", "X")}


class FullScanAgentCore(AgentCore):
    """The reference: every scan visits every buffered entry."""

    def _process_event(self, event, unit_id):
        receipt = Receipt()
        if event.timestamp > self.latest_event_ts:
            self.latest_event_ts = event.timestamp
        window = self.window
        stage = self.stage
        position = stage.item.name
        horizon = self.latest_event_ts - window - self.match_purge_slack
        for owner, _fragment in self.match_buffer.fragments():
            if horizon > float("-inf"):
                self._purge_match_fragment(owner, horizon)
            resident = self.match_buffer._fragments.get(owner, ())
            receipt.note_fragment(len(resident))
            for partial in resident:
                if not partial.fits_with(event, window):
                    continue
                bound = partial.binding.get(position)
                if bound is not None:
                    if not stage.is_kleene:
                        continue
                    last = bound[-1]
                    if (last.timestamp, last.event_id) >= (
                        event.timestamp, event.event_id,
                    ):
                        continue
                    receipt.comparisons += 1
                    if stage.accepts(partial, event):
                        self._accept(
                            partial.extended_kleene(position, event), receipt
                        )
                    continue
                if not seq_order_allows(partial, self.stages,
                                        self.stage_index, event):
                    continue
                receipt.comparisons += 1
                if stage.accepts(partial, event):
                    self._route_new_candidate(
                        self._bind(partial, event), event.timestamp, receipt
                    )
        self._store_event(event, unit_id)
        return receipt

    def _process_match(self, partial, unit_id):
        receipt = Receipt()
        if partial.timestamp > self.latest_match_ts:
            self.latest_match_ts = partial.timestamp
        window = self.window
        stage = self.stage
        position = stage.item.name
        looping = stage.is_kleene and position in partial.binding
        horizon = self.latest_match_ts - window - self.event_purge_slack
        ms_min = self.ms.min_event_time()
        if ms_min is not None and ms_min < horizon:
            horizon = ms_min
        if partial.timestamp < horizon:
            horizon = partial.timestamp
        for owner, _fragment in self.event_buffer.fragments():
            if horizon > float("-inf"):
                self._purge_event_fragment(owner, horizon)
            resident = self.event_buffer._fragments.get(owner, ())
            receipt.note_fragment(len(resident))
            if self.vector_mode and not looping and resident:
                self._scan_events_vector(partial, resident, owner, receipt)
                continue
            for event in resident:
                if not partial.fits_with(event, window):
                    continue
                if looping:
                    last = partial.binding[position][-1]
                    if (last.timestamp, last.event_id) >= (
                        event.timestamp, event.event_id,
                    ):
                        continue
                    receipt.comparisons += 1
                    if stage.accepts(partial, event):
                        self._accept(
                            partial.extended_kleene(position, event), receipt
                        )
                    continue
                if not seq_order_allows(partial, self.stages,
                                        self.stage_index, event):
                    continue
                receipt.comparisons += 1
                if stage.accepts(partial, event):
                    self._route_new_candidate(
                        self._bind(partial, event), event.timestamp, receipt
                    )
        es_head = self.es.head_event_time()
        effective_event_ts = max(
            self.latest_event_ts,
            es_head if es_head is not None else self.watermark(),
        )
        tight_horizon = effective_event_ts - window - self.match_purge_slack
        if tight_horizon > float("-inf"):
            self._purge_match_fragment(unit_id, tight_horizon)
            if partial.timestamp < tight_horizon:
                self.match_buffer.purged += 1
                return receipt
        self._store_match(partial, unit_id)
        return receipt

    def _struck_by_guard_events(self, extended, guards, receipt):
        for guard_event in self._guard_events:
            receipt.comparisons += 1
            if any(
                guard.item.event_type.name == guard_event.type.name
                and guard.violates(extended.binding, guard_event,
                                   self.window, extended.earliest)
                for guard in guards
            ):
                return True
        return False

    def _process_guard_event(self, event):
        receipt = Receipt()
        self._guard_events.append(event)
        self._quarantine = [
            entry for entry in self._quarantine
            if not self._struck_by(entry, event, receipt)
        ]
        horizon = self.watermark() - 3.0 * self.window - self.event_purge_slack
        floor = (self.global_floor() if self.global_floor is not None
                 else self.local_match_floor())
        horizon = min(horizon, floor)
        if horizon > float("-inf") and self._guard_events:
            self._guard_events = [
                e for e in self._guard_events if e.timestamp >= horizon
            ]
        return receipt

    def _drain_kleene(self, receipt, unit_id):
        stage = self.stage
        position = stage.item.name
        while self._pending_loop:
            current = self._pending_loop.pop()
            last = current.binding[position][-1]
            last_key = (last.timestamp, last.event_id)
            for owner, _fragment in self.event_buffer.fragments():
                resident = self.event_buffer._fragments.get(owner, ())
                receipt.note_fragment(len(resident))
                for event in resident:
                    if (event.timestamp, event.event_id) <= last_key:
                        continue
                    if not current.fits_with(event, self.window):
                        continue
                    receipt.comparisons += 1
                    if not stage.accepts(current, event):
                        continue
                    grown = current.extended_kleene(position, event)
                    receipt.successes += 1
                    receipt.emitted_down.append(grown)
                    self._pending_loop.append(grown)
            self._store_match(current, unit_id)

    def _store_match(self, partial, unit_id):
        self.match_buffer.store(unit_id, partial)
        self.agb.retain_match(partial)
        current = self._mb_frag_min.get(unit_id)
        if current is None or partial.timestamp < current:
            self._mb_frag_min[unit_id] = partial.timestamp

    def _purge_match_fragment(self, owner, horizon):
        fragment = self.match_buffer._fragments.get(owner)
        if not fragment:
            self._mb_frag_min.pop(owner, None)
            return
        kept = [p for p in fragment if p.timestamp >= horizon]
        for partial in fragment:
            if partial.timestamp < horizon:
                self.agb.release_match(partial)
        if len(kept) != len(fragment):
            self.match_buffer.replace_fragment(owner, kept)
        if kept:
            self._mb_frag_min[owner] = min(p.timestamp for p in kept)
        else:
            self._mb_frag_min.pop(owner, None)

    def _purge_event_fragment(self, owner, horizon):
        fragment = self.event_buffer._fragments.get(owner)
        if not fragment:
            return
        kept = [e for e in fragment if e.timestamp >= horizon]
        for event in fragment:
            if event.timestamp < horizon:
                self.agb.release_event(event)
        if len(kept) != len(fragment):
            self.event_buffer.replace_fragment(owner, kept)


def ev(type_name: str, timestamp: float, event_id: int | None = None,
       x: int = 0) -> Event:
    ids = {} if event_id is None else {"event_id": event_id}
    return Event(TYPES[type_name], timestamp, {"x": x}, **ids)


def agents(pattern: Pattern, stage_index: int = 1, watermark=-math.inf):
    """An indexed agent and its full-scan reference on the same stage."""
    nfa = compile_pattern(pattern)
    return [
        cls(
            agent_index=stage_index - 1,
            stages=nfa.stages,
            stage_index=stage_index,
            window=pattern.window,
            watermark=lambda: watermark,
            is_last=stage_index == nfa.num_stages - 1,
        )
        for cls in (AgentCore, FullScanAgentCore)
    ]


def keys(partials) -> list:
    return [match_key(partial.binding) for partial in partials]


def counters(receipt: Receipt) -> tuple:
    return (receipt.comparisons, receipt.fragments_locked, receipt.scanned,
            receipt.scan_sq, receipt.successes)


def same_outcome(indexed: Receipt, reference: Receipt) -> None:
    assert keys(indexed.emitted_down) == keys(reference.emitted_down)
    assert counters(indexed) == counters(reference)


def state(agent: AgentCore) -> tuple:
    """Everything a purge or a store may change."""
    return (
        {owner: [e.event_id for e in fragment]
         for owner, fragment in agent.event_buffer._fragments.items()},
        {owner: keys(fragment)
         for owner, fragment in agent.match_buffer._fragments.items()},
        agent.event_buffer.purged, agent.match_buffer.purged,
        dict(agent._mb_frag_min), [e.event_id for e in agent._guard_events],
        agent.agb.current_bytes, agent.agb.unique_events(),
        keys(entry.partial for entry in agent._quarantine),
    )


def boundary_events(earliest: float, window: float) -> list[float]:
    """Timestamps at the window's edge, where ``ts - earliest`` and
    ``earliest + window`` can round to opposite sides of the window."""
    edge = earliest + window
    stamps = {edge}
    below = above = edge
    for _ in range(4):
        below = math.nextafter(below, -math.inf)
        above = math.nextafter(above, math.inf)
        stamps |= {below, above}
    return sorted(stamps)


def test_boundary_really_disagrees():
    """The fixtures' point: near the window's edge the two ways of asking
    "within the window?" round apart, in both directions."""
    partial = PartialMatch.of("p1", ev("A", 0.1))
    late = ev("B", 0.30000000000000004)
    assert late.timestamp <= 0.1 + 0.2
    assert not partial.fits_with(late, 0.2)
    partial = PartialMatch.of("p1", ev("A", 1.1))
    late = ev("B", 6.1000000000000005)
    assert late.timestamp > 1.1 + 5.0
    assert partial.fits_with(late, 5.0)


def eb_fixture(a: Event, window: float, type_name: str = "B"):
    """Two EB fragments in timestamp order: events before *a*, tied with
    it on both sides of its id, inside the window, at its edge, past it
    (a run of equal timestamps included)."""
    stamps = sorted(
        [a.timestamp - 0.05, a.timestamp + 0.01, a.timestamp + 0.01,
         a.timestamp + window / 2]
        + boundary_events(a.timestamp, window)
        + [a.timestamp + window + 0.01] * 2 + [a.timestamp + 2 * window]
    )
    events = [ev(type_name, a.timestamp, a.event_id - 1),
              ev(type_name, a.timestamp, a.event_id + 1)]
    events += [ev(type_name, ts, a.event_id + 2 + i)
               for i, ts in enumerate(stamps)]
    events.sort(key=lambda e: (e.timestamp, e.event_id))
    return [events[0::2], events[1::2]]


def fill(pair, fragments, store) -> None:
    for agent in pair:
        for owner, items in enumerate(fragments):
            for item in items:
                getattr(agent, store)(item, owner)


@pytest.mark.parametrize("earliest,window", [(0.1, 0.2), (1.1, 5.0),
                                             (1.0, 0.2), (0.7, 1e-3)])
def test_match_scan_equals_full_scan(earliest, window):
    pattern = Pattern.sequence(["A", "B"], window=window)
    a = ev("A", earliest, 1000)
    pair = agents(pattern)
    fill(pair, eb_fixture(a, window), "_store_event")
    indexed, reference = (
        agent.process(WorkItem(ItemKind.MATCH, PartialMatch.of("p1", a)), 5)
        for agent in pair
    )
    assert indexed.emitted_down
    same_outcome(indexed, reference)
    assert state(pair[0]) == state(pair[1])


def test_kleene_scans_equal_full_scans():
    """A Kleene stage grows tuples inline (``_drain_kleene``), and a match
    that already holds a tuple at the stage takes the looping branch."""
    window = 0.2
    pattern = Pattern.sequence(["A", "B", "C"], window=window, kleene=[1])
    a = ev("A", 0.1, 1000)
    pair = agents(pattern)
    fill(pair, eb_fixture(a, window), "_store_event")
    for partial in (
        PartialMatch.of("p1", a),
        PartialMatch.of("p1", a).extended_kleene("p2", ev("B", 0.1, 1001)),
    ):
        indexed, reference = (
            agent.process(WorkItem(ItemKind.MATCH, partial), 5)
            for agent in pair
        )
        assert len(indexed.emitted_down) > 1
        same_outcome(indexed, reference)
        assert state(pair[0]) == state(pair[1])


def test_event_scan_equals_full_scan_on_ordered_and_marked_fragments():
    window = 0.2
    pattern = Pattern.sequence(["A", "B"], window=window)
    b = ev("B", 0.5, 1000)
    seeds = sorted(
        [ev("A", ts, 2000 + i) for i, ts in enumerate(
            boundary_events(0.3, window) + [0.35, 0.45, 0.6, 0.7])]
        + [ev("A", 0.5, 999), ev("A", 0.5, 1001)],
        key=lambda e: (e.timestamp, e.event_id),
    )
    ordered = [PartialMatch.of("p1", a) for a in seeds]
    shuffled = ordered[::-1]
    pair = agents(pattern)
    fill(pair, [ordered, shuffled], "_store_match")
    assert pair[0]._mb_unordered == {1}
    indexed, reference = (
        agent.process(WorkItem(ItemKind.EVENT, b), 2) for agent in pair
    )
    assert len(indexed.emitted_down) > 2
    same_outcome(indexed, reference)
    assert state(pair[0]) == state(pair[1])


def test_match_purges_equal_full_purges():
    pattern = Pattern.sequence(["A", "B"], window=1.0)
    seeds = [ev("A", ts) for ts in (1.0, 2.0, 2.0, 3.0, 4.0)]
    ordered = [PartialMatch.of("p1", a) for a in seeds]
    pair = agents(pattern)
    fill(pair, [ordered, ordered[::-1]], "_store_match")
    for horizon in (0.5, 2.0, 2.5, 10.0):
        for agent in pair:
            for owner in (0, 1):
                agent._purge_match_fragment(owner, horizon)
        assert state(pair[0]) == state(pair[1])
    assert pair[0]._mb_unordered == set()


def guard_fixture(a: Event, b: Event):
    """X events around *a* and *b*: before, tied on both sides of each
    id, in between, and after."""
    stamps = [a.timestamp - 1.0, (a.timestamp + b.timestamp) / 2,
              b.timestamp + 1.0]
    events = [ev("X", ts, a.event_id + 10 + i) for i, ts in enumerate(stamps)]
    events += [ev("X", a.timestamp, a.event_id - 1),
               ev("X", a.timestamp, a.event_id + 1),
               ev("X", b.timestamp, b.event_id - 1),
               ev("X", b.timestamp, b.event_id + 1)]
    return sorted(events, key=lambda e: e.timestamp)


@pytest.mark.parametrize("strike", [None, "tied_after", "between"])
@pytest.mark.parametrize("trailing", [False, True])
def test_guard_scans_equal_full_scans(trailing, strike):
    """Internal guard ``SEQ(A, !X, B)`` and trailing ``SEQ(A, B, !X)``:
    only the chosen X event satisfies the guard's condition, so the scan
    must reach it exactly as the full scan does, charging the same."""
    types = ["A", "B", "X"] if trailing else ["A", "X", "B"]
    negated = types.index("X")
    pattern = Pattern.sequence(
        types, window=5.0, negated=[negated],
        condition=UnaryCondition(f"p{negated + 1}", lambda e: e["x"] == 1),
    )
    a, b = ev("A", 1.0, 1000), ev("B", 3.0, 2000)
    guards = guard_fixture(a, b)
    # The guard's ``after`` event, and a time strictly inside its range.
    after, inside = (b, b.timestamp + 1.0) if trailing else (a, 2.0)
    if strike == "tied_after":
        target = next(g for g in guards if g.timestamp == after.timestamp
                      and g.event_id > after.event_id)
    elif strike == "between":
        target = next(g for g in guards if g.timestamp == inside)
    guards = [ev("X", g.timestamp, g.event_id,
                 x=int(strike is not None and g is target)) for g in guards]
    pair = agents(pattern, watermark=-math.inf)
    for agent in pair:
        agent._guard_events.extend(guards)
    extended = PartialMatch.of("p1", a).extended(
        "p2" if trailing else "p3", b
    )
    receipts = [Receipt(), Receipt()]
    for agent, receipt in zip(pair, receipts):
        if trailing:
            agent._finish_candidate(extended, receipt)
        else:
            agent._route_new_candidate(extended, b.timestamp, receipt)
    if strike is None:
        assert receipts[0].comparisons == len(guards)
    same_outcome(*receipts)
    assert state(pair[0]) == state(pair[1])
    # A struck candidate is dropped; a clean one waits in quarantine
    # because the watermark has not passed its release point.
    assert bool(pair[0]._quarantine) == (strike is None)


def test_guard_purge_cuts_the_same_prefix():
    pattern = Pattern.sequence(["A", "X", "B"], window=1.0, negated=[1])
    pair = agents(pattern, watermark=10.0)
    stamps = [3.0, 5.0, 5.0, 5.5, 6.0, 6.0, 7.5, 9.0]
    for ts in stamps:
        guard = ev("X", ts)
        receipts = [agent.process(WorkItem(ItemKind.GUARD, guard), 0)
                    for agent in pair]
        same_outcome(*receipts)
        assert state(pair[0]) == state(pair[1])
    # The horizon is 10 - 3 * 1.0 - 1.0 = 6.0: both events tied with it
    # stay.
    assert [e.timestamp for e in pair[0]._guard_events] == stamps[4:]


TIED_PATTERNS = {
    "seq": Pattern.sequence(["A", "B", "C"], window=3.0),
    "internal_guard": Pattern.sequence(["A", "X", "B", "C"], window=3.0,
                                       negated=[1]),
    "trailing_guard": Pattern.sequence(["A", "B", "X"], window=3.0,
                                       negated=[2]),
    "kleene": Pattern.sequence(["A", "B", "C"], window=2.0, kleene=[1]),
}


def tied_stream(seed: int) -> list[Event]:
    """A stream whose timestamps fall on a coarse grid, so runs of equal
    timestamps are common and ids decide SEQ order inside them."""
    return [
        Event(e.type, math.floor(e.timestamp * 2) / 2, e.attributes)
        for e in make_stream(num_events=220, seed=seed, gap=0.6)
    ]


@pytest.mark.parametrize("batch", [1, 16])
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name", sorted(TIED_PATTERNS))
def test_simulator_results_equal_full_scan_results(monkeypatch, name, seed,
                                                   batch):
    """Whole runs: the simulated virtual time, comparisons and match set
    depend only on what the scans find and charge, so swapping in the
    full-scan core must reproduce the run exactly."""
    pattern, events = TIED_PATTERNS[name], tied_stream(seed)

    def run():
        result = simulate("hypersonic", pattern, events, num_cores=4,
                          agent_dynamic=True, batch_size=batch)
        return json.loads(json.dumps(result_payload(result)))

    indexed = run()
    monkeypatch.setattr(fusion, "AgentCore", FullScanAgentCore)
    assert run() == indexed
    assert indexed["matches"] > 0
