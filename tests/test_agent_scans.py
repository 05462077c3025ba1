"""The agent's time-indexed scans against the full scans they replace.

:class:`FullScanAgentCore` keeps the plain loops over whole buffer
fragments and the whole guard list, as :class:`AgentCore` had them before
its scans were indexed by timestamp.  On hand-built buffers with tied
timestamps, tied event ids, and events whose distance from a match's
earliest event rounds across the window, the indexed agent must emit the
same partial matches in the same order and fill its :class:`Receipt` with
the same counts.  A whole-engine check then runs both cores through the
simulator on streams full of tied timestamps.

The join-key buckets (DESIGN §2p) are checked the same way, against an
agent compiled with keys forced off, whose scans visit every entry of
the time band; the sequential engine likewise against itself without
keys.
"""

from __future__ import annotations

import json
import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import Event, EventType, Pattern, nfa, vectorized
from repro.core.conditions import (
    AndCondition,
    AttributeCondition,
    UnaryCondition,
)
from repro.core.matches import PartialMatch, match_key
from repro.core.nfa import NegationGuard, compile_pattern, seq_order_allows
from repro.datasets.stocks import StockConfig, generate_stock_stream
from repro.datasets.trips import TripConfig, generate_trip_stream
from repro.engine import SequentialEngine
from repro.hypersonic import fusion
from repro.hypersonic.agent import AgentCore
from repro.hypersonic.engine import HypersonicEngine
from repro.hypersonic.items import ItemKind, Receipt, WorkItem
from repro.simulator import simulate
from repro.workloads.queries import (
    stock_sequence_query,
    trip_chain_query,
    trip_negation_query,
    trip_sequence_query,
)

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
                        stage.bind(partial, event), event.timestamp, receipt
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
                        stage.bind(partial, event), event.timestamp, receipt
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
        keep = [p.timestamp >= horizon for p in fragment]
        kept = [p for p in fragment if p.timestamp >= horizon]
        for partial in fragment:
            if partial.timestamp < horizon:
                self.agb.release_match(partial)
        if len(kept) != len(fragment):
            self._replace_fragment(self.match_buffer, self._mb_columns,
                                   owner, kept, keep)
        if kept:
            self._mb_frag_min[owner] = min(p.timestamp for p in kept)
        else:
            self._mb_frag_min.pop(owner, None)

    def _purge_event_fragment(self, owner, horizon):
        fragment = self.event_buffer._fragments.get(owner)
        if not fragment:
            return
        keep = [e.timestamp >= horizon for e in fragment]
        kept = [e for e in fragment if e.timestamp >= horizon]
        for event in fragment:
            if event.timestamp < horizon:
                self.agb.release_event(event)
        if len(kept) != len(fragment):
            self._replace_fragment(self.event_buffer, self._eb_columns,
                                   owner, kept, keep)


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


@pytest.mark.parametrize("trailing", [False, True])
def test_guard_scan_stops_at_the_last_strike_time(monkeypatch, trailing):
    """A procs worker transfers its whole inbox before it processes any of
    it, so the guard list runs far past a new candidate.  ``violates``
    runs only on the guard events from the candidate's ``earliest`` up to
    the guard's last strike time (``before``'s timestamp, or ``earliest +
    window`` for a trailing guard), ties included; the candidate is still
    charged what the full scan charges."""
    types = ["A", "B", "X"] if trailing else ["A", "X", "B"]
    negated = types.index("X")
    # No X event satisfies the guard, so nothing strikes the candidate.
    pattern = Pattern.sequence(
        types, window=5.0, negated=[negated],
        condition=UnaryCondition(f"p{negated + 1}", lambda e: e["x"] == 1),
    )
    a, b = ev("A", 1.0, 1000), ev("B", 3.0, 2000)
    # 0.0, 0.1, ..., 19.9: past ``before`` and past the window, with
    # events tied with ``after`` and with both bounds.
    guards = [ev("X", i / 10, 3000 + i) for i in range(200)]
    last = a.timestamp + 5.0 if trailing else b.timestamp
    within = [g.event_id for g in guards if a.timestamp <= g.timestamp <= last]

    scanned: list[int] = []
    violates = NegationGuard.violates

    def counting(self, binding, candidate, window, earliest):
        scanned.append(candidate.event_id)
        return violates(self, binding, candidate, window, earliest)

    monkeypatch.setattr(NegationGuard, "violates", counting)
    receipts = []
    for agent in agents(pattern):
        scanned.clear()
        for guard in guards:
            agent.process(WorkItem(ItemKind.GUARD, guard), 0)
        agent.process(WorkItem(ItemKind.MATCH, PartialMatch.of("p1", a)), 0)
        receipts.append(agent.process(WorkItem(ItemKind.EVENT, b), 0))
        assert len(agent._guard_events) == len(guards)
        assert len(agent._quarantine) == 1
        if isinstance(agent, FullScanAgentCore):
            assert scanned == [g.event_id for g in guards]
        else:
            assert scanned == within
    same_outcome(*receipts)
    # One stage comparison, then the whole guard list.
    assert receipts[0].comparisons == 1 + len(guards)


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
    "fused": Pattern.sequence(["A", "B", "C", "D"], window=3.0),
}
#: Stage pairs fused per pattern; the fused agent's parts are agent cores.
FUSED_PAIRS = {"fused": ((1, 2),)}


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
                          agent_dynamic=True, batch_size=batch,
                          force_fusion_pairs=FUSED_PAIRS.get(name, ()))
        return json.loads(json.dumps(result_payload(result)))

    indexed = run()
    monkeypatch.setattr(fusion, "AgentCore", FullScanAgentCore)
    assert run() == indexed
    assert indexed["matches"] > 0


# --------------------------------------------------------------------- #
# Columnar views follow their fragments through purges                   #
# --------------------------------------------------------------------- #


def vector_agent(window: float = 1.0) -> AgentCore:
    """A vector-mode agent on stage 1 of ``SEQ(A, B)`` with an attribute
    join, which the stage kernel evaluates."""
    pattern = Pattern.sequence(
        ["A", "B"], window=window,
        condition=AttributeCondition("p1", "x", "<=", "p2", "x"),
    )
    agent = agents(pattern)[0]
    assert agent.enable_vector_mode()
    return agent


def test_purge_that_empties_a_fragment_drops_its_view():
    """An emptied fragment is deleted, and its columnar view with it: the
    view would otherwise keep every purged row until the run ends."""
    agent = vector_agent()
    for ts in (1.0, 1.2):
        agent._store_match(PartialMatch.of("p1", ev("A", ts)), 0)
    batch = [WorkItem(ItemKind.EVENT, ev("B", ts)) for ts in (1.5, 1.6)]
    assert agent.process_batch(batch, 3).emitted_down
    assert 0 in agent._mb_columns
    late = [WorkItem(ItemKind.EVENT, ev("B", ts)) for ts in (9.0, 9.1)]
    agent.process_batch(late, 3)
    assert 0 not in agent.match_buffer._fragments
    assert 0 not in agent._mb_columns

    for ts in (2.0, 2.1):
        agent._store_event(ev("B", ts), 1)
    agent.process(WorkItem(ItemKind.MATCH, PartialMatch.of("p1", ev("A", 1.9))),
                  4)
    assert 1 in agent._eb_columns
    agent.process(WorkItem(ItemKind.MATCH, PartialMatch.of("p1", ev("A", 9.5))),
                  4)
    assert 1 not in agent.event_buffer._fragments
    assert 1 not in agent._eb_columns


def test_batched_run_centres_each_buffered_history_once(monkeypatch):
    """Batch 64 on a correlation query: ``center_history`` runs once per
    row that enters a view.  Purges cut the views in place, so a history
    that survives them is not centred again."""
    rows: dict[int, tuple] = {}  # id(item) -> (item, history columns)
    centred = []
    syncing = []
    center = vectorized.center_history

    def counted_center(seq):
        if syncing:
            centred.append(seq)
        return center(seq)

    def counted(sync):
        def wrapper(self, fragment):
            width = sum(isinstance(column, vectorized.HistoryColumn)
                        for column, *_ in self.op_columns)
            for item in fragment[self.count:]:
                rows[id(item)] = (item, width)
            syncing.append(True)
            try:
                sync(self, fragment)
            finally:
                syncing.pop()
        return wrapper

    monkeypatch.setattr(vectorized, "center_history", counted_center)
    for view in (vectorized.EventColumns, vectorized.MatchColumns):
        monkeypatch.setattr(view, "sync", counted(view.sync))
    events = generate_stock_stream(StockConfig(num_events=800, seed=3))
    pattern = stock_sequence_query(["S0", "S1", "S2"], 40.0, events,
                                   selectivity=0.2).pattern
    result = simulate("hypersonic", pattern, events, num_cores=4,
                      batch_size=64)
    assert result.matches > 0
    assert rows
    assert len(centred) == sum(width for _item, width in rows.values())


# --------------------------------------------------------------------- #
# Join-key buckets (DESIGN §2p)                                          #
# --------------------------------------------------------------------- #


def keys_off(patch) -> None:
    """Compile stages and guards without join keys, so every scan visits
    its whole time band: the reference for the keyed scans."""
    patch.setattr(nfa, "join_key", lambda conditions, position: None)


def eq(left: str, right: str, attribute: str = "x",
       reduce: str = "last") -> AttributeCondition:
    return AttributeCondition(left, attribute, "==", right, attribute,
                              reduce=reduce)


#: name -> (pattern, stage index of the agent under test).  Every pattern's
#: first conjunct at that stage, or at its guard, is an equality on ``x``.
KEYED_CASES = {
    "join": (Pattern.sequence(
        ["A", "B"], window=1.0,
        condition=AndCondition((
            eq("p1", "p2"),
            AttributeCondition("p1", "y", "<=", "p2", "y"),
        ))), 1),
    "kleene_stage": (Pattern.sequence(
        ["A", "B", "C"], window=1.0, kleene=[1],
        condition=eq("p2", "p1")), 1),
    "kleene_bound_first": (Pattern.sequence(
        ["A", "B", "C"], window=1.0, kleene=[1],
        condition=eq("p2", "p3", reduce="first")), 2),
    "kleene_bound_last": (Pattern.sequence(
        ["A", "B", "C"], window=1.0, kleene=[1],
        condition=eq("p3", "p2", reduce="last")), 2),
    "internal_guard": (Pattern.sequence(
        ["A", "X", "B"], window=1.0, negated=[1],
        condition=AndCondition((eq("p1", "p2"), eq("p1", "p3")))), 1),
    "trailing_guard": (Pattern.sequence(
        ["A", "B", "X"], window=1.0, negated=[2],
        condition=AndCondition((eq("p1", "p3"), eq("p1", "p2")))), 1),
}

#: Key values per case: plain integers; the equal ``1``, ``1.0`` and
#: ``True`` with NaNs (one shared object, and fresh ones); integers with
#: an occasional unhashable list; and integers with the key attribute
#: sometimes missing (``None``).
KEY_POOLS = {
    "ints": lambda rng: rng.randrange(3),
    "equal_and_nan": lambda rng: rng.choice(
        [1, 1.0, True, 2, math.nan, float("nan")]),
    "lists": lambda rng: [1] if rng.random() < 0.05 else rng.randrange(3),
    "missing": lambda rng: None if rng.random() < 0.03 else rng.randrange(3),
}


class Clock:
    """A watermark that the test driver advances."""

    def __init__(self) -> None:
        self.now = -math.inf

    def __call__(self) -> float:
        return self.now


def keyed_pair(name: str):
    """An agent on the case's stage with join keys, and one without."""
    pattern, stage_index = KEYED_CASES[name]
    clock = Clock()
    pair = []
    for keyed in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if not keyed:
                keys_off(patch)
            stages = compile_pattern(pattern).stages
        pair.append(AgentCore(
            agent_index=stage_index - 1, stages=stages,
            stage_index=stage_index, window=pattern.window, watermark=clock,
            is_last=stage_index == len(stages) - 1,
        ))
    keyed_agent = pair[0]
    assert keyed_agent.stage.key is not None or keyed_agent._guard_keys
    return pair, clock


def keyed_steps(name: str, pool: str, seed: int, count: int = 240):
    """Work items for the case's agent, with the unit that processes each
    and the watermark at that point.

    Timestamps fall on a coarse grid, so ties are common, and event ids
    are shuffled, so SEQ order inside a tie goes either way.  Some
    partial matches arrive late, which leaves MB fragments unordered, and
    three units share the work.
    """
    pattern, stage_index = KEYED_CASES[name]
    stage_type = compile_pattern(pattern).stages[stage_index].event_type_name
    rng = random.Random(seed)
    ids = list(range(1000, 1000 + 3 * count))
    rng.shuffle(ids)
    key_of = KEY_POOLS[pool]

    def event(type_name: str, timestamp: float) -> Event:
        value = key_of(rng)
        attributes = {"y": rng.randrange(4)}
        if value is not None:
            attributes["x"] = value
        return Event(TYPES[type_name], timestamp, attributes,
                     event_id=ids.pop())

    steps = []
    for index in range(count):
        timestamp = (index // 3) * 0.25
        roll = rng.random()
        if roll < 0.4:
            seed_event = event("A", timestamp)
            partial = PartialMatch.of("p1", seed_event)
            if stage_index == 2:
                for offset in range(rng.randrange(1, 3)):
                    partial = partial.extended_kleene(
                        "p2", event("B", timestamp + 0.05 * (offset + 1)))
            item = WorkItem(ItemKind.MATCH, partial)
        elif roll < 0.8 or "guard" not in name:
            item = WorkItem(ItemKind.EVENT, event(stage_type, timestamp))
        else:
            item = WorkItem(ItemKind.GUARD, event("X", timestamp))
        steps.append([item, rng.randrange(3), timestamp - 0.5])
    # Deliver some partial matches late, behind later events.
    for index in range(len(steps) - 6):
        if steps[index][0].kind is ItemKind.MATCH and rng.random() < 0.25:
            steps.insert(index + rng.randrange(2, 6), steps.pop(index))
    return steps


def step_outcome(agent: AgentCore, item: WorkItem, unit: int):
    try:
        receipt = agent.process(item, unit)
    except Exception as exc:  # compared with the reference's outcome
        return ("raises", type(exc), str(exc))
    return ("emits", keys(receipt.emitted_down), counters(receipt))


@pytest.fixture
def evaluations(monkeypatch):
    """Calls of ``Stage.accepts`` and ``NegationGuard.violates``, by the
    id of the stage or guard."""
    calls: dict[int, int] = {}
    for cls, name in ((nfa.Stage, "accepts"), (NegationGuard, "violates")):
        original = getattr(cls, name)

        def counted(self, *args, _original=original):
            calls[id(self)] = calls.get(id(self), 0) + 1
            return _original(self, *args)

        monkeypatch.setattr(cls, name, counted)
    return calls


def evaluated(calls: dict[int, int], agent: AgentCore) -> int:
    nodes = (agent.stage, *agent.internal_guards, *agent.trailing_guards)
    return sum(calls.get(id(node), 0) for node in nodes)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("pool", sorted(KEY_POOLS))
@pytest.mark.parametrize("name", sorted(KEYED_CASES))
def test_keyed_scans_equal_full_scans(evaluations, name, pool, seed):
    """Each item, through an agent with join keys and through one without:
    the same emitted partials in the same order, the same ``Receipt``
    counters, the same buffers; or the same ``ConditionError`` when a
    key attribute is missing."""
    pair, clock = keyed_pair(name)
    unordered = False
    raised = None
    for item, unit, watermark in keyed_steps(name, pool, seed):
        clock.now = watermark
        outcomes = [step_outcome(agent, item, unit) for agent in pair]
        assert outcomes[0] == outcomes[1]
        if outcomes[0][0] == "raises":
            raised = outcomes[0]
            break
        assert state(pair[0]) == state(pair[1])
        unordered = unordered or bool(pair[0]._mb_unordered)
    if raised is not None:
        assert pool == "missing"
        assert "missing attribute 'x'" in raised[2]
        return
    assert pool != "missing", "nothing raised"
    clock.now = math.inf
    for finish in ("maintenance", "flush"):
        receipts = [getattr(agent, finish)() for agent in pair]
        same_outcome(*receipts)
    assert unordered, "no MB fragment went out of timestamp order"
    keyed, reference = (evaluated(evaluations, agent) for agent in pair)
    assert keyed <= reference
    if pool in ("ints", "equal_and_nan"):
        assert keyed < reference, "the keyed scans skipped nothing"


@pytest.mark.parametrize("batch", [1, 16])
@pytest.mark.parametrize("query", [trip_sequence_query, trip_chain_query,
                                   trip_negation_query])
def test_keyed_runs_equal_unkeyed_runs(monkeypatch, query, batch):
    """Whole runs of the trip queries, which join on ``bike``: the
    simulator (virtual time included) and the hybrid driver return
    exactly what they return with keys forced off."""
    events = generate_trip_stream(TripConfig(num_trips=80, num_bikes=5,
                                             seed=3))
    pattern = query(4.0).pattern

    def run():
        result = simulate("hypersonic", pattern, events, num_cores=4,
                          agent_dynamic=True, batch_size=batch)
        found = HypersonicEngine(pattern, 4).run(events)
        return (json.loads(json.dumps(result_payload(result))),
                [match.key for match in found])

    keyed = run()
    with monkeypatch.context() as patch:
        keys_off(patch)
        assert run() == keyed
    assert keyed[0]["matches"] > 0


# -- the sequential engine, keys on and off ------------------------------ #

#: Patterns whose stages or guards are keyed, and one that is not (a
#: correlation first).
SEQ_PATTERNS = [
    Pattern.sequence(["A", "B", "C"], window=2.0,
                     condition=AndCondition((eq("p1", "p2"), eq("p3", "p2"),
                                             AttributeCondition(
                                                 "p1", "y", "<", "p3", "y")))),
    Pattern.sequence(["A", "X", "B"], window=2.0, negated=[1],
                     condition=AndCondition((eq("p1", "p2"),
                                             eq("p1", "p3")))),
    Pattern.sequence(["A", "B", "X"], window=2.0, negated=[2],
                     condition=AndCondition((eq("p1", "p3"),
                                             eq("p2", "p1")))),
    Pattern.sequence(["A", "B", "C"], window=2.0, kleene=[1],
                     condition=AndCondition((eq("p1", "p2"),
                                             eq("p2", "p3", reduce="first")))),
    Pattern.sequence(["A", "B", "C"], window=2.0, kleene=[1],
                     condition=eq("p3", "p2")),
    Pattern.sequence(["A", "B"], window=2.0,
                     condition=AndCondition((
                         AttributeCondition("p1", "y", "<=", "p2", "y"),
                         eq("p1", "p2")))),
]

key_values = st.one_of(
    st.integers(0, 2),
    st.sampled_from([1.0, True, math.nan, "missing", "list"]),
)


@st.composite
def seq_streams(draw):
    """A stream with frequent ties and ids that do not follow it; now and
    then time steps back, which ``process`` accepts."""
    length = draw(st.integers(0, 60))
    ids = draw(st.permutations(range(1000, 1000 + length)))
    steps = [0.0, 0.0, 0.25, 0.5, 1.0]
    if draw(st.booleans()):
        steps.append(-0.75)
    events = []
    timestamp = 0.0
    for event_id in ids:
        timestamp += draw(st.sampled_from(steps))
        value = draw(key_values)
        attributes = {"y": draw(st.integers(0, 3))}
        if value == "list":
            attributes["x"] = [1]
        elif value != "missing":
            attributes["x"] = value
        type_name = draw(st.sampled_from(["A", "B", "C", "X"]))
        events.append(Event(TYPES[type_name], timestamp, attributes,
                            event_id=event_id))
    return events


def seq_outcome(pattern: Pattern, events: list[Event]):
    engine = SequentialEngine(pattern)
    try:
        found = [match.key for event in events
                 for match in engine.process(event)]
        found += [match.key for match in engine.close()]
    except Exception as exc:  # compared with the other run's outcome
        return ("raises", type(exc), str(exc))
    return ("matches", found, engine.stats)


@settings(max_examples=200, deadline=None)
@given(pattern=st.sampled_from(SEQ_PATTERNS), events=seq_streams())
# Out of order: the pool holds partials ending at 2, 1 and 3 when B comes
# at 1.5, and a bisect on it would count two candidates, not one.
@example(pattern=SEQ_PATTERNS[0], events=[
    Event(TYPES[name], timestamp, {"x": 1, "y": 0}, event_id=event_id)
    for event_id, (name, timestamp) in enumerate(
        [("A", 0.0), ("A", 2.0), ("A", 1.0), ("A", 3.0), ("B", 1.5)],
        start=1)
])
def test_sequential_keys_change_nothing(pattern, events):
    """``SequentialEngine`` with join keys returns the same matches in the
    same order, with equal ``EngineStats``, or raises the same error."""
    keyed = seq_outcome(pattern, events)
    with pytest.MonkeyPatch.context() as patch:
        keys_off(patch)
        assert seq_outcome(pattern, events) == keyed


# -- buckets stay within their buffers ----------------------------------- #


def bounded(buckets, buffer) -> None:
    """No empty bucket, and no more bucketed entries than buffered."""
    assert all(buckets.groups.values())
    assert len(buckets) <= len(buffer)


def test_buckets_stay_within_their_buffers(monkeypatch):
    """20,000 events whose key changes every four: after every ``process``
    call of the sequential engine and of every agent core, each bucket map
    holds no empty bucket and no more entries than the buffer it indexes
    (a bucket per key ever seen would hold 5,000)."""
    types = {name: EventType(name) for name in ("start", "end")}
    events = [
        Event(types["end" if index % 3 == 2 else "start"], index * 0.05,
              {"bike": index // 4})
        for index in range(20_000)
    ]
    pattern = trip_negation_query(1.0).pattern

    engine = SequentialEngine(pattern)
    peak = 0
    for event in events:
        engine.process(event)
        for pool, buckets in zip(engine._pools, engine._pool_keys):
            if buckets is not None:
                bounded(buckets, pool)
                peak = max(peak, len(buckets.groups))
        for name, keyed in engine._guard_keys.items():
            for _guard, buckets in keyed:
                bounded(buckets, engine._neg_buffer[name])
    assert 0 < peak < 30

    checked = []
    process = AgentCore.process

    def checked_process(self, item, unit_id):
        receipt = process(self, item, unit_id)
        for keys, buffer in ((self._eb_keys, self.event_buffer),
                             (self._mb_keys, self.match_buffer)):
            assert set(keys) <= set(buffer._fragments)
            for owner, buckets in keys.items():
                bounded(buckets, buffer._fragments[owner])
        for _guard, buckets in self._guard_keys:
            bounded(buckets, self._guard_events)
        checked.append(len(self._mb_keys))
        return receipt

    with monkeypatch.context() as patch:
        patch.setattr(AgentCore, "process", checked_process)
        HypersonicEngine(pattern, 4).run(events)
    assert len(checked) > len(events)
