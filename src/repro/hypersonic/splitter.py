"""The splitter (paper Section 3.1).

A lightweight sequential component that partitions the global input stream
by event type and fans the substreams out to the agents.  Since it inspects
one event at a time to make a routing decision it does not suffer from the
CEP scalability problem and can safely remain sequential (paper footnote 1).

The splitter also owns the *watermark*: the timestamp of the last routed
event.  Because the global stream is in-order, every event with a smaller
timestamp has already been placed on some agent queue — the property the
negation quarantine relies on.

Events of the first stage's type are wrapped as singleton partial matches
and pushed to the first agent's match stream (the first agent represents
the first two NFA states; paper footnote 2).  Stage-0 unary conditions are
applied here, at seed creation, mirroring the sequential engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.errors import PatternError
from repro.core.events import Event
from repro.core.matches import PartialMatch
from repro.core.nfa import ChainNFA, compile_pattern
from repro.core.patterns import Pattern
from repro.hypersonic.agent import guard_type_names
from repro.hypersonic.items import ItemKind, WorkItem, WorkQueue
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["RouteTarget", "Splitter", "SplitterReceipt", "compile_chain",
           "consumers"]


def compile_chain(pattern: Pattern) -> ChainNFA:
    """Compile *pattern* for the agent chain, which, like the paper's
    system, evaluates SEQ patterns of at least two positive event types
    with no Kleene closure on the first: the first agent covers the
    first two states, and the splitter seeds it with single events."""
    nfa = compile_pattern(pattern)  # raises PatternError unless SEQ
    if nfa.num_stages < 2:
        raise PatternError(
            "the agent chain needs at least two positive event types"
        )
    if nfa.stages[0].is_kleene:
        raise PatternError(
            "Kleene closure on the first event type is not supported by "
            "the agent chain (the first agent covers the first two states)"
        )
    return nfa


def consumers(nfa: ChainNFA, groups: Sequence[Sequence[int]]
              ) -> dict[str, list[tuple[int, ItemKind]]]:
    """Event type name -> ``(agent, kind)`` of each agent that consumes
    it, in routing order.  ``groups[agent]`` lists the stages the agent
    binds (:attr:`~repro.hypersonic.fusion.FusionPlan.groups`).

    Agent 0 takes stage 0's events as seed matches (``MATCH``); each
    agent takes its stage's events (``EVENT``; a fused agent its second
    stage's as ``EVENT2``) and, when not fused, the negated events of the
    guards it enforces (``GUARD``).
    """
    stages = nfa.stages
    table: dict[str, list[tuple[int, ItemKind]]] = {
        stages[0].event_type_name: [(0, ItemKind.MATCH)],
    }
    for agent, group in enumerate(groups):
        for kind, index in zip((ItemKind.EVENT, ItemKind.EVENT2), group):
            table.setdefault(stages[index].event_type_name, []).append(
                (agent, kind))
        if len(group) == 1:
            is_last = agent == len(groups) - 1
            for name in sorted(guard_type_names(stages, group[0], is_last)):
                table.setdefault(name, []).append((agent, ItemKind.GUARD))
    return table


@dataclass(frozen=True)
class RouteTarget:
    """One destination for a type's substream."""

    queue: WorkQueue
    kind: ItemKind
    seed_position: str | None = None  # set for stage-0 seeds


@dataclass
class SplitterReceipt:
    """Work performed for one routed event."""

    pushes: int = 0
    comparisons: int = 0
    dropped: bool = False
    shed: bool = False


@dataclass
class Splitter:
    """Routes events by type; see module docstring."""

    nfa: ChainNFA
    routes: dict[str, list[RouteTarget]] = field(default_factory=dict)
    watermark: float = float("-inf")
    events_routed: int = 0
    events_dropped: int = 0
    drops_by_type: dict[str, int] = field(default_factory=dict)
    tracer: Tracer = NULL_TRACER
    #: Optional overload admission controller
    #: (:class:`repro.control.shedding.LoadShedder`); ``None`` keeps the
    #: route path exactly as it was.
    shedder: object | None = None
    events_shed: int = 0
    _sealed: bool = False

    def add_route(self, type_name: str, target: RouteTarget) -> None:
        self.routes.setdefault(type_name, []).append(target)

    def route(self, event: Event, ready_at: float = 0.0) -> SplitterReceipt:
        """Push *event* to every consumer of its type.

        Returns the receipt the drivers use for cost accounting.  Events of
        types the pattern does not reference are dropped (counted in the
        receipt and in ``events_dropped``) — the splitter is the system's
        type filter.

        The watermark advances for *every* in-order input event, including
        dropped foreign-type ones.  This is intentional and load-bearing:
        the watermark means "no event with a smaller timestamp can still
        arrive anywhere in the system", a property of the *global* input
        stream, not of the routed substreams.  Negation-quarantine release
        (:meth:`AgentCore._clear_at`) depends on it — if dropped events did
        not advance the watermark, a stream tail of foreign types would
        withhold guard-clean matches forever.  Locked in by
        ``test_watermark_advances_on_dropped_foreign_type``.
        """
        receipt = SplitterReceipt()
        if event.timestamp > self.watermark:
            self.watermark = event.timestamp
        targets = self.routes.get(event.type.name)
        if not targets:
            receipt.dropped = True
            self.events_dropped += 1
            name = event.type.name
            self.drops_by_type[name] = self.drops_by_type.get(name, 0) + 1
            if self.tracer.enabled:
                self.tracer.splitter_drop(ready_at, name)
            return receipt
        # Overload admission control runs *after* the watermark advance:
        # a shed event is gone, but its timestamp still proved stream
        # progress — exactly like a dropped foreign-type event — so the
        # negation quarantine keeps releasing.
        if self.shedder is not None and self.shedder.should_shed(event):
            receipt.shed = True
            self.events_shed += 1
            if self.tracer.enabled:
                self.tracer.shed(ready_at, event.type.name,
                                 self.shedder.policy)
            return receipt
        self.events_routed += 1
        stage0 = self.nfa.stages[0]
        for target in targets:
            if target.seed_position is not None:
                receipt.comparisons += 1
                if not stage0.accepts(PartialMatch.empty(), event):
                    continue
                seed = PartialMatch.of(target.seed_position, event)
                target.queue.push(WorkItem(ItemKind.MATCH, seed), ready_at)
            else:
                target.queue.push(WorkItem(target.kind, event), ready_at)
            receipt.pushes += 1
        if self.tracer.enabled:
            self.tracer.splitter_route(ready_at, event.type.name,
                                       receipt.pushes)
        return receipt

    def seal(self) -> None:
        """Mark end of stream: the watermark jumps to +inf so agents can
        release every quarantined candidate and purge freely."""
        self._sealed = True
        self.watermark = float("inf")

    @property
    def sealed(self) -> bool:
        return self._sealed
