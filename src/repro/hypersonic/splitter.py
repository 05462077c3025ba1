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

from repro.core.events import Event
from repro.core.matches import PartialMatch
from repro.core.nfa import ChainNFA
from repro.hypersonic.items import ItemKind, WorkItem, WorkQueue
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["RouteTarget", "Splitter", "SplitterReceipt"]


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
