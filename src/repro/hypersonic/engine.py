"""The HYPERSONIC engine: planning, wiring, and the deterministic driver.

:class:`HypersonicEngine` assembles the full two-tier system for one SEQ
pattern — splitter, agent chain (with optional fusion), execution units
with their role assignments — and drives it *functionally*: a cooperative
scheduler interleaves the units deterministically and the engine returns
the exact match set, which the tests compare against the sequential
baseline.  Performance evaluation runs the very same components under the
discrete-event simulator (:mod:`repro.simulator`), which replaces this
module's zero-cost scheduler with a virtual clock.

Restrictions (matching the paper's system, checked by
:func:`~repro.hypersonic.splitter.compile_chain`): SEQ patterns only, at
least two event types, no Kleene closure on the first type (the first
agent represents the first two NFA states and cannot host a self-loop).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.errors import AllocationError
from repro.core.events import Event, validate_stream_order
from repro.core.streams import as_source
from repro.core.matches import Match
from repro.core.nfa import ChainNFA
from repro.core.patterns import Pattern
from repro.core.policies import resolve_matches
from repro.control.planning import plan_build
from repro.costmodel.model import CostParameters, WorkloadStatistics
from repro.costmodel.statistics import estimate_statistics
from repro.hypersonic.allocation import AllocationPlan
from repro.hypersonic.buffers import BufferSnapshot
from repro.hypersonic.fusion import FusionPlan, build_agent
from repro.hypersonic.items import ItemKind, Receipt, WorkItem
from repro.hypersonic.splitter import (
    RouteTarget,
    Splitter,
    compile_chain,
    consumers,
)
from repro.hypersonic.workers import ExecutionUnit, WorkerPolicy, assign_roles
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["HypersonicConfig", "FunctionalMetrics", "HypersonicEngine"]

#: The agent attribute holding the input queue of each item kind.
_INPUT_QUEUES = {ItemKind.MATCH: "ms", ItemKind.EVENT: "es",
                 ItemKind.EVENT2: "es2", ItemKind.GUARD: "guard_q"}


@dataclass(frozen=True)
class HypersonicConfig:
    """Feature switches for the engine (paper Sections 3.3–4.2).

    ``allocation`` selects the outer balancing scheme (``"cost"`` per
    Theorem 1 or the ``"equal"`` ablation).  ``fusion`` enables Algorithm 2;
    ``force_fusion_pairs`` pre-fuses chosen adjacent stage pairs as in the
    Figure 12 setup.  ``sample_size`` bounds the statistics-estimation
    prefix when no statistics are supplied.
    """

    role_dynamic: bool = True
    agent_dynamic: bool = False
    fusion: bool = False
    force_fusion_pairs: tuple[tuple[int, int], ...] = ()
    allocation: str = "cost"
    seed: int = 7
    sample_size: int = 2000
    max_inflight: int = 4096
    snapshot_interval: int = 64


@dataclass
class FunctionalMetrics:
    """Counters collected by the deterministic driver."""

    events_ingested: int = 0
    items_processed: int = 0
    comparisons: int = 0
    fragment_locks: int = 0
    queue_pushes: int = 0
    matches_emitted: int = 0
    peak_memory_bytes: int = 0
    peak_buffered_items: int = 0
    unit_hops: int = 0
    per_agent_items: list[int] = field(default_factory=list)


class HypersonicEngine:
    """End-to-end hybrid-parallel CEP engine for a single pattern."""

    def __init__(
        self,
        pattern: Pattern,
        num_units: int,
        config: HypersonicConfig | None = None,
        stats: WorkloadStatistics | None = None,
        costs: CostParameters | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.pattern = pattern
        self.nfa: ChainNFA = compile_chain(pattern)
        if num_units < 1:
            raise AllocationError("need at least one execution unit")
        self.num_units = num_units
        self.config = config if config is not None else HypersonicConfig()
        self.costs = costs if costs is not None else CostParameters()
        self.stats = stats
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = FunctionalMetrics()

        self._rng = random.Random(self.config.seed)
        self.splitter: Splitter | None = None
        self.agents: list = []
        self.units: list[ExecutionUnit] = []
        self.policy: WorkerPolicy | None = None
        self.fusion_plan: FusionPlan | None = None
        self.allocation_plan: AllocationPlan | None = None
        self._matches: list[Match] = []
        # Items queued at any agent, kept as the simulator keeps
        # ``kernel.in_flight``; always equal to _total_depth() between
        # steps (DESIGN §2q).
        self._in_flight = 0
        self._built = False

    # ------------------------------------------------------------------ #
    # Planning and wiring                                                 #
    # ------------------------------------------------------------------ #

    def ensure_statistics(self, sample: Sequence[Event]) -> WorkloadStatistics:
        if self.stats is None:
            self.stats = estimate_statistics(self.pattern, sample)
        return self.stats

    def build(self) -> None:
        """Create agents, queues, units, and the routing table."""
        if self.stats is None:
            raise AllocationError(
                "statistics required before build(); call ensure_statistics() "
                "or pass stats="
            )
        config = self.config
        nfa = self.nfa

        build_plan = plan_build(
            nfa, self.stats, self.num_units, self.costs,
            fusion=config.fusion,
            force_fusion_pairs=config.force_fusion_pairs,
            allocation=config.allocation,
            tracer=self.tracer,
        )
        self.fusion_plan = build_plan.fusion_plan
        self.allocation_plan = build_plan.allocation_plan
        groups = build_plan.groups
        per_agent = list(build_plan.per_agent)

        splitter = Splitter(nfa=nfa, tracer=self.tracer)
        self.splitter = splitter
        watermark = lambda: splitter.watermark  # noqa: E731

        self.agents = []
        for position, group in enumerate(groups):
            is_last = position == len(groups) - 1
            agent = build_agent(group, position, nfa, watermark, is_last)
            self.agents.append(agent)
        # System-wide match floor for guard-event purges (see AgentCore).
        agents = self.agents

        def global_floor() -> float:
            return min(agent.local_match_floor() for agent in agents)

        for agent in agents:
            if hasattr(agent, "global_floor"):
                agent.global_floor = global_floor

        self._wire_routes(groups)

        if not config.role_dynamic:
            per_agent = _enforce_two_per_agent(per_agent, self.num_units)
        self.units = assign_roles(per_agent, self._rng)
        self.policy = WorkerPolicy(
            agents=self.agents,
            units=self.units,
            window=nfa.window,
            role_dynamic=config.role_dynamic,
            agent_dynamic=config.agent_dynamic,
            rng=random.Random(config.seed + 1),
            tracer=self.tracer,
        )
        self.policy.watermark = watermark
        self._built = True

    def _wire_routes(self, groups: Sequence[Sequence[int]]) -> None:
        """Route each event type to its consumers' input queues
        (:func:`~repro.hypersonic.splitter.consumers`)."""
        splitter = self.splitter
        assert splitter is not None
        seed_position = self.nfa.stages[0].item.name
        for type_name, targets in consumers(self.nfa, groups).items():
            for index, kind in targets:
                agent = self.agents[index]
                splitter.add_route(type_name, RouteTarget(
                    queue=getattr(agent, _INPUT_QUEUES[kind]), kind=kind,
                    seed_position=(seed_position if kind is ItemKind.MATCH
                                   else None),
                ))

    # ------------------------------------------------------------------ #
    # Deterministic functional driver                                     #
    # ------------------------------------------------------------------ #

    def run(self, events: Iterable[Event]) -> list[Match]:
        """Process an in-order stream to completion, returning all matches.

        Accepts a list, generator, or
        :class:`~repro.core.streams.WorkloadSource`; the stream is consumed
        in a single pass (statistics estimation buffers only the
        ``sample_size`` prefix).  May be called once per engine instance.
        """
        if self._built:
            raise AllocationError("run() may only be called once per engine")
        source = as_source(events)
        self.ensure_statistics(source.prefix(self.config.sample_size))
        self.build()
        splitter = self.splitter
        policy = self.policy
        assert splitter is not None and policy is not None

        iterator = iter(validate_stream_order(source))
        exhausted = False
        while not exhausted:
            event = next(iterator, None)
            if event is None:
                exhausted = True
                break
            receipt = splitter.route(event)
            self.metrics.events_ingested += 1
            self.metrics.comparisons += receipt.comparisons
            self.metrics.queue_pushes += receipt.pushes
            self._in_flight += receipt.pushes
            self._work_rounds()

        splitter.seal()
        self._drain()
        self._flush_agents()
        self._drain()
        if self._total_depth() > 0:
            stuck = [
                repr(agent) for agent in self.agents if agent.queue_depth()
            ]
            raise AllocationError(
                f"pipeline stalled with items in flight at: {stuck}; "
                "check role assignments cover both streams of every agent"
            )
        self._matches = resolve_matches(self.pattern, self._matches)
        self.metrics.matches_emitted = len(self._matches)
        self.metrics.unit_hops = sum(unit.hops for unit in self.units)
        self.metrics.per_agent_items = [
            agent.items_processed for agent in self.agents
        ]
        return self._matches

    def _work_rounds(self) -> None:
        """Let units work until in-flight items drop below the cap."""
        steps = self._step_all_units()
        while self._in_flight > self.config.max_inflight and steps:
            steps = self._step_all_units()

    def _drain(self) -> None:
        while True:
            steps = self._step_all_units()
            if steps == 0:
                # Idle maintenance: release quarantines that became safe.
                released = 0
                for agent in self.agents:
                    receipt = agent.maintenance()
                    if receipt.pushes:
                        released += receipt.pushes
                        self._in_flight += self._route_receipt(agent, receipt)
                if released == 0:
                    break

    def _flush_agents(self) -> None:
        for agent in self.agents:
            receipt = agent.flush()
            if receipt.pushes:
                self._in_flight += self._route_receipt(agent, receipt)

    def _step_all_units(self) -> int:
        """Give every unit, in order, one chance to take and process one
        item; returns the number of items processed.

        A unit that cannot take work elsewhere (agent dynamics off and no
        soft-fusion links) is polled only while its agent has queued work.
        Otherwise ``select`` would find nothing and only extend the unit's
        idle streak, so the unit gets that bookkeeping directly
        (DESIGN §2q).
        """
        policy = self.policy
        assert policy is not None
        agents = self.agents
        skip_idle = not policy.agent_dynamic and not policy.links
        steps = 0
        for unit in self.units:
            if skip_idle and (
                not self._in_flight
                or not agents[unit.current_agent].queue_depth()
            ):
                unit.idle_streak += 1
                continue
            selection = policy.select(unit)
            if selection is None:
                continue
            agent = agents[selection.agent_index]
            receipt = agent.process(selection.item, unit.unit_id)
            unit.items_processed += 1
            steps += 1
            self._account(receipt)
            self._in_flight += self._route_receipt(agent, receipt) - 1
        self.metrics.items_processed += steps
        if steps and self.metrics.items_processed % self.config.snapshot_interval < steps:
            self._snapshot_memory()
        return steps

    def _account(self, receipt: Receipt) -> None:
        self.metrics.comparisons += receipt.comparisons
        self.metrics.fragment_locks += receipt.fragments_locked
        self.metrics.queue_pushes += receipt.pushes

    def _route_receipt(self, agent, receipt: Receipt) -> int:
        """Queue *receipt*'s partial matches at the next agent, or collect
        them as matches after the last; returns the number queued."""
        position = agent.agent_index
        if position + 1 < len(self.agents):
            downstream = self.agents[position + 1]
            for partial in receipt.emitted_down:
                downstream.ms.push(WorkItem(ItemKind.MATCH, partial))
            return len(receipt.emitted_down)
        splitter = self.splitter
        assert splitter is not None
        for partial in receipt.emitted_down:
            detected = (
                splitter.watermark
                if splitter.watermark < float("inf")
                else max(partial.latest, partial.earliest + self.nfa.window)
            )
            self._matches.append(
                Match.from_partial(partial, detected_at=detected)
            )
        return 0

    def _total_depth(self) -> int:
        return sum(agent.queue_depth() for agent in self.agents)

    def _snapshot_memory(self) -> None:
        snapshot = BufferSnapshot.merge(
            [agent.snapshot() for agent in self.agents]
        )
        total = snapshot.total_bytes(self.costs.pointer_size)
        if total > self.metrics.peak_memory_bytes:
            self.metrics.peak_memory_bytes = total
        items = snapshot.eb_items + snapshot.mb_items + self._total_depth()
        if items > self.metrics.peak_buffered_items:
            self.metrics.peak_buffered_items = items


def _enforce_two_per_agent(per_agent: list[int], total_units: int) -> list[int]:
    """Role-static mode needs one event worker and one match worker per
    agent; redistribute so no agent falls below two units."""
    num_agents = len(per_agent)
    if total_units < 2 * num_agents:
        raise AllocationError(
            f"role-static mode needs at least {2 * num_agents} units for "
            f"{num_agents} agents, got {total_units}"
        )
    adjusted = list(per_agent)
    while any(count < 2 for count in adjusted):
        needy = min(range(num_agents), key=lambda i: adjusted[i])
        donor = max(range(num_agents), key=lambda i: adjusted[i])
        adjusted[donor] -= 1
        adjusted[needy] += 1
    return adjusted


def detect_hybrid(
    pattern: Pattern,
    events: Iterable[Event],
    num_units: int = 8,
    config: HypersonicConfig | None = None,
    stats: WorkloadStatistics | None = None,
) -> list[Match]:
    """One-shot convenience wrapper over :class:`HypersonicEngine`."""
    engine = HypersonicEngine(pattern, num_units, config=config, stats=stats)
    return engine.run(events)
