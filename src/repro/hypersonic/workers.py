"""Execution units and work-selection policies (Sections 3.3.2 and 4.1).

An *execution unit* is one homogeneous worker.  Its behaviour is governed
by two orthogonal mechanisms:

* **Role-dynamic** (Section 3.3.2): each unit has a primary role (event
  worker or match worker) assigned at startup by splitting the agent's
  units into two random halves.  A unit first looks for work matching its
  primary role; if that stream is empty it temporarily assumes the
  secondary role.  With role dynamics disabled (the ablation baseline) a
  unit only ever serves its primary role.

* **Agent-dynamic** (Section 4.1, Algorithm 1): when a unit finds no work
  at its current agent in either role, it probes agents chosen at random
  until it finds a non-idle one, which becomes its current agent.  Hops are
  rate-limited to one per time window ``W`` (measured in event time via the
  splitter watermark), and a unit never abandons an agent it is the last
  resident of — both safeguards from the paper.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Protocol, Sequence

from repro.hypersonic.items import WorkItem
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = ["Roles", "ExecutionUnit", "AgentLike", "WorkerPolicy"]


class Roles:
    """Worker role names and the role-flip helper."""

    EVENT = "event"
    MATCH = "match"

    @staticmethod
    def other(role: str) -> str:
        return Roles.MATCH if role == Roles.EVENT else Roles.EVENT


class AgentLike(Protocol):
    """The queue-facing surface a policy needs from an agent: the next
    item of *role* that is ready at *now*, or ``None`` when there is none
    (the pop leaves the queues unchanged then)."""

    def pop(self, role: str, now: float) -> WorkItem | None: ...


@dataclass
class ExecutionUnit:
    """One homogeneous worker with its role/agent assignments."""

    unit_id: int
    primary_agent: int
    primary_role: str
    current_agent: int = -1
    last_hop_watermark: float = float("-inf")
    items_processed: int = 0
    idle_streak: int = 0
    hops: int = 0

    def __post_init__(self) -> None:
        if self.current_agent < 0:
            self.current_agent = self.primary_agent


@dataclass
class Selection:
    """A unit's chosen work: the agent index, role used, and the item."""

    agent_index: int
    role: str
    item: WorkItem


@dataclass
class WorkerPolicy:
    """Implements role selection plus Algorithm 1 (agent-dynamic input
    selection) over a fixed list of agents."""

    agents: Sequence[AgentLike]
    units: Sequence[ExecutionUnit]
    window: float
    role_dynamic: bool = True
    agent_dynamic: bool = False
    rng: random.Random = field(default_factory=lambda: random.Random(7))
    max_probes: int = 8
    tracer: Tracer = NULL_TRACER
    #: Soft-fused agent pairs (control-plane ``fuse`` decisions): a unit
    #: may serve a linked partner of its current agent as if it were its
    #: own — no hop, no rate-limit, no residency change.  Empty by
    #: default, so static runs never touch this path.
    links: set = field(default_factory=set)

    def watermark(self) -> float:  # overridden by the engine wiring
        return float("inf")

    def link(self, first: int, second: int) -> None:
        self.links.add((min(first, second), max(first, second)))

    def unlink(self, first: int, second: int) -> None:
        self.links.discard((min(first, second), max(first, second)))

    def _linked_partners(self, agent_index: int) -> list[int]:
        partners = []
        for first, second in sorted(self.links):
            if first == agent_index:
                partners.append(second)
            elif second == agent_index:
                partners.append(first)
        return partners

    # ------------------------------------------------------------------ #

    def select(self, unit: ExecutionUnit, now: float = float("inf")) -> Selection | None:
        """Pick the next work item for *unit*, honouring the configured
        dynamics.  Returns ``None`` when the unit stays idle this step."""
        choice = self._try_agent(unit.current_agent, unit.primary_role, now)
        if choice is not None:
            unit.idle_streak = 0
            if self.tracer.enabled and choice.role != unit.primary_role:
                self.tracer.role_switch(
                    now, unit.unit_id, choice.agent_index,
                    unit.primary_role, choice.role,
                )
            return choice
        if self.links:
            # Soft fusion: serve a linked partner in place, bypassing the
            # Algorithm-1 hop rate-limit (the pair shares its unit pool).
            for partner in self._linked_partners(unit.current_agent):
                choice = self._try_agent(partner, unit.primary_role, now)
                if choice is not None:
                    unit.idle_streak = 0
                    if self.tracer.enabled and choice.role != unit.primary_role:
                        self.tracer.role_switch(
                            now, unit.unit_id, partner,
                            unit.primary_role, choice.role,
                        )
                    return choice
        if self.agent_dynamic:
            hop_choice = self._try_hop(unit, now)
            if hop_choice is not None:
                unit.idle_streak = 0
                return hop_choice
        unit.idle_streak += 1
        return None

    def _try_agent(self, agent_index: int, primary_role: str,
                   now: float) -> Selection | None:
        """The primary role's next ready item at the agent, else (role
        dynamics on) the secondary role's.  ``pop`` returns ``None`` when
        the role has no ready item, so it is also the availability test."""
        agent = self.agents[agent_index]
        item = agent.pop(primary_role, now)
        if item is not None:
            return Selection(agent_index, primary_role, item)
        if self.role_dynamic:
            secondary = Roles.other(primary_role)
            item = agent.pop(secondary, now)
            if item is not None:
                return Selection(agent_index, secondary, item)
        return None

    def _try_hop(self, unit: ExecutionUnit, now: float) -> Selection | None:
        watermark = self.watermark()
        # Hops are rate-limited to one per window of event time (Section
        # 4.1) — but a persistently idle unit may hop anyway: when the
        # system drains a backlog the watermark stops advancing and a pure
        # event-time limit would freeze migration exactly when it is most
        # needed.  (Emptied fragments are deleted, so churn stays cheap.)
        if (
            watermark - unit.last_hop_watermark < self.window
            and unit.idle_streak < 3
        ):
            return None
        if self._is_last_resident(unit):
            return None
        num_agents = len(self.agents)
        if num_agents <= 1:
            return None
        # Random search (Algorithm 1 line 4): probe other agents in a random
        # order, bounded by max_probes so the step stays cheap on wide
        # chains.
        candidates = [
            index for index in range(num_agents)
            if index != unit.current_agent
        ]
        self.rng.shuffle(candidates)
        for candidate in candidates[: self.max_probes]:
            choice = self._try_agent(candidate, unit.primary_role, now)
            if choice is not None:
                if self.tracer.enabled:
                    self.tracer.migration(
                        now, unit.unit_id, unit.current_agent, candidate
                    )
                    if choice.role != unit.primary_role:
                        self.tracer.role_switch(
                            now, unit.unit_id, candidate,
                            unit.primary_role, choice.role,
                        )
                unit.current_agent = candidate
                unit.last_hop_watermark = watermark
                unit.hops += 1
                return choice
        return None

    def _is_last_resident(self, unit: ExecutionUnit) -> bool:
        for other in self.units:
            if other is unit:
                continue
            if other.current_agent == unit.current_agent:
                return False
        return True


def assign_roles(
    allocation: Sequence[int], rng: random.Random
) -> list[ExecutionUnit]:
    """Create execution units for a per-agent allocation.

    Primary roles are assigned by splitting each agent's units into two
    random halves (Section 3.3.2's startup heuristic).  With an odd count
    the extra unit lands on a random role.
    """
    units: list[ExecutionUnit] = []
    unit_id = 0
    for agent_index, count in enumerate(allocation):
        roles = [Roles.EVENT] * (count // 2) + [Roles.MATCH] * (count // 2)
        if count % 2:
            roles.append(rng.choice((Roles.EVENT, Roles.MATCH)))
        rng.shuffle(roles)
        for role in roles:
            units.append(
                ExecutionUnit(
                    unit_id=unit_id, primary_agent=agent_index, primary_role=role
                )
            )
            unit_id += 1
    return units
