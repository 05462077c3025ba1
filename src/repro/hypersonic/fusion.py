"""Agent fusion (paper Section 4.2, Algorithm 2).

Fusion merges two consecutive agents into a single structure preserving
their joint functionality so a lightweight agent does not hold two
execution units hostage.  A fused agent is two :class:`AgentCore` parts,
one per stage, with both pairs of buffers (``EB_i``/``MB_i`` and
``EB_{i+1}``/``MB_{i+1}``); results of the first stage's join are written
into ``MB_{i+1}`` *inside* the agent instead of crossing a queue, and
immediately joined against ``EB_{i+1}`` so the exactly-once pair
evaluation is preserved across the internal boundary.

Fusion is planned by :func:`plan_with_fusion` — Algorithm 2: allocate,
fuse any agent that received fewer than two units with its lighter
neighbour, re-allocate, repeat.

Restrictions (as in the paper's evaluation, which fused plain adjacent
pairs of sequence agents): Kleene stages are not fusable, and neither
part may enforce a negation guard.  A guard after the pair's second
stage is fine unless that stage is the last: the next agent enforces it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

from repro.core.errors import AllocationError, PatternError
from repro.core.nfa import ChainNFA, Stage
from repro.costmodel.model import (
    CostParameters,
    WorkloadStatistics,
    proportional_allocation,
)
from repro.hypersonic.agent import AgentCore, guard_type_names
from repro.hypersonic.buffers import BufferSnapshot
from repro.hypersonic.items import ItemKind, Receipt, WorkItem

__all__ = ["FusedAgentCore", "FusionPlan", "plan_with_fusion"]


class FusedAgentCore:
    """Two consecutive stages executed by one agent (Section 4.2).

    Built from two :class:`AgentCore` parts that share one AGB: ``first``
    binds stage ``i`` and ``second`` stage ``i+1``.  ES1 and MS items go to
    ``first``.  The partial matches ``first`` emits are pushed onto
    ``second.ms`` and drained there in the same call, by the same unit:
    the paper's write to ``MB_{i+1}``, joined against ``EB_{i+1}`` at once.
    ES2 items go to ``second``; they carry their own kind, ``EVENT2``,
    because both stages may consume the same event type.

    Exposes the driving surface of :class:`AgentCore` (``pop`` /
    ``process`` / ``queue_depth`` / ``snapshot``), so drivers and policies
    treat fused and plain agents alike.
    """

    def __init__(
        self,
        agent_index: int,
        stages: tuple[Stage, ...],
        first_stage_index: int,
        window: float,
        watermark: Callable[[], float],
        is_last: bool,
    ) -> None:
        error = _fusion_error(stages, first_stage_index, is_last)
        if error is not None:
            raise error
        self.agent_index = agent_index
        self.first = AgentCore(
            agent_index, stages, first_stage_index, window, watermark,
            is_last=False,
        )
        self.second = AgentCore(
            agent_index, stages, first_stage_index + 1, window, watermark,
            is_last=is_last,
        )
        # One AGB, so each payload is counted once.
        self.agb = self.second.agb = self.first.agb
        self.es = self.first.es
        # ``second``'s own ES, so its match-buffer purge sees the ES2
        # backlog.
        self.es2 = self.second.es
        self.ms = self.first.ms
        self.guard_q = self.first.guard_q  # always empty: guards never fuse
        self.guard_type_names: frozenset[str] = frozenset()
        self.items_processed = 0

    # -- work intake ----------------------------------------------------- #

    def pop(self, role: str, now: float = float("inf")) -> WorkItem | None:
        if role == "event":
            item = self.es.pop(now)
            if item is not None:
                return item
            return self.es2.pop(now)
        return self.ms.pop(now)

    def queue_depth(self) -> int:
        return len(self.es) + len(self.es2) + len(self.ms)

    def channel_depths(self) -> tuple[tuple[str, int], ...]:
        """Current depth of each input channel, for queue-depth tracing."""
        return (
            ("ES1", len(self.es)),
            ("ES2", len(self.es2)),
            ("MS", len(self.ms)),
        )

    # -- processing ------------------------------------------------------ #

    def process(self, item: WorkItem, unit_id: int) -> Receipt:
        self.items_processed += 1
        if item.kind is ItemKind.EVENT2:
            return self.second.process(WorkItem.event(item.payload), unit_id)
        return self._drain_into_second(self.first.process(item, unit_id),
                                       unit_id)

    def process_batch(self, items: list[WorkItem], unit_id: int) -> Receipt:
        """A single-kind batch goes to its part's batched path; a mixed
        one is processed item by item."""
        es2_items = [item for item in items if item.kind is ItemKind.EVENT2]
        if es2_items and len(es2_items) < len(items):
            receipt = Receipt()
            for item in items:
                receipt.merge(self.process(item, unit_id))
            return receipt
        self.items_processed += len(items)
        if es2_items:
            return self.second.process_batch(
                [WorkItem.event(item.payload) for item in es2_items], unit_id
            )
        return self._drain_into_second(
            self.first.process_batch(items, unit_id), unit_id
        )

    def _drain_into_second(self, receipt: Receipt, unit_id: int) -> Receipt:
        """Queue every partial *receipt* emitted on ``second.ms``, then drain
        the queue through ``second``.

        A batched scan emits partials owner by owner, not in timestamp
        order.  While queued, they hold down ``second.ms.min_event_time()``,
        which keeps ``second``'s event-buffer purge from dropping events a
        partial not yet joined still needs.
        """
        second = self.second
        for partial in receipt.emitted_down:
            second.ms.push(WorkItem.match(partial))
        receipt.emitted_down = []
        item = second.ms.pop()
        while item is not None:
            receipt.merge(second.process(item, unit_id))
            item = second.ms.pop()
        return receipt

    def enable_vector_mode(self) -> bool:
        """Compile both parts' kernels; ``True`` when either part has one."""
        first = self.first.enable_vector_mode()
        second = self.second.enable_vector_mode()
        return first or second

    @property
    def vector_mode(self) -> bool:
        return self.first.vector_mode or self.second.vector_mode

    def maintenance(self) -> Receipt:
        # Neither part has a quarantine or Kleene growth to release.
        return Receipt()

    def flush(self) -> Receipt:
        return Receipt()

    # -- introspection ----------------------------------------------------- #

    def local_match_floor(self) -> float:
        return min(self.first.local_match_floor(),
                   self.second.local_match_floor())

    def snapshot(self) -> BufferSnapshot:
        merged = BufferSnapshot.merge(
            [self.first.snapshot(), self.second.snapshot()]
        )
        return replace(merged, agb_bytes=self.agb.current_bytes,
                       accounting_errors=self.agb.accounting_errors)

    def working_set_items(self, unit_id: int) -> int:
        return (self.first.working_set_items(unit_id)
                + self.second.working_set_items(unit_id))

    def __repr__(self) -> str:
        return (
            f"FusedAgentCore(F{self.agent_index}, stages="
            f"{self.first.stage_index}+{self.second.stage_index})"
        )


@dataclass(frozen=True)
class FusionPlan:
    """Outcome of Algorithm 2: agent groups and the final allocation.

    ``groups[i]`` lists the NFA stage indexes handled by chain position
    ``i`` — a single stage for a plain agent, two for a fused one.
    """

    groups: tuple[tuple[int, ...], ...]
    per_agent: tuple[int, ...]

    @property
    def num_agents(self) -> int:
        return len(self.groups)

    def fused_groups(self) -> tuple[int, ...]:
        return tuple(
            index for index, group in enumerate(self.groups) if len(group) > 1
        )

    def describe(self) -> dict:
        """JSON-serialisable view of the plan, used by trace exports."""
        return {
            "groups": [list(group) for group in self.groups],
            "per_agent": list(self.per_agent),
        }


def _fusion_error(stages: tuple[Stage, ...], first_index: int,
                  is_last: bool) -> Exception | None:
    """Why stages ``first_index`` and ``first_index + 1`` cannot share an
    agent, or ``None`` when they can (module docstring)."""
    second = first_index + 1
    if second >= len(stages):
        return AllocationError("fusion needs two consecutive stages")
    if stages[first_index].is_kleene or stages[second].is_kleene:
        return PatternError("Kleene stages cannot be fused")
    if guard_type_names(stages, first_index, False) or guard_type_names(
        stages, second, is_last
    ):
        return PatternError("negation-guarded stages cannot be fused")
    return None


def _fusable(nfa: ChainNFA, group_a: tuple[int, ...],
             group_b: tuple[int, ...]) -> bool:
    """Only plain adjacent single-stage agents fuse (module docstring)."""
    if len(group_a) > 1 or len(group_b) > 1:
        return False
    is_last = group_b[0] == nfa.num_stages - 1
    return _fusion_error(nfa.stages, group_a[0], is_last) is None


def plan_with_fusion(
    nfa: ChainNFA,
    stats: WorkloadStatistics,
    total_units: int,
    costs: CostParameters | None = None,
    force_pairs: Sequence[tuple[int, int]] = (),
) -> FusionPlan:
    """Algorithm 2: allocate, fuse under-provisioned agents, re-allocate.

    ``force_pairs`` lets experiments fuse chosen adjacent stage pairs up
    front (the Figure 12 setup fixes a pair per pattern in advance).
    """
    from repro.costmodel.model import LoadModel  # local to avoid cycle noise

    num_agents = nfa.num_stages - 1
    groups: list[tuple[int, ...]] = [(index + 1,) for index in range(num_agents)]

    for first_stage, second_stage in force_pairs:
        for position, group in enumerate(groups):
            if group == (first_stage,):
                if (
                    position + 1 < len(groups)
                    and groups[position + 1] == (second_stage,)
                    and _fusable(nfa, group, groups[position + 1])
                ):
                    groups[position] = (first_stage, second_stage)
                    del groups[position + 1]
                break

    model = LoadModel.for_nfa(nfa, stats, costs)

    def group_loads(current: list[tuple[int, ...]]) -> list[float]:
        loads = [load.total for load in model.agent_loads(total_units)]
        return [sum(loads[stage - 1] for stage in group) for group in current]

    def allocate(current: list[tuple[int, ...]]) -> list[int]:
        return proportional_allocation(group_loads(current), total_units)

    allocation = allocate(groups)
    changed = True
    while changed:
        changed = False
        for position, count in enumerate(allocation):
            if count >= 2 or len(groups) == 1:
                continue
            # Fuse with the neighbour holding the smaller allocation
            # (Algorithm 2 line 5), falling back to whichever side is
            # fusable.
            candidates = []
            if position > 0 and _fusable(nfa, groups[position - 1],
                                         groups[position]):
                candidates.append(
                    (allocation[position - 1], position - 1, position)
                )
            if position + 1 < len(groups) and _fusable(
                nfa, groups[position], groups[position + 1]
            ):
                candidates.append(
                    (allocation[position + 1], position, position + 1)
                )
            if not candidates:
                continue
            candidates.sort()
            _load, left, right = candidates[0]
            groups[left] = groups[left] + groups[right]
            del groups[right]
            allocation = allocate(groups)
            changed = True
            break
    return FusionPlan(groups=tuple(groups), per_agent=tuple(allocation))


def build_agent(
    group: tuple[int, ...],
    agent_index: int,
    nfa: ChainNFA,
    watermark: Callable[[], float],
    is_last: bool,
):
    """Instantiate the right core for one chain position."""
    if len(group) == 1:
        return AgentCore(
            agent_index=agent_index,
            stages=nfa.stages,
            stage_index=group[0],
            window=nfa.window,
            watermark=watermark,
            is_last=is_last,
        )
    return FusedAgentCore(
        agent_index=agent_index,
        stages=nfa.stages,
        first_stage_index=group[0],
        window=nfa.window,
        watermark=watermark,
        is_last=is_last,
    )
