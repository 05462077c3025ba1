"""The hybrid driver's schedule, not only its match set.

:class:`ReferenceDriver` keeps the driver loop as it was before units
without queued work were skipped: every unit is polled through
``WorkerPolicy.select`` after every routed event, and the in-flight cap is
read from ``_total_depth()``.  The engine under test must take the same
items on the same units in the same order, so every observable agrees:
the match list in order with each ``detected_at``, every
``FunctionalMetrics`` field, and each unit's counters (DESIGN §2q).
"""

from __future__ import annotations

import dataclasses

import pytest

from tests.conftest import make_stream
from tests.test_hypersonic_engine import PATTERNS
from repro.baselines import state_parallel
from repro.baselines.state_parallel import StateParallelEngine
from repro.core import Pattern
from repro.core.nfa import compile_pattern
from repro.hypersonic import HypersonicConfig, HypersonicEngine
from repro.hypersonic.fusion import FusedAgentCore
from repro.hypersonic.workers import WorkerPolicy


class ReferenceDriver(HypersonicEngine):
    """Polls every unit through ``select`` and caps by ``_total_depth()``."""

    def _work_rounds(self) -> None:
        steps = self._step_all_units()
        while self._total_depth() > self.config.max_inflight and steps:
            steps = self._step_all_units()

    def _step_all_units(self) -> int:
        steps = 0
        for unit in self.units:
            selection = self.policy.select(unit)
            if selection is None:
                continue
            agent = self.agents[selection.agent_index]
            receipt = agent.process(selection.item, unit.unit_id)
            unit.items_processed += 1
            steps += 1
            self._account(receipt)
            self._route_receipt(agent, receipt)
        self.metrics.items_processed += steps
        interval = self.config.snapshot_interval
        if steps and self.metrics.items_processed % interval < steps:
            self._snapshot_memory()
        return steps


class CheckedDriver(HypersonicEngine):
    """The driver under test, checking its in-flight count every step."""

    def _step_all_units(self) -> int:
        steps = super()._step_all_units()
        assert self._in_flight == self._total_depth()
        return steps


def observe(engine: HypersonicEngine, events) -> tuple:
    """Everything the schedule decides."""
    matches = engine.run(events)
    return (
        [(match.key, match.detected_at) for match in matches],
        dataclasses.asdict(engine.metrics),
        [
            (unit.unit_id, unit.items_processed, unit.idle_streak,
             unit.hops, unit.current_agent)
            for unit in engine.units
        ],
    )


def assert_same_schedule(pattern: Pattern, units: int,
                         config: HypersonicConfig | None, events) -> None:
    want = observe(ReferenceDriver(pattern, units, config=config), events)
    got = observe(CheckedDriver(pattern, units, config=config), events)
    assert got == want


EVENTS = make_stream(num_events=300, seed=11)
PATTERN_IDS = [pattern.describe() for pattern in PATTERNS]

CONFIGS = {
    "default": HypersonicConfig(),
    "agent-dynamic": HypersonicConfig(agent_dynamic=True),
    "role-static": HypersonicConfig(role_dynamic=False),
    "equal-alloc": HypersonicConfig(allocation="equal"),
    "forced-fusion": HypersonicConfig(force_fusion_pairs=((1, 2),)),
    # The in-flight cap binds after every step that leaves work queued.
    "no-backlog": HypersonicConfig(max_inflight=0),
}


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
def test_schedule_equals_reference(pattern, config):
    assert_same_schedule(pattern, 8, config, EVENTS)


@pytest.mark.parametrize("pattern,units", [
    pytest.param(pattern, units, id=f"{pattern.describe()}-{units}")
    for pattern in PATTERNS
    for units in (2, 3, 5, 16)
    # Every agent needs a unit.
    if units >= compile_pattern(pattern).num_stages - 1
])
def test_schedule_equals_reference_per_unit_count(pattern, units):
    assert_same_schedule(pattern, units, None, EVENTS)


@pytest.mark.parametrize("pattern", PATTERNS, ids=PATTERN_IDS)
def test_state_parallel_schedule_equals_reference(pattern, monkeypatch):
    def run(driver):
        monkeypatch.setattr(state_parallel, "HypersonicEngine", driver)
        return observe(StateParallelEngine(pattern)._engine, EVENTS)

    assert run(CheckedDriver) == run(ReferenceDriver)


@pytest.mark.parametrize("pattern,config,num_agents", [
    pytest.param(
        Pattern.sequence(["A", "B", "X"], window=5.0, negated=[2]),
        HypersonicConfig(), 1, id="one-agent-negation",
    ),
    pytest.param(
        Pattern.sequence(["A", "B", "C", "D"], window=8.0),
        HypersonicConfig(), 3, id="three-agent-chain",
    ),
    pytest.param(
        Pattern.sequence(["A", "B", "C", "D"], window=8.0),
        HypersonicConfig(force_fusion_pairs=((1, 2),)), 2, id="fused-pair",
    ),
])
def test_every_select_takes_work(pattern, config, num_agents, monkeypatch):
    """Role dynamics on, agent dynamics off: a unit is polled only when
    its agent has queued work, and then one of its two roles finds it."""
    calls = []
    select = WorkerPolicy.select

    def counted(self, unit, now=float("inf")):
        choice = select(self, unit, now)
        calls.append(choice is not None)
        return choice

    monkeypatch.setattr(WorkerPolicy, "select", counted)
    engine = HypersonicEngine(pattern, 8, config=config)
    engine.run(make_stream(num_events=500, seed=12))
    assert len(engine.agents) == num_agents
    if config.force_fusion_pairs:
        assert isinstance(engine.agents[0], FusedAgentCore)
    assert all(calls)
    assert len(calls) == sum(engine.metrics.per_agent_items) > 0
