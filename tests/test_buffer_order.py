"""The ordering invariants the agents' time-indexed scans rely on.

:class:`~repro.hypersonic.agent.AgentCore` bisects its buffers instead of
scanning them whole, which is exact only while

* every event-buffer fragment is ordered by ``(timestamp, event_id)``,
* the guard-event list is ordered by timestamp, and
* every match-buffer fragment not marked unordered is ordered by
  partial-match timestamp.

These tests wrap the agent's entry points and check all three after every
call, on every engine built on the agent core, fused agents' parts
included.  They check order only,
not match sets (the differential grid and the goldens do that).
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.bench.harness import build_query
from repro.datasets.stocks import StockConfig, generate_stock_stream
from repro.datasets.trips import TripConfig, generate_trip_stream
from repro.hypersonic.agent import AgentCore
from repro.hypersonic.engine import HypersonicEngine
from repro.runtime.procs import ProcsPipelineEngine
from repro.simulator import simulate

ENTRY_POINTS = ("process", "process_batch", "maintenance", "flush")


def _stocks(num_events: int = 500):
    return generate_stock_stream(StockConfig(
        num_events=num_events,
        symbols=tuple(f"S{i}" for i in range(4)),
        rates=0.6,
        seed=3,
    ))


def _trips(num_trips: int = 80):
    return generate_trip_stream(TripConfig(num_trips=num_trips, num_bikes=6,
                                           seed=5))


#: Stocks Q_A1 and Q_A3, trips negation (Q_C3) and Kleene (Q_C2).
CASES = {
    "stocks_q_a1": lambda: _case("stocks", "seq", 4, 20.0, _stocks()),
    "stocks_q_a3": lambda: _case("stocks", "negation", 4, 20.0, _stocks()),
    "trips_negation": lambda: _case("trips", "negation", 3, 12.0, _trips()),
    "trips_kleene": lambda: _case("trips", "kleene", 3, 2.0, _trips()),
}


def _case(dataset, template, length, window, events):
    return build_query(dataset, template, length, window, events).pattern, events


def order_violations(agent: AgentCore) -> list[str]:
    """Every buffer of *agent* that breaks an ordering invariant."""
    broken = []
    for owner, fragment in agent.event_buffer._fragments.items():
        keys = [(event.timestamp, event.event_id) for event in fragment]
        if keys != sorted(keys):
            broken.append(f"{agent!r} EB fragment {owner}")
    stamps = [event.timestamp for event in agent._guard_events]
    if stamps != sorted(stamps):
        broken.append(f"{agent!r} guard list")
    for owner, fragment in agent.match_buffer._fragments.items():
        if owner in agent._mb_unordered:
            continue
        stamps = [partial.timestamp for partial in fragment]
        if stamps != sorted(stamps):
            broken.append(f"{agent!r} unmarked MB fragment {owner}")
    return broken


@pytest.fixture
def checked(monkeypatch):
    """Check every agent after each entry-point call; count the calls and
    the calls that found a match-buffer fragment marked unordered.

    The counters are shared memory, so calls made in forked procs workers
    count too; a violation there raises in the worker and surfaces as the
    engine's error.
    """
    calls = multiprocessing.Value("l", 0)
    marked = multiprocessing.Value("l", 0)

    def wrap(original):
        def checking(self, *args, **kwargs):
            result = original(self, *args, **kwargs)
            broken = order_violations(self)
            assert not broken, f"ordering invariant broken: {broken}"
            with calls.get_lock():
                calls.value += 1
            if self._mb_unordered:
                with marked.get_lock():
                    marked.value += 1
            return result
        return checking

    for name in ENTRY_POINTS:
        monkeypatch.setattr(AgentCore, name, wrap(getattr(AgentCore, name)))
    return calls, marked


@pytest.mark.parametrize("case", sorted(CASES))
def test_hybrid_keeps_buffers_ordered(checked, case):
    pattern, events = CASES[case]()
    HypersonicEngine(pattern, 8).run(events)
    assert checked[0].value > 0


@pytest.mark.parametrize("batch", [1, 16])
@pytest.mark.parametrize("case", sorted(CASES))
def test_simulator_keeps_buffers_ordered(checked, case, batch):
    pattern, events = CASES[case]()
    simulate("hypersonic", pattern, events, num_cores=8, agent_dynamic=True,
             batch_size=batch)
    assert checked[0].value > 0


@pytest.mark.parametrize("batch", [1, 16])
def test_simulator_keeps_fused_buffers_ordered(checked, monkeypatch, batch):
    """A fused agent's two parts are agent cores too, and its second part
    stores the partials the first emits in emission order."""
    stages = set()
    process = AgentCore.process

    def noting(self, item, unit_id):
        stages.add(self.stage_index)
        return process(self, item, unit_id)

    monkeypatch.setattr(AgentCore, "process", noting)
    pattern, events = CASES["stocks_q_a1"]()
    simulate("hypersonic", pattern, events, num_cores=8, agent_dynamic=True,
             batch_size=batch, force_fusion_pairs=((1, 2),))
    assert checked[0].value > 0
    assert {1, 2} <= stages  # both parts of the fused agent were checked


def test_downstream_fragments_get_marked_unordered(checked):
    """The mark is not dead code: on stocks Q_A1 a downstream agent's
    partial matches arrive out of timestamp order."""
    pattern, events = CASES["stocks_q_a1"]()
    simulate("hypersonic", pattern, events, num_cores=8, agent_dynamic=True)
    assert checked[1].value > 0


@pytest.mark.wallclock
@pytest.mark.parametrize("batch", [1, 16])
@pytest.mark.parametrize("case", sorted(CASES))
def test_procs_keeps_buffers_ordered(checked, case, batch):
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the checks reach the workers only under fork")
    pattern, events = CASES[case]()
    engine = ProcsPipelineEngine(pattern, procs=2, batch_size=batch,
                                 start_method="fork")
    engine.run(events, timeout=120.0)
    assert checked[0].value > 0
