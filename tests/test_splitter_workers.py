"""Tests for the splitter and the worker policies."""

import random

from repro.core import Event, EventType, Pattern, compile_pattern
from repro.hypersonic import ItemKind, Roles, WorkQueue, WorkItem
from repro.hypersonic.splitter import RouteTarget, Splitter
from repro.hypersonic.workers import ExecutionUnit, WorkerPolicy, assign_roles

A, B, C, X = (EventType(n) for n in "ABCX")


def ev(type_, t):
    return Event(type_, t)


def build_splitter(pattern):
    nfa = compile_pattern(pattern)
    return Splitter(nfa=nfa), nfa


class TestSplitter:
    def test_routes_by_type(self):
        splitter, nfa = build_splitter(
            Pattern.sequence(["A", "B"], window=5.0)
        )
        q_seed = WorkQueue("seed")
        q_event = WorkQueue("event")
        splitter.add_route(
            "A", RouteTarget(q_seed, ItemKind.MATCH, seed_position="p1")
        )
        splitter.add_route("B", RouteTarget(q_event, ItemKind.EVENT))
        splitter.route(ev(A, 1.0))
        splitter.route(ev(B, 2.0))
        assert len(q_seed) == 1
        assert q_seed.pop().kind is ItemKind.MATCH
        assert q_event.pop().kind is ItemKind.EVENT

    def test_seed_wraps_partial_match(self):
        splitter, _ = build_splitter(Pattern.sequence(["A", "B"], window=5.0))
        q = WorkQueue("seed")
        splitter.add_route(
            "A", RouteTarget(q, ItemKind.MATCH, seed_position="p1")
        )
        splitter.route(ev(A, 1.5))
        item = q.pop()
        assert item.payload["p1"].timestamp == 1.5

    def test_unrouted_types_dropped(self):
        splitter, _ = build_splitter(Pattern.sequence(["A", "B"], window=5.0))
        receipt = splitter.route(ev(X, 1.0))
        assert receipt.dropped
        assert receipt.pushes == 0
        assert splitter.events_routed == 0

    def test_watermark_advances(self):
        splitter, _ = build_splitter(Pattern.sequence(["A", "B"], window=5.0))
        assert splitter.watermark == float("-inf")
        splitter.route(ev(X, 3.0))  # even dropped events advance time
        assert splitter.watermark == 3.0

    def test_watermark_advances_on_dropped_foreign_type(self):
        """Regression lock on the intended semantics: dropped foreign-type
        events MUST advance the watermark (it tracks global input-stream
        progress, which the negation quarantine release depends on — a
        tail of foreign types must not withhold guard-clean matches)."""
        splitter, _ = build_splitter(Pattern.sequence(["A", "B"], window=5.0))
        q = WorkQueue("event")
        splitter.add_route("B", RouteTarget(q, ItemKind.EVENT))
        splitter.route(ev(B, 1.0))
        assert splitter.watermark == 1.0
        receipt = splitter.route(ev(X, 7.5))
        assert receipt.dropped
        assert splitter.watermark == 7.5  # advanced by the dropped event
        assert splitter.events_dropped == 1
        assert splitter.drops_by_type == {"X": 1}
        # A later routed event keeps advancing it monotonically.
        splitter.route(ev(B, 8.0))
        assert splitter.watermark == 8.0
        assert splitter.events_routed == 2

    def test_seal(self):
        splitter, _ = build_splitter(Pattern.sequence(["A", "B"], window=5.0))
        splitter.seal()
        assert splitter.sealed
        assert splitter.watermark == float("inf")

    def test_multiple_targets_per_type(self):
        splitter, _ = build_splitter(
            Pattern.sequence(["A", "A"], window=5.0)
        )
        q1, q2 = WorkQueue("1"), WorkQueue("2")
        splitter.add_route(
            "A", RouteTarget(q1, ItemKind.MATCH, seed_position="p1")
        )
        splitter.add_route("A", RouteTarget(q2, ItemKind.EVENT))
        receipt = splitter.route(ev(A, 1.0))
        assert receipt.pushes == 2


class _StubAgent:
    """Minimal AgentLike for policy tests."""

    def __init__(self):
        self.es = WorkQueue("es")
        self.ms = WorkQueue("ms")

    def pop(self, role, now=float("inf")):
        queue = self.es if role == Roles.EVENT else self.ms
        return queue.pop(now)


def _event_item():
    return WorkItem.event(ev(A, 1.0))


def _match_item():
    from repro.core import PartialMatch
    return WorkItem.match(PartialMatch.of("p1", ev(A, 1.0)))


class TestWorkerPolicy:
    def make_policy(self, num_agents=2, units=None, **kwargs):
        agents = [_StubAgent() for _ in range(num_agents)]
        units = units or [
            ExecutionUnit(0, 0, Roles.EVENT),
            ExecutionUnit(1, 1, Roles.MATCH),
        ]
        policy = WorkerPolicy(
            agents=agents, units=units, window=5.0,
            rng=random.Random(1), **kwargs
        )
        return policy, agents, units

    def test_primary_role_first(self):
        policy, agents, units = self.make_policy()
        agents[0].es.push(_event_item())
        agents[0].ms.push(_match_item())
        selection = policy.select(units[0])
        assert selection.role == Roles.EVENT

    def test_role_dynamic_falls_back(self):
        policy, agents, units = self.make_policy()
        agents[0].ms.push(_match_item())
        selection = policy.select(units[0])  # event-primary unit
        assert selection.role == Roles.MATCH

    def test_role_static_does_not_fall_back(self):
        policy, agents, units = self.make_policy(role_dynamic=False)
        agents[0].ms.push(_match_item())
        assert policy.select(units[0]) is None
        assert units[0].idle_streak == 1

    def test_agent_dynamic_hops_to_loaded_agent(self):
        policy, agents, units = self.make_policy(agent_dynamic=True)
        extra = ExecutionUnit(2, 0, Roles.EVENT)
        policy = WorkerPolicy(
            agents=agents, units=[*units, extra], window=5.0,
            role_dynamic=True, agent_dynamic=True, rng=random.Random(1),
        )
        policy.watermark = lambda: 100.0
        agents[1].es.push(_event_item())
        selection = policy.select(extra)
        assert selection is not None
        assert selection.agent_index == 1
        assert extra.current_agent == 1
        assert extra.hops == 1

    def test_hop_rate_limited_by_watermark(self):
        policy, agents, units = self.make_policy(agent_dynamic=True)
        extra = ExecutionUnit(2, 0, Roles.EVENT)
        policy = WorkerPolicy(
            agents=agents, units=[*units, extra], window=5.0,
            agent_dynamic=True, rng=random.Random(1),
        )
        clock = {"value": 100.0}
        policy.watermark = lambda: clock["value"]
        agents[1].es.push(_event_item())
        assert policy.select(extra) is not None  # first hop
        agents[0].es.push(_event_item())
        agents[0].es.pop()  # leave agent 0 empty again
        agents[1].es.push(_event_item())
        # Watermark frozen: hop denied until the idle streak accumulates.
        assert policy.select(extra) is not None  # current agent is 1 now
        extra.current_agent = 0
        extra.idle_streak = 0
        agents[1].es.push(_event_item())  # work exists, but hop is limited
        assert policy.select(extra) is None
        assert policy.select(extra) is None
        assert policy.select(extra) is None
        # After three consecutive idle polls the unit may hop anyway.
        assert policy.select(extra) is not None

    def test_last_resident_never_migrates(self):
        agents = [_StubAgent(), _StubAgent()]
        lone = ExecutionUnit(0, 0, Roles.EVENT)
        policy = WorkerPolicy(
            agents=agents, units=[lone], window=5.0,
            agent_dynamic=True, rng=random.Random(1),
        )
        policy.watermark = lambda: 100.0
        agents[1].es.push(_event_item())
        lone.idle_streak = 10
        assert policy.select(lone) is None
        assert lone.current_agent == 0


class TestAssignRoles:
    def test_half_and_half(self):
        units = assign_roles([4], random.Random(0))
        roles = [unit.primary_role for unit in units]
        assert roles.count(Roles.EVENT) == 2
        assert roles.count(Roles.MATCH) == 2

    def test_odd_count_gets_both_roles(self):
        units = assign_roles([3], random.Random(0))
        roles = {unit.primary_role for unit in units}
        assert roles == {Roles.EVENT, Roles.MATCH}

    def test_unit_ids_global_and_agents_assigned(self):
        units = assign_roles([2, 3], random.Random(0))
        assert [unit.unit_id for unit in units] == [0, 1, 2, 3, 4]
        assert [unit.primary_agent for unit in units] == [0, 0, 1, 1, 1]
        assert all(unit.current_agent == unit.primary_agent for unit in units)
