"""Control-plane tests: drift estimation, shedding policy, determinism.

Three layers, matching the import discipline of :mod:`repro.control`:

* :class:`~repro.obs.drift.DriftEstimator` in isolation — the live
  counterpart of the post-hoc calibration verdict;
* :class:`~repro.control.shedding.LoadShedder` in isolation — the
  pattern-aware admission controller, including its invariants (guard
  types are never shed, the hard ceiling overrides hotness);
* :class:`~repro.control.plane.ControlPlane` end to end through the
  simulator — byte-identical decision sequences across repeated runs,
  and the ``adapt="off"`` path bit-identical to the frozen sim goldens.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.control import SHED_POLICIES, ControlPlane, LoadShedder, ReplanDecision
from repro.control.decisions import DECISION_KINDS
from repro.core import Pattern
from repro.core.events import Event, EventType
from repro.core.matches import PartialMatch
from repro.obs.drift import DriftEstimator
from repro.core.errors import SimulationError
from repro.hypersonic.engine import HypersonicConfig
from repro.hypersonic.fusion import FusedAgentCore
from repro.hypersonic.items import WorkItem
from repro.simulator import simulate
from repro.simulator.hypersonic_sim import HypersonicSimulation

from tests.conftest import make_stream
from tests.make_sim_goldens import (
    GOLDEN_PATH,
    NUM_CORES,
    golden_pattern,
    golden_workload,
    result_payload,
)


def _event(name: str, ts: float = 0.0) -> Event:
    return Event(type=EventType(name), timestamp=ts)


class TestDriftEstimator:
    def test_fresh_estimator_reports_no_drift(self):
        est = DriftEstimator()
        assert est.moves() == 0
        assert not est.drifted()
        assert est.optimal_allocation() == []

    def test_note_plan_resets_busy_accumulators(self):
        est = DriftEstimator()
        est.note_plan([2, 2], [1.0, 1.0])
        est.note_busy(0, 5.0)
        est.note_busy(1, 1.0)
        assert est.items == 2
        est.note_plan([3, 1], [3.0, 1.0])
        assert est.items == 0
        assert est.busy == [0.0, 0.0]
        assert est.per_agent == [3, 1]

    def test_out_of_range_busy_is_ignored(self):
        est = DriftEstimator()
        est.note_plan([2, 2], [1.0, 1.0])
        est.note_busy(7, 5.0)
        assert est.items == 0

    def test_balanced_load_is_calibrated(self):
        est = DriftEstimator()
        est.note_plan([2, 2], [1.0, 1.0])
        for _ in range(10):
            est.note_busy(0, 1.0)
            est.note_busy(1, 1.0)
        assert est.optimal_allocation() == [2, 2]
        assert est.moves() == 0
        assert not est.drifted()

    def test_skewed_load_drifts(self):
        est = DriftEstimator()
        est.note_plan([4, 4], [1.0, 1.0])
        for _ in range(10):
            est.note_busy(0, 9.0)
            est.note_busy(1, 1.0)
        optimal = est.optimal_allocation()
        assert optimal[0] > optimal[1]
        assert est.moves() > 0
        assert est.drifted()

    def test_fusion_plan_without_loads_uses_counts(self):
        est = DriftEstimator()
        est.note_plan([3, 1], [])
        assert est.predicted_shares() == pytest.approx([0.75, 0.25])

    def test_constant_busy_shares_never_drift(self):
        """Observed shares that exactly track the prediction stay
        calibrated no matter how many observations accumulate."""
        est = DriftEstimator()
        est.note_plan([6, 2], [3.0, 1.0])
        for _ in range(500):
            est.note_busy(0, 3.0)
            est.note_busy(1, 1.0)
        assert est.items == 1000
        assert est.moves() == 0
        assert not est.drifted()
        assert est.optimal_allocation() == [6, 2]

    def test_single_agent_plan_never_moves(self):
        est = DriftEstimator()
        est.note_plan([4], [1.0])
        for _ in range(100):
            est.note_busy(0, 1.0)
        assert est.moves() == 0
        assert not est.drifted()


class _StubAgent:
    """Minimal consumer shape for the shedder's hot/cold probe."""

    class _Buffer:
        def __init__(self, items: int) -> None:
            self._items = items

        def total_items(self) -> int:
            return self._items

    def __init__(self, buffered: int = 0, queued: int = 0) -> None:
        self.match_buffer = self._Buffer(buffered)
        self.ms = [object()] * queued


class TestLoadShedder:
    def test_invalid_policy_and_bound_rejected(self):
        with pytest.raises(ValueError):
            LoadShedder(bound=4, policy="random")
        with pytest.raises(ValueError):
            LoadShedder(bound=-1)
        assert set(SHED_POLICIES) == {"tail", "pattern"}

    def test_disabled_shedder_admits_everything(self):
        shedder = LoadShedder(bound=0, policy="tail")
        shedder.note_backlog(10_000)
        assert not shedder.overloaded
        assert not shedder.should_shed(_event("A"))
        assert shedder.shed_total == 0

    def test_under_bound_admits_everything(self):
        shedder = LoadShedder(bound=8, policy="tail")
        shedder.note_backlog(8)
        assert not shedder.should_shed(_event("A"))

    def test_tail_policy_sheds_blindly_when_overloaded(self):
        shedder = LoadShedder(bound=4, policy="tail")
        shedder.note_backlog(5)
        assert shedder.should_shed(_event("A"))
        assert shedder.should_shed(_event("B"))
        assert shedder.counts()["total"] == 2

    def test_guard_types_never_shed(self):
        for policy in SHED_POLICIES:
            shedder = LoadShedder(
                bound=1, policy=policy, guard_types=frozenset({"N"})
            )
            shedder.note_backlog(1_000_000)  # far past the hard ceiling
            assert shedder.critical
            assert not shedder.should_shed(_event("N"))
            assert shedder.shed_total == 0

    def test_pattern_policy_sheds_seeds_first(self):
        shedder = LoadShedder(
            bound=4, policy="pattern", seed_types=frozenset({"A"}),
            consumers={"B": _StubAgent(buffered=3)},
        )
        shedder.note_backlog(5)
        assert shedder.should_shed(_event("A"))  # seed: opens new work
        assert not shedder.should_shed(_event("B"))  # hot consumer

    def test_pattern_policy_sheds_cold_consumers(self):
        shedder = LoadShedder(
            bound=4, policy="pattern",
            consumers={"B": _StubAgent(buffered=0, queued=0)},
        )
        shedder.note_backlog(5)
        assert shedder.should_shed(_event("B"))

    def test_queued_ms_work_counts_as_hot(self):
        shedder = LoadShedder(
            bound=4, policy="pattern",
            consumers={"B": _StubAgent(buffered=0, queued=2)},
        )
        shedder.note_backlog(5)
        assert not shedder.should_shed(_event("B"))

    def test_fused_parts_are_hot_per_stage(self):
        """A real fused agent: partials held only in MB2 protect the
        second stage's type, and not the first's, whose events can never
        extend them."""
        pattern = Pattern.sequence(["A", "B", "C", "D"], window=6.0)
        sim = HypersonicSimulation(
            pattern, 4, config=HypersonicConfig(force_fusion_pairs=((1, 2),)),
            shed_bound=4, shed_policy="pattern",
        )
        sim.engine.ensure_statistics(make_stream(num_events=200, seed=1))
        sim.engine.build()
        fused = sim.engine.agents[0]
        assert isinstance(fused, FusedAgentCore)
        partial = PartialMatch.of("p1", _event("A", 1.0)).extended(
            "p2", _event("B", 2.0)
        )
        fused.second.process(WorkItem.match(partial), unit_id=0)
        assert fused.first.match_buffer.total_items() == 0
        shedder = sim._build_shedder()
        shedder.note_backlog(5)
        assert not shedder.should_shed(_event("C", 3.0))
        assert shedder.should_shed(_event("B", 3.0))

    def test_critical_ceiling_sheds_even_hot_events(self):
        shedder = LoadShedder(
            bound=4, policy="pattern",
            consumers={"B": _StubAgent(buffered=3)},
        )
        shedder.note_backlog(9)  # > 2 * bound
        assert shedder.critical
        assert shedder.should_shed(_event("B"))

    def test_counts_report(self):
        shedder = LoadShedder(bound=2, policy="tail")
        shedder.note_backlog(3)
        shedder.should_shed(_event("B"))
        shedder.should_shed(_event("A"))
        shedder.should_shed(_event("A"))
        assert shedder.counts() == {
            "total": 3,
            "by_type": {"A": 2, "B": 1},
            "policy": "tail",
            "bound": 2,
        }

    def test_hard_ceiling_boundary_is_exactly_twice_the_bound(self):
        shedder = LoadShedder(
            bound=4, policy="pattern",
            consumers={"B": _StubAgent(buffered=3)},
        )
        shedder.note_backlog(8)  # == 2 * bound: hot events still protected
        assert shedder.overloaded
        assert not shedder.critical
        assert not shedder.should_shed(_event("B"))
        shedder.note_backlog(9)  # one past the ceiling: blind mode
        assert shedder.critical
        assert shedder.should_shed(_event("B"))

    def test_sustained_overload_sheds_every_sheddable_arrival(self):
        """Past the hard ceiling the shedder never lets anything but guard
        types through, no matter how long the overload lasts."""
        shedder = LoadShedder(
            bound=4, policy="pattern", guard_types=frozenset({"N"}),
            seed_types=frozenset({"A"}),
            consumers={"B": _StubAgent(buffered=3)},
        )
        for _ in range(50):
            shedder.note_backlog(100)  # sustained, far past 2 * bound
            assert shedder.should_shed(_event("A"))
            assert shedder.should_shed(_event("B"))
            assert not shedder.should_shed(_event("N"))
        assert shedder.shed_total == 100
        assert shedder.counts()["by_type"] == {"A": 50, "B": 50}

    def test_pressure_halves_the_effective_bound(self):
        shedder = LoadShedder(bound=8, policy="tail")
        assert shedder.effective_bound == 8
        shedder.pressure = True
        assert shedder.effective_bound == 4
        # Backlog between the halved and configured bound: overloaded only
        # under pressure.
        shedder.note_backlog(6)
        assert shedder.overloaded
        assert shedder.should_shed(_event("A"))
        shedder.pressure = False
        assert not shedder.overloaded
        assert not shedder.should_shed(_event("A"))

    def test_pressure_keeps_hard_ceiling_anchored(self):
        """Pressure makes the shedder eager, never blind: the critical
        ceiling stays at twice the *configured* bound."""
        shedder = LoadShedder(
            bound=8, policy="pattern",
            consumers={"B": _StubAgent(buffered=3)},
        )
        shedder.pressure = True
        shedder.note_backlog(10)  # past 2 * effective_bound, under 2 * bound
        assert shedder.overloaded
        assert not shedder.critical
        assert not shedder.should_shed(_event("B"))  # hot still protected

    def test_pressure_on_disabled_shedder_is_inert(self):
        shedder = LoadShedder(bound=0, policy="tail")
        shedder.pressure = True
        assert shedder.effective_bound == 0
        shedder.note_backlog(10_000)
        assert not shedder.overloaded
        assert not shedder.should_shed(_event("A"))

    def test_pressure_floor_is_one(self):
        shedder = LoadShedder(bound=1, policy="tail")
        shedder.pressure = True
        assert shedder.effective_bound == 1


class TestControlPlaneUnit:
    def _fed_plane(self, **kwargs) -> ControlPlane:
        plane = ControlPlane(window=5.0, min_items=4, **kwargs)
        plane.note_plan([4, 4], [1.0, 1.0])
        return plane

    def test_no_decisions_without_observations(self):
        plane = self._fed_plane()
        assert plane.epoch(10.0) == []
        assert plane.epochs == 1

    def test_drift_triggers_reallocate(self):
        plane = self._fed_plane()
        for _ in range(10):
            plane.observe_busy(0, 9.0)
            plane.observe_busy(1, 1.0)
        decisions = plane.epoch(10.0)
        assert len(decisions) == 1
        decision = decisions[0]
        assert decision.kind in ("reallocate", "migrate")
        assert decision.kind in DECISION_KINDS
        assert sum(decision.per_agent) == 8
        assert decision.per_agent[0] > decision.per_agent[1]
        # The estimator was reset: the same epoch later has no fresh signal.
        assert plane.estimator.items == 0

    def test_acting_epochs_are_rate_limited(self):
        plane = self._fed_plane()
        for _ in range(10):
            plane.observe_busy(0, 9.0)
            plane.observe_busy(1, 1.0)
        assert plane.epoch(10.0)
        for _ in range(10):
            plane.observe_busy(0, 9.0)
            plane.observe_busy(1, 1.0)
        # Within one window of the last action: suppressed.
        assert plane.epoch(12.0) == []
        assert plane.epoch(20.0)  # past the gap: acts again

    def test_shed_decision_is_edge_triggered(self):
        shedder = LoadShedder(bound=2, policy="tail")
        plane = self._fed_plane(shedder=shedder)
        shedder.note_backlog(100)
        first = plane.epoch(10.0)
        assert [d.kind for d in first] == ["shed"]
        # Still critical: no second edge.
        assert all(d.kind != "shed" for d in plane.epoch(11.0))
        shedder.note_backlog(0)
        plane.epoch(12.0)
        shedder.note_backlog(100)
        assert any(d.kind == "shed" for d in plane.epoch(13.0))

    def test_observation_floor_blocks_action(self):
        """Fewer than min_items busy observations since the last plan are
        noise: the plane must not act on them (the default floor is 64)."""
        plane = ControlPlane(window=5.0)
        plane.note_plan([4, 4], [1.0, 1.0])
        assert plane.min_items == 64
        for index in range(63):
            plane.observe_busy(index % 2, 9.0 if index % 2 == 0 else 1.0)
        assert plane.epoch(10.0) == []
        plane.observe_busy(0, 9.0)  # the 64th observation crosses the floor
        decisions = plane.epoch(20.0)
        assert decisions
        assert decisions[0].kind in ("reallocate", "migrate")

    def test_reset_on_replan_judges_post_replan_observations_only(self):
        """After a re-allocation the estimator restarts from the observed
        busy at replan time; load that keeps tracking the new allocation
        must not trigger a second action."""
        plane = self._fed_plane()
        for _ in range(10):
            plane.observe_busy(0, 9.0)
            plane.observe_busy(1, 1.0)
        decisions = plane.epoch(10.0)
        assert len(decisions) == 1
        new_allocation = list(decisions[0].per_agent)
        assert plane.estimator.per_agent == new_allocation
        assert plane.estimator.items == 0
        # Post-replan load lands exactly where the new plan predicted it.
        for _ in range(10):
            plane.observe_busy(0, 9.0)
            plane.observe_busy(1, 1.0)
        later = plane.epoch(20.0)  # past the epoch gap
        assert all(d.kind not in ("reallocate", "migrate") for d in later)

    def test_decision_as_dict_round_trips_json(self):
        decision = ReplanDecision(
            kind="migrate", epoch=3, ts=1.5, per_agent=(2, 1, 1),
            agent=0, partner=2, reason="drift moves 1 > allowed 1",
        )
        payload = json.loads(json.dumps(decision.as_dict()))
        assert payload["kind"] == "migrate"
        assert payload["per_agent"] == [2, 1, 1]
        assert payload["agent"] == 0
        assert payload["partner"] == 2


class _StubSlo:
    """Duck-typed stand-in for SloEngine: the plane only calls evaluate()."""

    def __init__(self):
        self.statuses: list[dict] = []

    def evaluate(self, now):
        return self.statuses


class TestSloTriggers:
    def _plane(self, **kwargs) -> ControlPlane:
        plane = ControlPlane(window=5.0, min_items=4, **kwargs)
        plane.note_plan([4, 4], [1.0, 1.0])
        return plane

    @staticmethod
    def _status(metric: str, status: str) -> dict:
        return {"metric": metric, "status": status, "burn": 1.0}

    def test_healthy_slo_changes_nothing(self):
        slo = _StubSlo()
        slo.statuses = [self._status("p95_latency", "ok")]
        plane = self._plane(slo=slo)
        assert plane.epoch(10.0) == []

    def test_latency_breach_forces_action_below_drift_threshold(self):
        # Mild skew: 0.6/0.4 shares put one unit out of place, which is
        # within the drift tolerance (allowed 2 of 8) — without an SLO
        # signal the plane leaves it alone.
        baseline = self._plane()
        for _ in range(10):
            baseline.observe_busy(0, 6.0)
            baseline.observe_busy(1, 4.0)
        assert baseline.epoch(10.0) == []

        slo = _StubSlo()
        slo.statuses = [self._status("p95_latency", "breach")]
        plane = self._plane(slo=slo)
        for _ in range(10):
            plane.observe_busy(0, 6.0)
            plane.observe_busy(1, 4.0)
        decisions = plane.epoch(10.0)
        assert len(decisions) == 1
        decision = decisions[0]
        assert decision.kind == "migrate"
        assert decision.reason.startswith("slo p95_latency breach:")
        assert decision.agent == 1 and decision.partner == 0

    def test_exhausted_budget_counts_as_hot(self):
        slo = _StubSlo()
        slo.statuses = [self._status("throughput", "exhausted")]
        plane = self._plane(slo=slo)
        for _ in range(10):
            plane.observe_busy(0, 6.0)
            plane.observe_busy(1, 4.0)
        decisions = plane.epoch(10.0)
        assert decisions and decisions[0].reason.startswith(
            "slo throughput breach:"
        )

    def test_pressure_valve_engages_and_releases(self):
        slo = _StubSlo()
        shedder = LoadShedder(bound=8, policy="tail")
        plane = self._plane(slo=slo, shedder=shedder)

        slo.statuses = [self._status("p95_latency", "breach")]
        engaged = plane.epoch(10.0)
        assert [d.kind for d in engaged] == ["shed"]
        assert "shed bound tightened to 4" in engaged[0].reason
        assert shedder.pressure is True
        # Still breaching: edge-triggered, no repeat decision.
        assert plane.epoch(11.0) == []

        # A recall breach means shedding is eating matches: release.
        slo.statuses = [self._status("recall", "breach")]
        released = plane.epoch(12.0)
        assert [d.kind for d in released] == ["shed"]
        assert "slo pressure released" in released[0].reason
        assert "shed bound restored to 8" in released[0].reason
        assert shedder.pressure is False

    def test_recall_breach_alone_never_tightens(self):
        slo = _StubSlo()
        shedder = LoadShedder(bound=8, policy="tail")
        plane = self._plane(slo=slo, shedder=shedder)
        slo.statuses = [self._status("recall", "breach")]
        assert plane.epoch(10.0) == []
        assert shedder.pressure is False

    def test_recall_breach_vetoes_pressure_under_latency_breach(self):
        # Both hot: tightening the shed bound would trade away even more
        # recall, so the valve stays open while the allocation still acts.
        slo = _StubSlo()
        shedder = LoadShedder(bound=8, policy="tail")
        plane = self._plane(slo=slo, shedder=shedder)
        slo.statuses = [
            self._status("p95_latency", "breach"),
            self._status("recall", "breach"),
        ]
        for _ in range(10):
            plane.observe_busy(0, 6.0)
            plane.observe_busy(1, 4.0)
        decisions = plane.epoch(10.0)
        assert shedder.pressure is False
        assert [d.kind for d in decisions] == ["migrate"]


def _bursty_workload():
    from repro.datasets import BurstyConfig, generate_bursty_stream

    config = BurstyConfig(
        symbols=("S0", "S1", "S2", "S3"),
        base_rate=40.0,
        num_phases=4,
        events_per_phase=120,
        seed=7,
    )
    return list(generate_bursty_stream(config))


_ADAPT_PACE_CACHE: dict[str, float] = {}


def _adaptive_run(strategy: str = "hypersonic"):
    # The pattern spans the bursty stream's symbol types, so the rotating
    # hot subset translates directly into per-agent load swings.  Pace is
    # derived from an unshedded reference run (as the bench does): fast
    # enough to overload, slow enough that work still flows.
    pattern = Pattern.sequence(["S0", "S1", "S2"], window=0.5)
    events = _bursty_workload()
    if strategy not in _ADAPT_PACE_CACHE:
        reference = simulate(strategy, pattern, events, num_cores=4)
        _ADAPT_PACE_CACHE[strategy] = 1.0 / max(
            1.5 * reference.throughput, 1e-12
        )
    return simulate(
        strategy, pattern, events, num_cores=4,
        adapt="on", shed_bound=8, shed_policy="pattern",
        pace=_ADAPT_PACE_CACHE[strategy],
    )


class TestControllerDeterminism:
    def test_decision_sequence_is_byte_identical(self):
        first = _adaptive_run()
        second = _adaptive_run()
        serial = [
            json.dumps(
                run.extra["control"]["decisions"], sort_keys=True
            ).encode()
            for run in (first, second)
        ]
        assert serial[0] == serial[1]
        assert first.extra["control"]["epochs"] == (
            second.extra["control"]["epochs"]
        )
        assert first.extra["shed"] == second.extra["shed"]
        assert first.matches == second.matches

    def test_adaptive_run_reports_control_extras(self):
        result = _adaptive_run()
        control = result.extra["control"]
        assert control["epochs"] > 0
        for decision in control["decisions"]:
            assert decision["kind"] in DECISION_KINDS
        shed = result.extra["shed"]
        assert shed["bound"] == 8
        assert shed["policy"] == "pattern"

    def test_adapt_without_shedding_preserves_matches(self):
        """Re-allocation/fusion alone must never change the match set."""
        pattern = Pattern.sequence(["A", "B", "C"], window=6.0)
        events = make_stream(num_events=400, seed=11)
        plain = simulate("hypersonic", pattern, events, num_cores=4)
        adapted = simulate(
            "hypersonic", pattern, events, num_cores=4, adapt="on"
        )
        assert adapted.matches == plain.matches
        assert "shed" not in adapted.extra or (
            adapted.extra["shed"]["total"] == 0
        )


class TestAdaptOffGoldenParity:
    """``adapt="off"`` must be bit-identical to the frozen goldens."""

    @pytest.fixture(scope="class")
    def goldens(self):
        return json.loads(Path(GOLDEN_PATH).read_text(encoding="utf-8"))

    @pytest.mark.parametrize("strategy", ["hypersonic", "state"])
    def test_adapt_off_matches_golden(self, goldens, strategy):
        kwargs = {"agent_dynamic": True} if strategy == "hypersonic" else {}
        result = simulate(
            strategy, golden_pattern(), golden_workload(),
            num_cores=NUM_CORES, adapt="off", shed_bound=0, **kwargs
        )
        assert result_payload(result) == goldens["closed_loop"][strategy]


class TestRunnerValidation:
    def test_invalid_adapt_value_rejected(self):
        pattern = Pattern.sequence(["A", "B"], window=4.0)
        with pytest.raises(SimulationError):
            simulate("hypersonic", pattern, [], num_cores=2, adapt="maybe")

    def test_negative_shed_bound_rejected(self):
        pattern = Pattern.sequence(["A", "B"], window=4.0)
        with pytest.raises(SimulationError):
            simulate("hypersonic", pattern, [], num_cores=2, shed_bound=-1)

    @pytest.mark.parametrize("strategy", ["sequential", "rip", "llsf"])
    def test_adaptation_requires_agent_chain(self, strategy):
        pattern = Pattern.sequence(["A", "B"], window=4.0)
        with pytest.raises(SimulationError):
            simulate(strategy, pattern, [], num_cores=2, adapt="on")
        with pytest.raises(SimulationError):
            simulate(strategy, pattern, [], num_cores=2, shed_bound=4)


class TestNegationGuardShedding:
    """The shedder must never starve a negation guard, end to end.

    Unit coverage of ``guard_types`` lives in :class:`TestLoadShedder`;
    this exercises the real wiring — a compiled NEG pattern's guards flow
    from :class:`~repro.core.nfa.ChainNFA` through the simulated agents
    into the shedder's exempt set without any manual configuration.
    """

    @pytest.fixture(scope="class")
    def shed_run(self):
        pattern = Pattern.sequence(
            ["A", "X", "C"], window=6.0,
            names=["p1", "p2", "p3"], negated=[1],
        )
        events = make_stream(num_events=800, seed=5)
        return pattern, simulate(
            "hypersonic", pattern, events, num_cores=4,
            shed_bound=1, shed_policy="pattern",
        )

    def test_shedding_engaged(self, shed_run):
        _, result = shed_run
        assert result.extra["shed"]["total"] > 0

    def test_negated_type_never_shed(self, shed_run):
        _, result = shed_run
        assert "X" not in result.extra["shed"]["by_type"]

    def test_positive_types_carry_the_cuts(self, shed_run):
        pattern, result = shed_run
        positive = {item.event_type.name for item in pattern.items}
        assert set(result.extra["shed"]["by_type"]) <= positive
