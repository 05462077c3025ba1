"""Tests for the wall-clock multiprocessing backend.

Fast, deterministic pieces (slicing, pickling, constructor validation)
run in tier-1.  Anything that spawns real worker processes or reads real
clocks is marked ``wallclock`` and runs in CI's dedicated smoke job (3x,
as a flakiness guard) — match-key sets are still exact there; only the
timings vary.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tests.conftest import make_stream, reference_matches
from repro.core import Event, EventType, Pattern
from repro.core.errors import EngineError, PatternError
from repro.core.matches import Match, PartialMatch
from repro.datasets.stocks import StockConfig, generate_stock_stream
from repro.datasets.trips import TripConfig, generate_trip_stream
from repro.hypersonic.items import ItemKind, WorkItem
from repro.obs.tracer import TraceEvent, TraceRecorder
from repro.runtime.procs import (
    ProcsPipelineEngine,
    agent_slices,
    partial_size,
)
from repro.workloads.queries import (
    sensor_sequence_query,
    stock_sequence_query,
    trip_sequence_query,
)


def stock_case(num_events: int = 400, seed: int = 21):
    events = generate_stock_stream(StockConfig(
        num_events=num_events,
        symbols=("S0", "S1", "S2", "S3"),
        rates=0.6,
        seed=seed,
    ))
    spec = stock_sequence_query(
        ("S0", "S1", "S2"), 20.0, events[:200], selectivity=0.3
    )
    return spec.pattern, events


def trip_case(num_trips: int = 120, seed: int = 4):
    events = generate_trip_stream(TripConfig(
        num_trips=num_trips, num_bikes=6, seed=seed,
    ))
    return trip_sequence_query(40.0).pattern, events


# --------------------------------------------------------------------- #
# Tier-1: deterministic pieces, no processes                             #
# --------------------------------------------------------------------- #


class TestAgentSlices:
    def test_covers_all_agents_contiguously(self):
        for num_agents in range(1, 9):
            for procs in range(1, 12):
                slices = agent_slices(num_agents, procs)
                assert slices[0][0] == 0
                assert slices[-1][1] == num_agents
                for (_, hi), (lo, _) in zip(slices, slices[1:]):
                    assert hi == lo

    def test_near_equal_split(self):
        slices = agent_slices(7, 3)
        sizes = [hi - lo for lo, hi in slices]
        assert sizes == [3, 2, 2]

    def test_procs_capped_at_num_agents(self):
        assert len(agent_slices(2, 8)) == 2

    def test_rejects_zero_agents(self):
        with pytest.raises(EngineError):
            agent_slices(0, 2)


class TestPartialSize:
    def test_counts_scalar_and_kleene_bindings(self):
        a = Event(EventType("A"), 1.0, {})
        b1 = Event(EventType("B"), 2.0, {})
        b2 = Event(EventType("B"), 3.0, {})
        partial = PartialMatch(
            binding={"p1": a, "p2": (b1, b2)}, earliest=1.0, latest=3.0
        )
        assert partial_size(partial) == 3


class TestPickleRoundTrips:
    """Everything a worker boundary ships must survive pickling intact —
    the substrate of spawn-mode correctness."""

    def test_event_round_trip(self):
        event = Event(EventType("A"), 1.5, {"x": 3}, payload_size=64)
        clone = pickle.loads(pickle.dumps(event))
        assert clone == event
        assert clone.attributes == event.attributes

    def test_partial_match_round_trip(self):
        a = Event(EventType("A"), 1.0, {"x": 1})
        b = Event(EventType("B"), 2.0, {"x": 2})
        partial = PartialMatch.of("p1", a).extended("p2", b)
        clone = pickle.loads(pickle.dumps(partial))
        assert clone.binding["p1"] == a
        assert clone.earliest == partial.earliest
        assert clone.latest == partial.latest

    def test_match_round_trip_preserves_key(self):
        a = Event(EventType("A"), 1.0, {})
        partial = PartialMatch.of("p1", a)
        match = Match.from_partial(partial, detected_at=1.0)
        assert pickle.loads(pickle.dumps(match)).key == match.key

    def test_work_item_round_trip(self):
        item = WorkItem(ItemKind.EVENT, Event(EventType("A"), 1.0, {}))
        clone = pickle.loads(pickle.dumps(item))
        assert clone.kind is ItemKind.EVENT
        assert clone.payload.timestamp == 1.0

    def test_trace_event_round_trip(self):
        event = TraceEvent("unit_busy", 0.5, dur=0.1, unit=1, agent=1,
                           args={"role": "event", "item": "event"})
        assert pickle.loads(pickle.dumps(event)) == event

    def test_stock_and_trip_patterns_picklable(self):
        for pattern in (stock_case()[0], trip_case()[0]):
            clone = pickle.loads(pickle.dumps(pattern))
            assert clone.describe() == pattern.describe()


class TestConstructorValidation:
    def test_rejects_non_seq_pattern(self):
        with pytest.raises(PatternError):
            ProcsPipelineEngine(Pattern.conjunction(["A", "B"], window=5.0))

    def test_rejects_single_stage(self):
        with pytest.raises(PatternError):
            ProcsPipelineEngine(Pattern.sequence(["A"], window=5.0))

    @pytest.mark.parametrize("kwargs", [
        {"procs": 0},
        {"queue_capacity": 0},
        {"batch_size": 0},
        {"wm_interval": 0},
    ])
    def test_rejects_nonpositive_knobs(self, kwargs):
        pattern = Pattern.sequence(["A", "B", "C"], window=5.0)
        with pytest.raises(EngineError):
            ProcsPipelineEngine(pattern, **kwargs)

    def test_spawn_rejects_closure_conditions_with_clear_error(self):
        # Sensor queries close over a lambda-style predicate; under spawn
        # the pattern must be pickled, so the engine fails fast with a
        # message naming the cause instead of dying inside a worker.
        from repro.datasets.sensors import SensorConfig, generate_sensor_stream

        sample = generate_sensor_stream(SensorConfig(num_events=300, seed=2))
        types = sorted({event.type.name for event in sample})[:3]
        spec = sensor_sequence_query(tuple(types), 10.0, sample)
        engine = ProcsPipelineEngine(spec.pattern, start_method="spawn")
        with pytest.raises(EngineError, match="picklable"):
            engine.run(sample[:10])

    def test_run_only_once(self):
        pattern = Pattern.sequence(["A", "B", "C"], window=5.0)
        engine = ProcsPipelineEngine(pattern, procs=1)
        engine._ran = True
        with pytest.raises(EngineError):
            engine.run([])


# --------------------------------------------------------------------- #
# Wall-clock: real worker processes                                      #
# --------------------------------------------------------------------- #


GRID = [
    pytest.param(case, batch, method,
                 id=f"{case}-batch{batch}-{method}")
    for case in ("stocks", "trips")
    for batch in (1, 16)
    for method in ("fork", "spawn")
]


@pytest.mark.wallclock
class TestDifferential:
    """Acceptance grid: the procs backend's match-key set is identical to
    the sequential engine on stocks + trips, batch 1 and 16, under both
    fork and spawn."""

    @pytest.mark.parametrize("case,batch,method", GRID)
    def test_match_key_parity(self, case, batch, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method} unavailable")
        pattern, events = stock_case() if case == "stocks" else trip_case()
        want = {m.key for m in reference_matches(pattern, events)}
        engine = ProcsPipelineEngine(
            pattern, procs=2, batch_size=batch, start_method=method,
        )
        got = {m.key for m in engine.run(events, timeout=120.0)}
        assert got == want

    def test_negation_parity(self):
        pattern = Pattern.sequence(
            ["A", "X", "B", "C"], window=6.0, negated=[1]
        )
        events = make_stream(num_events=300, seed=5)
        want = {m.key for m in reference_matches(pattern, events)}
        engine = ProcsPipelineEngine(pattern, procs=3)
        got = {m.key for m in engine.run(events, timeout=120.0)}
        assert got == want

    def test_kleene_parity(self):
        pattern = Pattern.sequence(
            ["A", "B", "C"], window=5.0, kleene=[1]
        )
        events = make_stream(num_events=250, seed=8)
        want = {m.key for m in reference_matches(pattern, events)}
        engine = ProcsPipelineEngine(pattern, procs=2)
        got = {m.key for m in engine.run(events, timeout=120.0)}
        assert got == want


ROOT = Path(__file__).resolve().parent.parent

#: A two-worker procs run long enough to be killed midway, on little CPU:
#: one stage's predicate sleeps, and small inboxes keep the backlog short.
ORPHAN_RUN = """
import sys
import time
from repro.core import Pattern
from repro.core.conditions import UnaryCondition
from repro.runtime.procs import ProcsPipelineEngine
from tests.conftest import make_stream

position, pause = sys.argv[1], float(sys.argv[2])

def slow(event):
    time.sleep(pause)
    return True

pattern = Pattern.sequence(["A", "B", "C"], window=20.0,
                           condition=UnaryCondition(position, slow))
engine = ProcsPipelineEngine(pattern, procs=2, queue_capacity=8,
                             start_method="fork")
engine.run(make_stream(num_events=4000, seed=3), timeout=600.0)
"""


def _proc_stat(pid: int) -> tuple[str, int] | None:
    """(state, parent pid) of a live process, from ``/proc``."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    state, ppid = text[text.rindex(")") + 2:].split()[:2]
    return state, int(ppid)


def _children(pid: int) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            stat = _proc_stat(int(entry.name))
            if stat is not None and stat[1] == pid:
                found.append(int(entry.name))
    return found


def _running(pid: int) -> bool:
    """Alive and not a zombie (an orphan's reaper may be slow or absent)."""
    stat = _proc_stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


@pytest.mark.wallclock
class TestRobustness:
    @pytest.mark.skipif(
        not Path("/proc/self/stat").exists()
        or "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs /proc and the fork start method",
    )
    @pytest.mark.parametrize("position,pause", [
        # Slow downstream worker: both find their inboxes empty.
        ("p3", "0.002"),
        # Slow upstream worker: the downstream one exits first, and the
        # upstream one blocks forwarding into its full inbox.
        ("p2", "0.03"),
    ])
    def test_workers_exit_when_parent_is_killed(self, position, pause):
        env = dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}")
        helper = subprocess.Popen(
            [sys.executable, "-c", ORPHAN_RUN, position, pause],
            env=env, cwd=ROOT,
        )
        workers: list[int] = []
        try:
            deadline = time.monotonic() + 60.0
            while len(workers) < 2 and time.monotonic() < deadline:
                assert helper.poll() is None, "the helper run ended early"
                time.sleep(0.05)
                workers = _children(helper.pid)
            assert len(workers) == 2
            time.sleep(1.0)
            assert helper.poll() is None, "the run ended before the kill"
            helper.kill()
            helper.wait()
            deadline = time.monotonic() + 5.0
            while any(map(_running, workers)) \
                    and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in workers if _running(pid)]
        finally:
            helper.kill()
            helper.wait()
            for pid in workers:
                if _running(pid):
                    os.kill(pid, signal.SIGKILL)

    def test_worker_crash_raises_clean_error(self):
        pattern, events = stock_case()
        engine = ProcsPipelineEngine(pattern, procs=2,
                                     _crash_worker=(1, 5))
        with pytest.raises(EngineError, match="worker process"):
            engine.run(events, timeout=60.0)

    def test_crash_in_first_worker_detected_too(self):
        pattern, events = stock_case()
        engine = ProcsPipelineEngine(pattern, procs=2,
                                     _crash_worker=(0, 3))
        with pytest.raises(EngineError, match="worker process"):
            engine.run(events, timeout=60.0)

    def test_no_leaked_children_after_run(self):
        pattern, events = stock_case(num_events=200)
        engine = ProcsPipelineEngine(pattern, procs=2)
        engine.run(events, timeout=60.0)
        assert multiprocessing.active_children() == []

    def test_no_leaked_children_after_crash(self):
        pattern, events = stock_case(num_events=200)
        engine = ProcsPipelineEngine(pattern, procs=2,
                                     _crash_worker=(1, 5))
        with pytest.raises(EngineError):
            engine.run(events, timeout=60.0)
        for child in multiprocessing.active_children():
            child.join(timeout=5.0)
        assert multiprocessing.active_children() == []


@pytest.mark.wallclock
class TestMeasuredTrace:
    def test_trace_schema_and_fitting(self):
        from repro.costmodel.fitting import fit_from_trace
        from repro.obs.calibration import calibration_report

        pattern, events = stock_case(num_events=600)
        tracer = TraceRecorder()
        engine = ProcsPipelineEngine(pattern, procs=2, tracer=tracer)
        engine.run(events, timeout=120.0)

        kinds = {event.kind for event in tracer.events}
        assert "alloc_plan" in kinds and "unit_busy" in kinds
        spans = [e for e in tracer.events if e.kind == "unit_busy"]
        assert all(e.dur >= 0.0 and e.ts >= 0.0 for e in spans)
        # The measured trace replays through the same analysis passes as
        # a simulated one.
        report = calibration_report(tracer.events)
        assert report is not None
        fit = fit_from_trace(tracer)
        assert fit is not None
        params = fit.parameters.as_dict()
        assert params["comm_event"] >= 0.0
        assert params["comm_match"] >= 0.0
        assert params["comm_event"] == params["comm_event"]  # not NaN
        assert params["comm_match"] == params["comm_match"]

    def test_result_carries_comm_volumes(self):
        pattern, events = stock_case(num_events=300)
        engine = ProcsPipelineEngine(pattern, procs=2)
        engine.run(events, timeout=60.0)
        comm = engine.result.extra["comm"]
        assert sum(comm["events_in"]) > 0
        assert sum(comm["match_pointers_in"]) > 0
        # The last agent never forwards over IPC.
        assert comm["match_pointers_out"][-1] == 0


@pytest.mark.wallclock
class TestRunnerIntegration:
    def test_simulate_backend_procs(self):
        from repro.simulator import simulate

        pattern, events = stock_case(num_events=300)
        result = simulate(
            "hypersonic", pattern, events, num_cores=2, backend="procs",
        )
        assert result.extra["backend"] == "procs"
        assert result.matches == len(
            reference_matches(pattern, events)
        )

    def test_wallclock_scenario_reports_parity(self):
        from repro.bench.wallclock import run_wallclock

        report = run_wallclock(num_events=800, procs=2)
        assert report.match_parity
        assert report.fitted_comm is None or (
            report.fitted_comm["comm_event"] >= 0.0
            and report.fitted_comm["comm_match"] >= 0.0
        )
