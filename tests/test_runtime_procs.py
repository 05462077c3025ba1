"""Tests for the wall-clock multiprocessing backend.

Fast, deterministic pieces (slicing, the parent's batching, pickling,
constructor validation) run in tier-1.  Anything that spawns real worker
processes or reads real clocks is marked ``wallclock`` and runs in CI's
dedicated smoke job (3x, as a flakiness guard) — match-key sets are still
exact there; only the timings vary.
"""

from __future__ import annotations

import dataclasses
import math
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
from repro.bench.harness import (
    DEFAULT_SCALE,
    BenchScale,
    build_query,
    stock_events,
)
from repro.core import Event, EventType, Pattern
from repro.core.conditions import UnaryCondition
from repro.core.errors import EngineError, PatternError
from repro.core.matches import Match, PartialMatch
from repro.core.nfa import compile_pattern
from repro.datasets.stocks import StockConfig, generate_stock_stream
from repro.datasets.trips import TripConfig, generate_trip_stream
from repro.hypersonic.agent import AgentCore, guard_type_names
from repro.hypersonic.items import ItemKind, WorkItem
from repro.obs.tracer import TraceEvent, TraceRecorder
from repro.runtime.procs import (
    ProcsPipelineEngine,
    agent_slices,
    partial_size,
    route_batches,
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


def bench_stock_case():
    """The bench's stock stream at 2,000 events with its length-3 query:
    enough matches that the parity check covers real forwarding load."""
    scale = BenchScale(num_events=2000)
    events = stock_events(scale)
    return build_query("stocks", "seq", 3, 30.0, events, scale).pattern, events


CASES = {"stocks": stock_case, "trips": trip_case,
         "bench_stocks": bench_stock_case}


def stocks_negation_case():
    """The benchmark's 2,000-event stock stream with Q_A3: one internal
    negation guard on a three-agent chain, so two workers split it and the
    guard's agent sits downstream of the first worker's partials."""
    events = generate_stock_stream(StockConfig(
        num_events=2000,
        symbols=tuple(f"S{i}" for i in range(8)),
        rates=DEFAULT_SCALE.per_type_rate,
        seed=42,
    ))
    spec = build_query("stocks", "negation", 4, 40.0, events,
                       BenchScale(num_events=2000, seed=42))
    return spec.pattern, events


def _lag(event) -> bool:
    time.sleep(0.0005)
    return True


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

    def test_every_field_survives(self):
        event = Event(EventType("A", ("x",)), 1.5, {"x": [1, 2]},
                      event_id=123_456, payload_size=96)
        clone = pickle.loads(pickle.dumps(event))
        assert [getattr(clone, f.name) for f in dataclasses.fields(Event)] \
            == [getattr(event, f.name) for f in dataclasses.fields(Event)]
        assert (clone.type.attributes, clone.payload_size) == (("x",), 96)
        partial = PartialMatch(binding={"p1": event, "p2": (event,)},
                               earliest=1.5, latest=2.5)
        clone = pickle.loads(pickle.dumps(partial))
        assert (clone.earliest, clone.latest) == (1.5, 2.5)
        assert clone.binding == partial.binding
        assert clone.binding["p2"][0] is clone.binding["p1"]

    def test_shared_event_stays_one_object(self):
        # Pickle state is a plain tuple; the memo still makes one event
        # bound by two partials one object after one loads.
        shared = Event(EventType("A"), 1.0, {"x": 1})
        first = PartialMatch.of("p1", shared)
        second = first.extended("p2", Event(EventType("B"), 2.0, {"x": 2}))
        left, right = pickle.loads(pickle.dumps([first, second]))
        assert left.binding["p1"] is right.binding["p1"]
        assert left.binding["p1"] == shared

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


def tied(events: list[Event]) -> list[Event]:
    """*events* with timestamps on a half-unit grid: runs of equal
    timestamps, so watermark ties are common."""
    return [Event(e.type, math.floor(e.timestamp * 2) / 2, e.attributes)
            for e in events]


ROUTED_PATTERNS = {
    # Three agents; the middle one enforces the guard.
    "negation": Pattern.sequence(["A", "B", "X", "C", "D"], window=6.0,
                                 negated=[2]),
    "kleene": Pattern.sequence(["A", "B", "C"], window=5.0, kleene=[1]),
}


class TestRouteBatches:
    """The parent's batching, without processes: what each inbox gets, and
    the watermark that comes with it."""

    @staticmethod
    def expected_items(nfa, slices, stream):
        """``(proc, local, kind, stream index)`` of every routed item, from
        the stages' types and guards alone."""
        stages = nfa.stages
        num_agents = len(stages) - 1
        host = {agent: (proc, agent - lo)
                for proc, (lo, hi) in enumerate(slices)
                for agent in range(lo, hi)}
        items = []
        for index, event in enumerate(stream):
            name = event.type.name
            if name == stages[0].event_type_name \
                    and stages[0].accepts(PartialMatch.empty(), event):
                items.append((0, 0, ItemKind.MATCH, index))
            for agent in range(num_agents):
                proc, local = host[agent]
                if name == stages[agent + 1].event_type_name:
                    items.append((proc, local, ItemKind.EVENT, index))
                if name in guard_type_names(stages, agent + 1,
                                            agent == num_agents - 1):
                    items.append((proc, local, ItemKind.GUARD, index))
        return items

    @pytest.mark.parametrize("wm_interval", [64, 7])
    @pytest.mark.parametrize("procs", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(ROUTED_PATTERNS))
    def test_batches(self, name, procs, wm_interval):
        nfa = compile_pattern(ROUTED_PATTERNS[name])
        slices = agent_slices(nfa.num_stages - 1, procs)
        stream = tied(make_stream(num_events=1949, seed=5))
        position = {event.event_id: index
                    for index, event in enumerate(stream)}
        messages = list(route_batches(nfa, slices, stream, wm_interval))

        # One message per inbox per tick, empty or not: every
        # wm_interval events and once for the tail (1,949 events at 64
        # make 31 ticks).
        ticks = -(-len(stream) // wm_interval)
        assert [proc for proc, _, _ in messages] \
            == list(range(len(slices))) * ticks
        for tick in range(ticks):
            seen = stream[:(tick + 1) * wm_interval]
            for proc, _, watermark in \
                    messages[tick * len(slices):(tick + 1) * len(slices)]:
                assert watermark == max(e.timestamp for e in seen)

        seed_position = nfa.stages[0].item.name

        def routed_event(kind, payload):
            if kind is ItemKind.MATCH:
                event = payload.binding[seed_position]
                assert payload == PartialMatch.of(seed_position, event)
                return event
            return payload

        got = [
            (proc, local, kind, position[routed_event(kind, payload).event_id])
            for proc, items, _ in messages
            for local, kind, payload in items
        ]
        # Every routed (event, agent, role) exactly once ...
        want = self.expected_items(nfa, slices, stream)
        assert len(got) == len(set(got)) == len(want)
        assert set(got) == set(want)
        for proc in range(len(slices)):
            inbox = [(
                [routed_event(kind, payload) for _, kind, payload in items],
                watermark,
            ) for to, items, watermark in messages if to == proc]
            # ... in stream order per inbox.
            order = [position[e.event_id] for events, _ in inbox
                     for e in events]
            assert order == sorted(order)
            previous = float("-inf")
            for events, watermark in inbox:
                stamps = [e.timestamp for e in events]
                # A batch's watermark covers the batch and never falls.
                assert all(ts <= watermark for ts in stamps)
                assert watermark >= previous
                # No item, guard candidates included, comes after a
                # watermark that passed it.  Ties with the watermark may
                # follow: a quarantine waits until the watermark is past
                # its release point.
                assert all(ts >= previous for ts in stamps)
                previous = watermark


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
    for case in CASES
    for batch in (1, 16)
    for method in ("fork", "spawn")
]


@pytest.mark.wallclock
class TestDifferential:
    """Acceptance grid: the procs backend's match-key set is identical to
    the sequential engine on every case, batch 1 and 16, under both fork
    and spawn."""

    @pytest.mark.parametrize("case,batch,method", GRID)
    def test_match_key_parity(self, case, batch, method):
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method} unavailable")
        pattern, events = CASES[case]()
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

    @pytest.mark.parametrize("batch,method", [
        pytest.param(batch, method, id=f"batch{batch}-{method}")
        for batch in (1, 64)
        for method in ("fork", "spawn")
    ])
    def test_stocks_negation_parity(self, batch, method):
        # The parent routes events to the guard's worker far ahead of the
        # partial matches the first worker forwards; the guard events
        # those late partials need must still be buffered.
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"start method {method} unavailable")
        pattern, events = stocks_negation_case()
        want = {m.key for m in reference_matches(pattern, events)}
        engine = ProcsPipelineEngine(
            pattern, procs=2, batch_size=batch, start_method=method,
        )
        got = {m.key for m in engine.run(events, timeout=120.0)}
        assert got == want

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="the lagging predicate is a closure")
    @pytest.mark.parametrize("batch", (1, 64))
    def test_negation_parity_with_lagging_upstream(self, batch):
        # Every B comparison sleeps, so worker 0 always lags the parent
        # and worker 1 sees its guard events long before the partials.
        pattern = Pattern.sequence(
            ["A", "B", "X", "C"], window=6.0, negated=[2],
            condition=UnaryCondition("p2", _lag),
        )
        events = make_stream(num_events=600, seed=5)
        want = {m.key for m in reference_matches(pattern, events)}
        engine = ProcsPipelineEngine(
            pattern, procs=2, batch_size=batch, start_method="fork",
        )
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

    @pytest.mark.skipif(
        not Path("/proc/self/stat").exists()
        or "fork" not in multiprocessing.get_all_start_methods(),
        reason="needs /proc and the fork start method",
    )
    def test_worker_exits_mid_backlog_when_parent_is_killed(self,
                                                            monkeypatch):
        # Default-sized inboxes: the slow downstream worker has taken in
        # batches worth seconds of work when the parent dies, so it must
        # notice between items, not only once its inbox runs dry.
        monkeypatch.setitem(globals(), "ORPHAN_RUN", ORPHAN_RUN.replace(
            "queue_capacity=8", "queue_capacity=1024"
        ))
        self.test_workers_exit_when_parent_is_killed("p3", "0.002")

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


def slow_down(monkeypatch, agent_index: int, after: int,
              pause: float) -> None:
    """Make the agent at *agent_index* sleep *pause* seconds before each
    item from its *after*-th on.  Patched before the run, so ``fork``
    workers inherit it; the program has no hook for this."""
    process = AgentCore.process

    def slowed(self, item, unit_id):
        if self.agent_index == agent_index \
                and self.items_processed >= after:
            time.sleep(pause)
        return process(self, item, unit_id)

    monkeypatch.setattr(AgentCore, "process", slowed)


@pytest.mark.wallclock
@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="workers inherit the injected fault under fork")
class TestFaultInjection:
    @pytest.mark.parametrize("agent_index", [0, 1],
                             ids=["first-worker", "last-worker"])
    def test_stalled_worker_raises_within_timeout(self, agent_index,
                                                  monkeypatch):
        # Each worker hosts one agent; the stalled one never finishes.
        pattern, events = stock_case()
        slow_down(monkeypatch, agent_index, after=20, pause=60.0)
        engine = ProcsPipelineEngine(pattern, procs=2, start_method="fork")
        timeout = 2.0
        started = time.monotonic()
        with pytest.raises(EngineError, match="in time"):
            engine.run(events, timeout=timeout)
        assert time.monotonic() - started < timeout + 1.0
        assert multiprocessing.active_children() == []

    def test_slow_last_agent_under_backpressure(self, monkeypatch):
        # One-message inboxes: the parent and the first worker block on
        # the last worker's inbox for most of the run.
        pattern, events = bench_stock_case()
        want = {m.key for m in reference_matches(pattern, events)}
        slow_down(monkeypatch, 1, after=0, pause=0.002)
        engine = ProcsPipelineEngine(pattern, procs=2, queue_capacity=64,
                                     wm_interval=64, start_method="fork")
        got = {m.key for m in engine.run(events, timeout=120.0)}
        assert got == want
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

    def test_obs_summary_only_from_recorded_events(self):
        from repro.obs import MetricsTracer

        pattern, events = stock_case(num_events=300)
        recorder = TraceRecorder()
        engine = ProcsPipelineEngine(pattern, procs=2, tracer=recorder)
        engine.run(events, timeout=60.0)
        obs = engine.result.extra["obs"]
        assert obs["events_recorded"] == len(recorder.events) > 0

        metrics = MetricsTracer()
        engine = ProcsPipelineEngine(pattern, procs=2, tracer=metrics)
        engine.run(events, timeout=60.0)
        assert "obs" not in engine.result.extra
        assert metrics.registry.to_json()["sim_unit_busy_work_total"]

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
@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
class TestCliIntegration:
    def test_simulate_backend_procs_reports_the_sequential_matches(
        self, tmp_path, capsys
    ):
        from repro.cli import main

        csv = tmp_path / "stocks.csv"
        trace = tmp_path / "trace.jsonl"
        query = ["stocks", str(csv), "--length", "3", "--window", "20",
                 "--selectivity", "0.4"]
        main(["generate", "stocks", str(csv), "--events", "600",
              "--types", "4", "--seed", "3"])
        assert main(["detect", *query, "--engine", "sequential"]) == 0
        out = capsys.readouterr().out
        expected = int(
            next(line for line in out.splitlines() if "matches" in line)
            .split()[0]
        )
        assert main([
            "simulate", *query, "--strategies", "hypersonic",
            "--backend", "procs", "--procs", "2", "--start-method", "fork",
            "--trace-jsonl", str(trace),
        ]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split()
        assert row[0] == "hypersonic"
        assert expected > 0 and int(row[-1]) == expected
        assert trace.stat().st_size > 0
