"""Tests for the terminal dashboard (repro.obs.dashboard) and its wiring.

The load-bearing guarantees:

* the frame renderer is pure and deterministic — the golden final frame
  is regenerable byte-for-byte (``make_sim_goldens.py --which dashboard``);
* a live run's dashboard and a replay of its recorded JSONL trace agree
  byte for byte (what makes ``repro watch`` a faithful post-hoc view);
* attaching a dashboard never changes simulation results;
* ``render_frame`` survives arbitrary snapshot garbage without exceeding
  the requested geometry or emitting control bytes;
* truncated JSONL traces (killed runs) degrade to a warning, not a crash.
"""

import io
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from tests.conftest import make_stream
from repro.cli import main
from repro.core import Pattern
from repro.obs import (
    DashboardTracer,
    TraceRecorder,
    final_frame,
    read_jsonl,
    render_frame,
    replay_frames,
    write_jsonl,
)
from repro.obs.dashboard import DECISION_LOG, Dashboard, DashboardState
from repro.obs.tracer import TraceEvent, TraceKind
from repro.simulator import simulate

PATTERN = Pattern.sequence(["A", "B", "C"], window=6.0)
GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_dashboard_frame.txt"


def tiny_events():
    return make_stream(num_events=30, seed=9)


def multi_burst_events():
    """Enough items to cross the kernel's 128-item snapshot cadence a few
    times, so traces replay as several frames, not just the final one."""
    return make_stream(num_events=300, seed=7)


def record_run(strategy: str, **kwargs) -> TraceRecorder:
    tracer = TraceRecorder()
    simulate(strategy, PATTERN, tiny_events(), num_cores=3, tracer=tracer,
             **kwargs)
    return tracer


class TestRenderFrame:
    def test_empty_snapshot_renders(self):
        frame = render_frame({}, None)
        assert "repro dashboard" in frame
        assert "(no samples yet)" in frame

    def test_rejects_degenerate_geometry(self):
        with pytest.raises(ValueError):
            render_frame({}, None, width=0)
        with pytest.raises(ValueError):
            render_frame({}, None, height=0)

    def test_deterministic(self):
        tracer = record_run("hypersonic", agent_dynamic=True)
        state = DashboardState(strategy="hypersonic")
        for event in tracer.events:
            state.observe(event)
        first = render_frame(state.snapshot(), state.plan)
        second = render_frame(state.snapshot(), state.plan)
        assert first == second

    def test_drift_indicator_present(self):
        tracer = record_run("hypersonic", agent_dynamic=True)
        frame = final_frame(tracer.events, strategy="hypersonic")
        assert "pred" in frame and "drift" in frame
        assert any(mark in frame for mark in (" ok", " !", " !!"))

    def test_height_clamp_appends_marker(self):
        snapshot = {
            "now": 10.0,
            "agents": {
                index: {"busy": 1.0, "depth": 1, "depth_history": [1]}
                for index in range(40)
            },
        }
        frame = render_frame(snapshot, None, width=60, height=10)
        lines = frame.split("\n")
        assert len(lines) == 10
        assert "more lines" in lines[-1]


class TestGoldenFrame:
    def test_final_frame_matches_golden(self, tmp_path):
        # Same construction as make_sim_goldens.py --which dashboard:
        # tiny traced run -> JSONL round-trip -> final frame.
        tracer = record_run("hypersonic")
        path = tmp_path / "tiny.jsonl"
        write_jsonl(str(path), tracer)
        frame = final_frame(read_jsonl(str(path)), strategy="hypersonic")
        assert frame + "\n" == GOLDEN.read_text(encoding="utf-8")

    def test_replay_frames_deterministic(self, tmp_path):
        tracer = TraceRecorder()
        simulate("hypersonic", PATTERN, multi_burst_events(), num_cores=3,
                 tracer=tracer)
        path = tmp_path / "tiny.jsonl"
        write_jsonl(str(path), tracer)
        events = read_jsonl(str(path))
        first = replay_frames(events, strategy="x")
        second = replay_frames(events, strategy="x")
        assert first == second
        assert len(first) > 1  # intermediate frames, not just the final one


class TestSloAndDecisionPanes:
    def _adaptive_slo_events(self):
        recorder = TraceRecorder()
        recorder.alloc_plan(0.0, [2, 1], [1.0, 1.0], "proportional")
        recorder.unit_busy(0.5, 1.0, unit=0, agent=0, role="mb1",
                           item_kind="event")
        recorder.replan(4.0, "migrate", [1, 2],
                        "drift moves 1 > allowed 1", epoch=2,
                        agent=0, partner=1)
        recorder.replan(6.0, "shed", [1, 2],
                        "backlog 20 past hard ceiling (bound 8)", epoch=3)
        recorder.slo(5.0, "recall", 0.5, 0.9, False, 1.25)
        recorder.slo(5.0, "p95_latency", 3.0, 10.0, True, 0.0)
        return recorder.events

    def test_panes_render_from_trace_events(self):
        state = DashboardState(strategy="hypersonic")
        for event in self._adaptive_slo_events():
            state.observe(event)
        frame = render_frame(state.snapshot(), state.plan)
        assert "decisions (newest last):" in frame
        assert "[migrate]" in frame and "[shed]" in frame
        assert "drift moves 1 > allowed 1" in frame
        assert "slo recall" in frame and "BREACH" in frame
        assert "slo p95_latency" in frame and " ok" in frame

    def test_snapshot_carries_decision_log_and_slo(self):
        state = DashboardState(strategy="hypersonic")
        for event in self._adaptive_slo_events():
            state.observe(event)
        snapshot = state.snapshot()
        log = snapshot["dynamics"]["decision_log"]
        assert [entry["decision"] for entry in log] == ["migrate", "shed"]
        assert log[0]["epoch"] == 2 and log[0]["agent"] == 0
        assert snapshot["slo"]["recall"]["ok"] is False
        assert snapshot["slo"]["recall"]["burn"] == 1.25

    def test_decision_log_keeps_the_trailing_window(self):
        state = DashboardState(strategy="x")
        recorder = TraceRecorder()
        for index in range(DECISION_LOG + 5):
            recorder.replan(float(index), "migrate", [1, 1], f"r{index}")
        for event in recorder.events:
            state.observe(event)
        log = state.snapshot()["dynamics"]["decision_log"]
        assert len(log) == DECISION_LOG
        assert log[-1]["reason"] == f"r{DECISION_LOG + 4}"

    def test_non_adaptive_frames_carry_neither_pane(self):
        tracer = record_run("hypersonic")
        frame = final_frame(tracer.events, strategy="hypersonic")
        assert "decisions (newest last):" not in frame
        assert "slo " not in frame

    def test_live_final_frame_equals_replay_with_slo_events(self, tmp_path):
        from repro.obs import SloSpec

        live = DashboardTracer(inner=TraceRecorder(), strategy="hypersonic")
        simulate(
            "hypersonic", PATTERN, multi_burst_events(), num_cores=3,
            tracer=live,
            slos=[SloSpec("throughput", bound=0.1, window=5.0)],
        )
        path = tmp_path / "slo.jsonl"
        write_jsonl(str(path), live)
        events = read_jsonl(str(path))
        assert any(e.kind == TraceKind.SLO for e in events)
        replayed = final_frame(events, strategy="hypersonic")
        assert live.final_frame() == replayed
        assert "slo throughput" in replayed


class TestOneFeed:
    """Live and replayed events reach ``DashboardState.observe`` alike,
    whatever plan or control kinds the run records."""

    @pytest.mark.parametrize("kwargs,kind", [
        ({"force_fusion_pairs": ((0, 1),)}, TraceKind.FUSION_PLAN),
        ({"adapt": "on", "shed_bound": 4, "shed_policy": "pattern",
          "pace": 0.95}, TraceKind.SHED),
    ], ids=["fused", "shedding"])
    def test_final_frames_agree(self, tmp_path, kwargs, kind):
        live = DashboardTracer(inner=TraceRecorder(), strategy="hypersonic")
        simulate("hypersonic", PATTERN, multi_burst_events(), num_cores=3,
                 tracer=live, **kwargs)
        assert any(event.kind == kind for event in live.events)
        path = tmp_path / "run.jsonl"
        write_jsonl(str(path), live)
        replayed = final_frame(read_jsonl(str(path)), strategy="hypersonic")
        assert live.final_frame() == replayed

    def test_unknown_kinds_leave_the_state_alone(self):
        state = DashboardState(strategy="x")
        before = state.snapshot()
        state.observe(TraceEvent("not_a_kind", 5.0, args={"depth": 3}))
        assert state.snapshot() == before


class TestLiveReplayEquivalence:
    @pytest.mark.parametrize("strategy,kwargs", [
        ("hypersonic", {"agent_dynamic": True}),
        ("rip", {}),       # partition simulator: -1 pseudo-agent path
        ("llsf", {}),
    ])
    def test_final_frames_agree(self, tmp_path, strategy, kwargs):
        live = DashboardTracer(inner=TraceRecorder(), strategy=strategy)
        simulate(strategy, PATTERN, tiny_events(), num_cores=3,
                 tracer=live, **kwargs)
        path = tmp_path / "run.jsonl"
        write_jsonl(str(path), live)
        replayed = final_frame(read_jsonl(str(path)), strategy=strategy)
        assert live.final_frame() == replayed

    def test_dashboard_does_not_change_results(self):
        plain = simulate("hypersonic", PATTERN, tiny_events(), num_cores=3,
                         agent_dynamic=True)
        board = DashboardTracer(inner=TraceRecorder(), strategy="hypersonic")
        watched = simulate("hypersonic", PATTERN, tiny_events(), num_cores=3,
                           agent_dynamic=True, tracer=board)
        assert watched.total_time == plain.total_time
        assert watched.matches == plain.matches
        assert watched.throughput == plain.throughput
        assert watched.unit_busy == plain.unit_busy

    def test_live_painting_throttle_skips_frames(self):
        out = io.StringIO()
        board = DashboardTracer(
            inner=TraceRecorder(), strategy="hypersonic",
            dashboard=Dashboard(out, tty=False), min_seconds=3600.0,
        )
        simulate("hypersonic", PATTERN, multi_burst_events(), num_cores=3,
                 tracer=board)
        # The first tick paints; every later tick falls inside the
        # wall-clock throttle window.
        assert board.dashboard.frames_painted == 1

    def test_tty_presenter_homes_and_clears(self):
        out = io.StringIO()
        view = Dashboard(out, tty=True)
        view.paint("one")
        view.paint("two")
        assert view.frames_painted == 2
        assert out.getvalue() == "\x1b[H\x1b[2Jone\n\x1b[H\x1b[2Jtwo\n"

    def test_live_painting_unthrottled_paints_every_tick(self):
        out = io.StringIO()
        board = DashboardTracer(
            inner=TraceRecorder(), strategy="hypersonic",
            dashboard=Dashboard(out, tty=False),
        )
        simulate("hypersonic", PATTERN, multi_burst_events(), num_cores=3,
                 tracer=board)
        assert board.dashboard.frames_painted > 1
        assert "repro dashboard" in out.getvalue()


_scalar = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.integers(-10, 10**9)
    | st.text(max_size=6)
    | st.none()
)
_agent_row = st.fixed_dictionaries({}, optional={
    "busy": _scalar,
    "items": _scalar,
    "depth": _scalar,
    "depth_history": st.lists(_scalar, max_size=40),
})
_snapshot = st.fixed_dictionaries({}, optional={
    "strategy": st.text(max_size=24),
    "now": _scalar,
    "items": _scalar,
    "matches": st.fixed_dictionaries(
        {}, optional={"count": _scalar, "mean_latency": _scalar}
    ),
    "splitter": st.fixed_dictionaries(
        {}, optional={"routed": _scalar, "dropped": _scalar}
    ),
    "dynamics": st.fixed_dictionaries(
        {}, optional={"role_switches": _scalar, "migrations": _scalar}
    ),
    "agents": st.dictionaries(
        st.integers(-3, 50) | st.text(max_size=4), _agent_row, max_size=8
    ),
    "units": st.dictionaries(
        st.integers(-2, 50) | st.text(max_size=4),
        st.fixed_dictionaries({}, optional={"busy": _scalar}),
        max_size=8,
    ),
})
_plan = st.none() | st.fixed_dictionaries({}, optional={
    "scheme": st.text(max_size=10),
    "per_agent": st.lists(_scalar, max_size=8),
    "loads": st.lists(_scalar, max_size=8),
})


class TestRenderProperties:
    @settings(max_examples=120, deadline=None)
    @given(snapshot=_snapshot, plan=_plan,
           width=st.integers(1, 200), height=st.integers(1, 60))
    def test_geometry_and_charset(self, snapshot, plan, width, height):
        frame = render_frame(snapshot, plan, width=width, height=height)
        lines = frame.split("\n")
        assert len(lines) <= height
        assert all(len(line) <= width for line in lines)
        # No control bytes: the only byte below 0x20 in the whole frame
        # is the newline separating lines (and no ANSI escapes at all).
        assert "\x1b" not in frame
        for line in lines:
            assert all(ord(ch) >= 32 for ch in line)


class TestTruncatedTraces:
    def make_jsonl(self, tmp_path) -> pathlib.Path:
        path = tmp_path / "run.jsonl"
        write_jsonl(str(path), record_run("hypersonic"))
        return path

    def test_truncated_last_line_warns_and_loads_prefix(self, tmp_path):
        path = self.make_jsonl(tmp_path)
        full = read_jsonl(str(path))
        data = path.read_bytes()
        path.write_bytes(data[:-15])  # chop into the final record
        with pytest.warns(RuntimeWarning, match="truncated final trace"):
            partial = read_jsonl(str(path))
        assert partial == full[:-1]

    def test_mid_file_corruption_raises_with_line_number(self, tmp_path):
        path = self.make_jsonl(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = '{"kind": "unit_busy", "ts": '  # partial record mid-file
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":4: malformed trace line"):
            read_jsonl(str(path))

    def test_watch_cli_survives_truncation(self, tmp_path, capsys):
        path = self.make_jsonl(tmp_path)
        path.write_bytes(path.read_bytes()[:-15])
        with pytest.warns(RuntimeWarning):
            code = main(["watch", str(path), "--no-tty", "--final"])
        assert code == 0
        assert "repro dashboard" in capsys.readouterr().out

    def test_obs_report_cli_survives_truncation(self, tmp_path, capsys):
        path = self.make_jsonl(tmp_path)
        path.write_bytes(path.read_bytes()[:-15])
        with pytest.warns(RuntimeWarning):
            code = main(["obs-report", str(path)])
        assert code == 0
        assert "latency attribution" in capsys.readouterr().out

    def test_watch_cli_rejects_mid_file_corruption(self, tmp_path):
        path = self.make_jsonl(tmp_path)
        lines = path.read_text(encoding="utf-8").splitlines()
        lines[3] = "not json"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SystemExit, match="malformed trace line"):
            main(["watch", str(path), "--final"])


class TestWatchCli:
    @pytest.fixture()
    def trace_path(self, tmp_path):
        path = tmp_path / "run.jsonl"
        write_jsonl(str(path), record_run("hypersonic"))
        return path

    @pytest.fixture()
    def multi_trace_path(self, tmp_path):
        tracer = TraceRecorder()
        simulate("hypersonic", PATTERN, multi_burst_events(), num_cores=3,
                 tracer=tracer)
        path = tmp_path / "multi.jsonl"
        write_jsonl(str(path), tracer)
        return path

    def test_final_matches_golden(self, trace_path, capsys):
        code = main([
            "watch", str(trace_path), "--final", "--label", "hypersonic",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out == GOLDEN.read_text(encoding="utf-8")

    def test_no_tty_playback_deterministic(self, multi_trace_path, capsys):
        outputs = []
        for _ in range(2):
            assert main(["watch", str(multi_trace_path), "--no-tty"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "--- frame 0 " in outputs[0]
        assert outputs[0].count("--- frame") > 1

    def test_frame_index(self, multi_trace_path, capsys):
        assert main(["watch", str(multi_trace_path), "--frame", "0"]) == 0
        first = capsys.readouterr().out
        assert main(["watch", str(multi_trace_path), "--frame", "-1"]) == 0
        last = capsys.readouterr().out
        assert first != last
        assert "repro dashboard" in first

    def test_frame_out_of_range(self, trace_path):
        with pytest.raises(SystemExit, match="frames"):
            main(["watch", str(trace_path), "--frame", "999"])

    def test_out_writes_frame_file(self, trace_path, tmp_path, capsys):
        out_path = tmp_path / "frame.txt"
        code = main([
            "watch", str(trace_path), "--final",
            "--label", "hypersonic", "--out", str(out_path),
        ])
        assert code == 0
        assert out_path.read_text(encoding="utf-8") == GOLDEN.read_text(
            encoding="utf-8"
        )

    def test_empty_trace_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert main(["watch", str(path)]) == 1
        assert "no trace events" in capsys.readouterr().err

    def test_tty_playback_clears_and_repaints(self, trace_path, capsys,
                                              monkeypatch):
        monkeypatch.setattr("sys.stdout.isatty", lambda: True, raising=False)
        assert main(["watch", str(trace_path), "--fps", "1000"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("\x1b[H\x1b[2J")

    def test_custom_geometry(self, trace_path, capsys):
        code = main([
            "watch", str(trace_path), "--final",
            "--width", "40", "--height", "6",
        ])
        assert code == 0
        lines = capsys.readouterr().out.rstrip("\n").split("\n")
        assert len(lines) <= 6
        assert all(len(line) <= 40 for line in lines)


class TestSimulateDashboardCli:
    def test_simulate_dashboard_prints_final_frame(self, tmp_path, capsys):
        csv = tmp_path / "stocks.csv"
        assert main([
            "generate", "stocks", str(csv),
            "--events", "300", "--types", "4", "--seed", "3",
        ]) == 0
        capsys.readouterr()
        code = main([
            "simulate", "stocks", str(csv), "--cores", "3",
            "--strategies", "hypersonic", "--dashboard",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "-- dashboard (hypersonic) --" in out
        assert "repro dashboard · hypersonic" in out
        assert "\x1b" not in out  # headless output stays escape-free

    def test_simulate_dashboard_off_unchanged(self, tmp_path, capsys):
        csv = tmp_path / "stocks.csv"
        assert main([
            "generate", "stocks", str(csv),
            "--events", "300", "--types", "4", "--seed", "3",
        ]) == 0
        capsys.readouterr()
        assert main([
            "simulate", "stocks", str(csv), "--cores", "3",
            "--strategies", "hypersonic",
        ]) == 0
        assert "dashboard" not in capsys.readouterr().out


class TestBenchFactoryHook:
    def test_paced_latencies_accepts_tracer_factory(self):
        from repro.bench.harness import paced_latencies

        boards = {}

        def factory(name):
            boards[name] = DashboardTracer(
                inner=TraceRecorder(), strategy=name
            )
            return boards[name]

        results = paced_latencies(
            PATTERN, tiny_events(), cores=2,
            strategies=("hypersonic", "sequential"), tracer_factory=factory,
        )
        assert set(results) == {"hypersonic", "sequential"}
        assert set(boards) == {"hypersonic", "sequential"}
        for board in boards.values():
            assert "repro dashboard" in board.final_frame()
            assert len(board.events) > 0  # inner recorder got the trace


class TestJsonlRoundTripStaysExact:
    def test_round_trip_preserves_events(self, tmp_path):
        tracer = record_run("hypersonic", agent_dynamic=True)
        path = tmp_path / "run.jsonl"
        write_jsonl(str(path), tracer)
        replayed = read_jsonl(str(path))
        assert [e.as_dict() for e in replayed] == [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
        ]

