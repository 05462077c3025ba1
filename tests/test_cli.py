"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture()
def stock_csv(tmp_path):
    path = tmp_path / "stocks.csv"
    code = main([
        "generate", "stocks", str(path),
        "--events", "600", "--types", "4", "--seed", "3",
    ])
    assert code == 0
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "stocks", "out.csv"])
        assert args.events == 5000
        assert args.seed == 42


class TestGenerate:
    def test_writes_csv(self, stock_csv):
        text = stock_csv.read_text()
        assert text.startswith("type,timestamp,payload_size")
        assert text.count("\n") == 601  # header + 600 rows

    def test_sensors(self, tmp_path):
        path = tmp_path / "sensors.csv"
        assert main(["generate", "sensors", str(path), "--events", "100"]) == 0
        assert path.exists()


class TestDetect:
    @pytest.mark.parametrize("engine", ["sequential", "hybrid"])
    def test_engines_run(self, stock_csv, capsys, engine):
        code = main([
            "detect", "stocks", str(stock_csv),
            "--length", "3", "--window", "20",
            "--selectivity", "0.4", "--engine", engine,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "matches" in out
        assert "SEQ" in out

    def test_engines_agree(self, stock_csv, capsys):
        counts = []
        for engine in ("sequential", "hybrid"):
            main([
                "detect", "stocks", str(stock_csv),
                "--length", "3", "--window", "20",
                "--selectivity", "0.4", "--engine", engine,
            ])
            out = capsys.readouterr().out
            counts.append(
                int(next(l for l in out.splitlines() if "matches" in l)
                    .split()[0])
            )
        assert counts[0] == counts[1]

    def test_too_few_types(self, stock_csv):
        with pytest.raises(SystemExit):
            main([
                "detect", "stocks", str(stock_csv),
                "--length", "7", "--window", "20",
            ])


class TestSimulate:
    def test_comparison_table(self, stock_csv, capsys):
        code = main([
            "simulate", "stocks", str(stock_csv),
            "--length", "3", "--window", "20",
            "--selectivity", "0.4", "--cores", "4",
            "--strategies", "sequential,hypersonic",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "hypersonic" in out
        assert "sequential" in out
        assert "gain" in out


class TestCleanErrors:
    """A bad flag value ends the run with its message and exit status 1,
    not a traceback."""

    @pytest.mark.parametrize("flags, message", [
        (["--cores", "0"], "num_cores must be >= 1, got 0"),
        (["--batch-size", "0"], "batch_size must be >= 1, got 0"),
        (["--backend", "procs", "--procs", "0"],
         "procs must be >= 1, got 0"),
        (["--backend", "procs", "--slo-p95", "5"],
         "--backend procs does not support"),
    ])
    def test_simulate(self, stock_csv, flags, message):
        with pytest.raises(SystemExit) as err:
            main([
                "simulate", "stocks", str(stock_csv),
                "--length", "3", "--window", "20",
                "--strategies", "hypersonic", *flags,
            ])
        # A string exit code is printed to stderr and exits with status 1.
        assert isinstance(err.value.code, str)
        assert message in err.value.code

    def test_detect(self, stock_csv):
        with pytest.raises(SystemExit) as err:
            main([
                "detect", "stocks", str(stock_csv),
                "--engine", "hybrid", "--units", "0",
            ])
        assert err.value.code == "need at least one execution unit"

    def test_bad_strategy_fails_before_any_run(self, stock_csv, tmp_path,
                                               capsys):
        trace = tmp_path / "t.jsonl"
        with pytest.raises(SystemExit, match="unknown strategy 'bogus'"):
            main([
                "simulate", "stocks", str(stock_csv),
                "--length", "3", "--window", "20",
                "--strategies", "hypersonic,bogus",
                "--trace-jsonl", str(trace),
            ])
        assert list(tmp_path.iterdir()) == [stock_csv]
        assert capsys.readouterr().out == ""

    def test_exit_status_and_no_traceback(self, stock_csv):
        proc = run_repro("simulate", "stocks", str(stock_csv), "--cores", "0")
        assert proc.returncode == 1
        assert proc.stderr == "num_cores must be >= 1, got 0\n"

    @pytest.mark.parametrize("command", ["detect", "simulate", "autotune"])
    @pytest.mark.parametrize("value", ["0", "1", "2", "-0.5"])
    def test_selectivity_outside_the_unit_interval(self, stock_csv, command,
                                                   value):
        with pytest.raises(SystemExit) as err:
            main([command, "stocks", str(stock_csv),
                  "--selectivity", value])
        assert err.value.code == (
            f"target selectivity must be in (0, 1), got {float(value)}")

    def test_selectivity_on_a_sensor_stream(self, tmp_path):
        path = tmp_path / "sensors.csv"
        assert main(["generate", "sensors", str(path), "--events", "300"]) == 0
        with pytest.raises(SystemExit) as err:
            main(["detect", "sensors", str(path), "--selectivity", "0"])
        assert err.value.code == "target selectivity must be in (0, 1), got 0.0"

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_slo_window_at_or_below_zero(self, stock_csv, value):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "stocks", str(stock_csv),
                  "--strategies", "hypersonic", "--slo-p95", "50",
                  "--slo-window", value])
        assert err.value.code == (
            f"bad SLO spec: SLO window must be > 0, got {float(value)}")

    @pytest.mark.parametrize("dataset, kind", [("stocks", "stock"),
                                               ("bursty", "bursty")])
    def test_generate_without_symbols(self, tmp_path, dataset, kind):
        path = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as err:
            main(["generate", dataset, str(path), "--types", "0"])
        assert err.value.code == f"a {kind} stream needs at least one symbol"
        assert not path.exists()

    @pytest.mark.parametrize("args, message", [
        (["detect", "stocks", "{csv}", "--selectivity", "0"],
         "target selectivity must be in (0, 1), got 0.0"),
        (["simulate", "stocks", "{csv}", "--strategies", "hypersonic",
          "--slo-p95", "50", "--slo-window", "-5"],
         "bad SLO spec: SLO window must be > 0, got -5.0"),
        (["generate", "stocks", "{out}", "--types", "0"],
         "a stock stream needs at least one symbol"),
    ], ids=["selectivity", "slo_window", "types"])
    def test_one_line_and_exit_status_1(self, stock_csv, tmp_path, args,
                                        message):
        proc = run_repro(*(arg.format(csv=stock_csv, out=tmp_path / "o.csv")
                           for arg in args))
        assert proc.returncode == 1
        assert proc.stderr == message + "\n"


def run_repro(*args: str):
    """``python -m repro`` with *args* in a fresh interpreter."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    return subprocess.run([sys.executable, "-m", "repro", *args],
                          capture_output=True, text=True, env=env)


class TestSimulateObservability:
    def test_trace_jsonl_and_metrics_out(self, stock_csv, tmp_path, capsys):
        jsonl = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main([
            "simulate", "stocks", str(stock_csv),
            "--length", "3", "--window", "20",
            "--selectivity", "0.4", "--cores", "4",
            "--strategies", "sequential,hypersonic",
            "--trace-jsonl", str(jsonl), "--metrics-out", str(metrics),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace jsonl (hypersonic)" in out
        for strategy in ("sequential", "hypersonic"):
            path = tmp_path / f"trace-{strategy}.jsonl"
            assert path.exists()
            import json

            first = json.loads(path.read_text().splitlines()[0])
            assert "kind" in first
        dump = json.loads(metrics.read_text())
        strategies = {series["labels"]["strategy"]
                      for series in dump["sim_total_time"]["series"]}
        assert strategies == {"sequential", "hypersonic"}

    def test_metrics_out_prometheus_format(self, stock_csv, tmp_path):
        metrics = tmp_path / "metrics.prom"
        code = main([
            "simulate", "stocks", str(stock_csv),
            "--length", "3", "--window", "20",
            "--selectivity", "0.4", "--cores", "3",
            "--strategies", "hypersonic",
            "--metrics-out", str(metrics),
        ])
        assert code == 0
        text = metrics.read_text()
        assert "# TYPE sim_total_time gauge" in text

    def test_missing_parent_dir_rejected(self, stock_csv):
        with pytest.raises(SystemExit):
            main([
                "simulate", "stocks", str(stock_csv),
                "--length", "3", "--window", "20", "--cores", "2",
                "--trace-jsonl", "/nonexistent-dir-xyz/trace.jsonl",
            ])


class TestObsReport:
    @pytest.fixture()
    def trace_jsonl(self, stock_csv, tmp_path, capsys):
        jsonl = tmp_path / "trace.jsonl"
        code = main([
            "simulate", "stocks", str(stock_csv),
            "--length", "3", "--window", "20",
            "--selectivity", "0.4", "--cores", "4",
            "--strategies", "hypersonic",
            "--trace-jsonl", str(jsonl),
        ])
        assert code == 0
        capsys.readouterr()
        return jsonl

    def test_text_report(self, trace_jsonl, capsys):
        assert main(["obs-report", str(trace_jsonl)]) == 0
        out = capsys.readouterr().out
        assert "cost-model calibration" in out
        assert "critical-path latency attribution" in out
        assert "end-to-end:" in out
        assert "calibrated" in out or "drifted" in out

    def test_json_report(self, trace_jsonl, capsys):
        import json

        assert main(["obs-report", str(trace_jsonl), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"calibration", "latency_breakdown"}
        assert payload["calibration"]["verdict"] in ("calibrated", "drifted")
        assert payload["latency_breakdown"]["per_agent"]

    def test_tolerance_flag_changes_verdict_inputs(self, trace_jsonl, capsys):
        assert main([
            "obs-report", str(trace_jsonl), "--json", "--tolerance", "0.9",
        ]) == 0
        import json

        payload = json.loads(capsys.readouterr().out)
        allocation = payload["calibration"]["allocation"]
        assert allocation["tolerance"] == 0.9

    def test_report_without_plan_degrades_gracefully(self, stock_csv,
                                                     tmp_path, capsys):
        jsonl = tmp_path / "seq.jsonl"
        main([
            "simulate", "stocks", str(stock_csv),
            "--length", "3", "--window", "20",
            "--selectivity", "0.4", "--cores", "2",
            "--strategies", "sequential",
            "--trace-jsonl", str(jsonl),
        ])
        capsys.readouterr()
        assert main(["obs-report", str(jsonl)]) == 0
        out = capsys.readouterr().out
        assert "n/a (trace has no allocation plan)" in out


class TestAutotune:
    @pytest.fixture()
    def hypersonic_trace(self, stock_csv, tmp_path, capsys):
        jsonl = tmp_path / "trace.jsonl"
        code = main([
            "simulate", "stocks", str(stock_csv),
            "--length", "3", "--window", "20",
            "--selectivity", "0.4", "--cores", "4",
            "--strategies", "hypersonic",
            "--trace-jsonl", str(jsonl),
        ])
        assert code == 0
        capsys.readouterr()
        return jsonl

    def test_online_round_table(self, stock_csv, capsys):
        code = main([
            "autotune", "stocks", str(stock_csv),
            "--length", "3", "--window", "20",
            "--selectivity", "0.4", "--cores", "6",
            "--world", "lock=2.4", "--rounds", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "mean |rel err|" in out
        assert "tuned model:" in out
        assert "error" in out

    def test_online_json(self, stock_csv, capsys):
        import json

        code = main([
            "autotune", "stocks", str(stock_csv),
            "--length", "3", "--window", "20",
            "--selectivity", "0.4", "--cores", "6",
            "--world", "lock=2.4", "--rounds", "2", "--json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) >= {
            "rounds", "tuned_parameters", "initial_error", "final_error",
            "improved", "converged",
        }
        assert payload["final_error"] <= payload["initial_error"]

    def test_offline_fit_from_trace(self, hypersonic_trace, capsys):
        code = main(["autotune", "--trace-jsonl", str(hypersonic_trace)])
        assert code == 0
        out = capsys.readouterr().out
        assert "share error:" in out
        assert "fitted model:" in out

    def test_offline_fit_deterministic(self, hypersonic_trace, capsys):
        outputs = []
        for _ in range(2):
            code = main([
                "autotune", "--trace-jsonl", str(hypersonic_trace), "--json",
            ])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_offline_unfittable_trace_fails(self, stock_csv, tmp_path,
                                            capsys):
        jsonl = tmp_path / "seq.jsonl"
        main([
            "simulate", "stocks", str(stock_csv),
            "--length", "3", "--window", "20",
            "--selectivity", "0.4", "--cores", "2",
            "--strategies", "sequential",
            "--trace-jsonl", str(jsonl),
        ])
        capsys.readouterr()
        assert main(["autotune", "--trace-jsonl", str(jsonl)]) == 1
        assert "no fittable allocation plan" in capsys.readouterr().err

    def test_world_flag_rejects_unknown_keys(self, stock_csv):
        with pytest.raises(SystemExit, match="--world"):
            main([
                "autotune", "stocks", str(stock_csv),
                "--world", "latch=1.0",
            ])

    def test_requires_input_without_trace(self):
        with pytest.raises(SystemExit, match="autotune needs a dataset"):
            main(["autotune"])


class TestSloCli:
    _ADAPTIVE = [
        "--length", "3", "--window", "20", "--selectivity", "0.4",
        "--cores", "4", "--strategies", "hypersonic",
        "--adapt", "on", "--shed-bound", "8", "--shed-policy", "pattern",
        "--pace", "0.2",
    ]

    @pytest.fixture()
    def adaptive_jsonl(self, stock_csv, tmp_path, capsys):
        jsonl = tmp_path / "adaptive.jsonl"
        code = main([
            "simulate", "stocks", str(stock_csv), *self._ADAPTIVE,
            "--slo-p95", "50", "--slo-recall", "0.9",
            "--slo-throughput", "1",
            "--trace-jsonl", str(jsonl),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "hypersonic: slo" in out
        return jsonl

    def test_slo_flags_require_agent_chain_strategy(self, stock_csv):
        with pytest.raises(SystemExit, match="agent-chain"):
            main([
                "simulate", "stocks", str(stock_csv),
                "--length", "3", "--window", "20", "--cores", "2",
                "--strategies", "sequential", "--slo-p95", "50",
            ])

    def test_invalid_slo_spec_rejected(self, stock_csv):
        with pytest.raises(SystemExit, match="recall floor"):
            main([
                "simulate", "stocks", str(stock_csv), *self._ADAPTIVE,
                "--slo-recall", "1.5",
            ])

    def test_obs_report_audit_text(self, adaptive_jsonl, capsys):
        assert main([
            "obs-report", str(adaptive_jsonl), "--audit",
            "--slo-p95", "50", "--slo-recall", "0.9",
        ]) == 0
        out = capsys.readouterr().out
        assert "decision provenance" in out
        assert "slo report" in out
        assert "adaptation:" in out

    def test_obs_report_audit_json_is_deterministic(self, adaptive_jsonl,
                                                    capsys):
        import json

        outputs = []
        for _ in range(2):
            assert main([
                "obs-report", str(adaptive_jsonl), "--audit", "--json",
                "--slo-recall", "0.9",
            ]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        payload = json.loads(outputs[0])
        assert set(payload) >= {"calibration", "latency_breakdown",
                                "audit", "slo"}
        audit = payload["audit"]
        assert audit is not None and audit["decisions"]
        for decision in audit["decisions"]:
            assert "trigger" in decision and "effect" in decision
        assert payload["slo"]["specs"][0]["spec"]["metric"] == "recall"

