"""Tests of the benchmark itself.

Run from the repository root with
``PYTHONPATH=src python -m pytest perf -q -o addopts=""``.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing.queues
import re
from pathlib import Path

import pytest

from perf import bench, compare
from perf.engines import ENGINES
from perf.tracing import Recorder, patch_targets, traced
from perf.workloads import BENCHMARK_WORKLOADS, WORKLOADS

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def small(name: str, events: int = 300):
    """The workload cut to its first *events* events."""
    workload = WORKLOADS[name]
    return dataclasses.replace(
        workload, generate=lambda seed: workload.generate(seed)[:events]
    )


def test_benchmark_json_matches_the_catalogue():
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in BENCHMARK["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == [
        (name, unit) for name, unit, _ in bench.PER_LAYER
    ]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(
        BENCHMARK_WORKLOADS
    )
    assert [w["why"] for w in BENCHMARK["workloads"]] == [
        WORKLOADS[name].why for name in BENCHMARK_WORKLOADS
    ]


def test_names_are_well_formed():
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    names += [m["name"] for m in BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_emits_every_declared_metric(name, tmp_path, capsys):
    result = bench.run_workload(small(name), seed=42, seconds=0, trace=True,
                                out=tmp_path)
    assert result["rounds"] == 1
    printed = "\n".join(bench.report(result))
    stored = json.loads((tmp_path / f"{name}.json").read_text())
    assert (tmp_path / f"{name}.trace.json").is_file()
    for kind, key in (("end_to_end", "metrics"), ("per_layer", "per_layer")):
        for metric in BENCHMARK[kind]:
            assert re.search(
                rf"^\s+{re.escape(metric['name'])}\s+\S+ "
                rf"{re.escape(metric['unit'])}\b",
                printed, re.MULTILINE,
            ), metric["name"]
            assert stored[key][metric["name"]]["unit"] == metric["unit"]
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        line = json.loads(bench.contract_line({**result, "trace": trace}))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["metrics"] == {
            metric["name"]: {
                "value": line["metrics"][metric["name"]]["value"],
                "unit": metric["unit"],
            }
            for metric in BENCHMARK[kind]
        }
    if name in BENCHMARK_WORKLOADS:
        assert result["failed"] == 0, result["failures"]


def test_self_times_fit_inside_the_traced_wall(tmp_path):
    result = bench.run_workload(small("trips_negation"), seed=42, seconds=0,
                                trace=True, out=tmp_path)
    trace = json.loads((tmp_path / "trips_negation.trace.json").read_text())
    assert set(trace["engines"]) == set(ENGINES)
    for engine in trace["engines"].values():
        self_total = sum(seam["self_s"] for seam in engine["seams"].values())
        assert self_total <= engine["wall_s"] + 1e-9
    assert all(entry["value"] is not None
               for entry in result["per_layer"].values())


def test_traced_restores_every_patched_attribute():
    from repro.core.nfa import Stage
    from repro.hypersonic.agent import AgentCore

    before = patch_targets()
    originals = (Stage.accepts, AgentCore.process,
                 multiprocessing.queues.Queue.put)
    workload = small("trips_kleene")
    events = workload.generate(42)
    pattern = workload.query(events, 42).pattern
    recorder = Recorder()
    with traced(recorder):
        assert Stage.accepts is not originals[0]
        recorder.run("run", ENGINES["hybrid"], pattern, events)
    assert recorder.calls("accepts") > 0
    assert (Stage.accepts, AgentCore.process,
            multiprocessing.queues.Queue.put) == originals
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, (owner, attr)


def test_failed_runs_raise_error_rate_without_aborting(monkeypatch, capsys):
    def drops_one(pattern, events):
        matches, info = ENGINES["hybrid"](pattern, events)
        return matches[:-1], info

    def raises(pattern, events):
        raise RuntimeError("boom")

    monkeypatch.setattr(bench, "ENGINES",
                        {**ENGINES, "hybrid": drops_one, "sim": raises})
    result = bench.run_workload(small("trips_kleene"), seed=42, seconds=0,
                                trace=False, out=None)
    printed = capsys.readouterr().out
    assert "FAILED hybrid trips_kleene: 1 missing / 0 extra" in printed
    assert "FAILED sim trips_kleene: RuntimeError: boom" in printed
    assert result["attempted"] == len(ENGINES)
    assert result["failed"] == 2
    assert result["error_rate"] == pytest.approx(2 / len(ENGINES))
    assert result["metrics"]["hybrid_eps"]["value"] is None
    assert result["metrics"]["seq_eps"]["value"] > 0
    assert json.loads(bench.contract_line(result))["correct"] is False


def test_timings_are_reported_at_probe_speed(monkeypatch):
    monkeypatch.setattr(bench, "host_probe", lambda: 2 * bench.PROBE_S)
    result = bench.run_workload(small("trips_negation"), seed=42, seconds=0,
                                trace=False, out=None)
    assert result["probe"]["slowdown"] == pytest.approx(2.0)
    metrics = result["metrics"]
    assert metrics["seq_eps"]["value"] == pytest.approx(
        2 * metrics["seq_eps"]["raw"])
    assert metrics["setup_s"]["value"] == pytest.approx(
        metrics["setup_s"]["raw"] / 2)
    assert metrics["peak_rss_mb"]["value"] == metrics["peak_rss_mb"]["raw"]


def test_host_probe_leaves_the_collector_as_it_was():
    import gc

    assert gc.isenabled()
    assert bench.host_probe() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        bench.host_probe()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_default_command_runs_only_declared_workloads(monkeypatch, tmp_path):
    started = []

    class Child:
        def __init__(self, command, cwd):
            name = command[command.index("--workload") + 1]
            started.append(name)
            failed = 1 if name == BENCHMARK_WORKLOADS[-1] else 0
            (tmp_path / f"{name}.json").write_text(json.dumps({"failed": failed}))

        def wait(self):
            return 0

    monkeypatch.setattr(bench.subprocess, "Popen", Child)
    # main() installs a SIGTERM handler meant for the benchmark process.
    monkeypatch.setattr(bench.signal, "signal", lambda *args: None)
    assert bench.main(["--out", str(tmp_path)]) == bench.RUNS_FAILED
    assert started == list(BENCHMARK_WORKLOADS)


def _runs(*eps, fingerprint="f", failed=0):
    """One side of a comparison: a run of workload ``w`` per value."""
    return {"w": [
        {"workload": "w", "seed": 42, "fingerprint": fingerprint,
         "failed": failed, "attempted": 6,
         "metrics": {"seq_eps": {"value": value, "unit": "events/s",
                                 "better": "higher", "bound": 0.1}}}
        for value in eps
    ]}


def test_compare_verdicts_and_refusal():
    lines, status = compare.compare(_runs(100.0), _runs(95.0))
    assert status == 0 and lines[1].endswith("ok")
    lines, status = compare.compare(_runs(100.0), _runs(85.0))
    assert status == compare.REGRESSED and lines[1].endswith("REGRESSED")
    _, status = compare.compare(_runs(100.0), _runs(100.0, failed=1))
    assert status == compare.REGRESSED
    with pytest.raises(compare.Refused):
        compare.compare(_runs(100.0), _runs(100.0, fingerprint="g"))


def test_compare_noise_never_hides_a_large_drop():
    # The baseline's runs spread 40%, four times the bound.
    wide = _runs(70.0, 90.0, 100.0, 110.0, 130.0)
    lines, status = compare.compare(wide, _runs(35.0, 45.0, 50.0, 55.0, 65.0))
    assert status == compare.REGRESSED and lines[1].endswith("REGRESSED")
    # Within the bound but inside the noise: not reported as unchanged.
    lines, status = compare.compare(wide, _runs(66.0, 86.0, 96.0, 106.0, 126.0))
    assert status == compare.UNRESOLVED and lines[1].endswith("unresolved")
    # Every run of B beats every run of A: resolved despite the noise.
    lines, status = compare.compare(wide, _runs(131.0, 140.0, 150.0, 160.0))
    assert status == 0 and lines[1].endswith("ok")


def test_compare_main_reads_result_trees(tmp_path):
    for side, values in (("a", (100.0, 101.0)), ("b", (60.0, 61.0))):
        for i, run in enumerate(_runs(*values)["w"]):
            path = tmp_path / side / str(i)
            path.mkdir(parents=True)
            (path / "w.json").write_text(json.dumps(run))
            (path / "w.trace.json").write_text("{}")
    assert compare.main([str(tmp_path / "a"), str(tmp_path / "a")]) == 0
    assert compare.main([str(tmp_path / "a"),
                         str(tmp_path / "b")]) == compare.REGRESSED
