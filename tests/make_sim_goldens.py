"""Regenerate the repo's golden files — single entry point.

The golden sets below live under ``tests/data/``; run this after an
*intentional* change to the corresponding behaviour and review the diff
before committing:

    PYTHONPATH=src:. python tests/make_sim_goldens.py               # all
    PYTHONPATH=src:. python tests/make_sim_goldens.py --which sim
    PYTHONPATH=src:. python tests/make_sim_goldens.py --which negation
    PYTHONPATH=src:. python tests/make_sim_goldens.py --which fusion
    PYTHONPATH=src:. python tests/make_sim_goldens.py --which bench
    PYTHONPATH=src:. python tests/make_sim_goldens.py --which trace
    PYTHONPATH=src:. python tests/make_sim_goldens.py --which report

* ``sim`` — ``sim_goldens.json``: the full :class:`~repro.simulator.SimResult`
  of every strategy on a fixed workload.  The kernel refactor (PR 2) was
  verified by generating this file from the pre-refactor seed and
  asserting bit-identical results afterwards; keeping the file frozen
  extends that guarantee to all later PRs.
* ``trips`` — ``trip_chain_goldens.json``: every strategy's SimResult on
  the trip-chain Kleene workload (``SEQ(start, ride+, end)`` over the
  CitiBike-style dataset).  A separate file from ``sim_goldens.json`` on
  purpose: the richer pattern language is strictly additive, so the
  legacy goldens must stay byte-identical — ``--which sim`` *raises* if
  regenerating them would change the committed bytes (pass
  ``--force-sim`` after an intentional behaviour change).
* ``negation`` — ``negation_goldens.json``: the full SimResult of the
  sequential simulator and of ``hypersonic`` (agent-dynamic, batch 1 and
  16) on two negation queries: trips Q_C3, whose guard sits between two
  positive items, and ``SEQ(A, B, !X)``, whose guard trails the pattern.
  It pins the guard-list scans and their virtual charges.
* ``fusion`` — ``fusion_goldens.json``: the full SimResult of
  ``hypersonic`` (agent-dynamic, batch 1 and 16) on ``SEQ(A, B, C, D)``
  over the ``sim`` stream with stages 1 and 2 fused into one agent.  It
  pins a fused agent's scans, purges and virtual charges.
* ``bench`` — ``bench_goldens.json``: the nine virtual bench scenarios
  at 800 events on 4 cores (:func:`bench_scenario`): the Figure 7
  strategy grid on the stock, sensor, skewed, regime-shifted and
  trip-chain Kleene streams, scalar against batch-64 hypersonic, static
  against adaptive shedding under overload, the shed-bound frontier, and
  the Figure 8 paced latency pass.  Each of the 38 cells is a traced
  run's full SimResult plus, where the run has an allocation plan, its
  calibration error and verdict; each scenario keeps its paces, shed
  bounds and Kleene binding lengths.
* ``trace`` — ``golden_chrome_trace.json``: the Chrome ``trace_event``
  export of the tiny traced workload (``tests/test_obs.tiny_trace``).  A
  diff means the exporter format or the simulator's traced behaviour
  changed.
* ``report`` — ``golden_obs_report.json``: the calibration report and
  latency breakdown computed from that same tiny trace, replayed through
  the JSONL round-trip so the golden also pins trace-file replayability.
* ``dashboard`` — ``golden_dashboard_frame.txt``: the terminal
  dashboard's final frame rendered from that same tiny trace via the
  JSONL replay path (``repro watch --final``).  A diff means the frame
  renderer or the traced behaviour changed.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

DATA_DIR = Path(__file__).parent / "data"
GOLDEN_PATH = DATA_DIR / "sim_goldens.json"
TRACE_GOLDEN_PATH = DATA_DIR / "golden_chrome_trace.json"
REPORT_GOLDEN_PATH = DATA_DIR / "golden_obs_report.json"
DASHBOARD_GOLDEN_PATH = DATA_DIR / "golden_dashboard_frame.txt"

PATTERN_TYPES = ["A", "B", "C"]
PATTERN_WINDOW = 6.0
NUM_EVENTS = 600
STREAM_SEED = 31
NUM_CORES = 4

TRIP_GOLDEN_PATH = DATA_DIR / "trip_chain_goldens.json"
TRIP_WINDOW = 4.0
TRIP_NUM_TRIPS = 80
TRIP_NUM_BIKES = 8
TRIP_SEED = 13

NEGATION_GOLDEN_PATH = DATA_DIR / "negation_goldens.json"
NEGATION_TRIP_WINDOW = 12.0
#: Simulator runs pinned per negation query: name -> (strategy, kwargs).
NEGATION_RUNS = {
    "sequential": ("sequential", {}),
    "hypersonic_b1": ("hypersonic", {"agent_dynamic": True}),
    "hypersonic_b16": ("hypersonic", {"agent_dynamic": True, "batch_size": 16}),
}


FUSION_GOLDEN_PATH = DATA_DIR / "fusion_goldens.json"
FUSION_TYPES = ["A", "B", "C", "D"]
FUSION_PAIRS = ((1, 2),)
#: Fused simulator runs pinned: name -> extra simulate kwargs.
FUSION_RUNS = {"hypersonic_b1": {}, "hypersonic_b16": {"batch_size": 16}}

BENCH_GOLDEN_PATH = DATA_DIR / "bench_goldens.json"
#: Scale of the bench scenarios: 800 events (the trip stream is sized
#: off the same budget) on 4 cores, length-3 queries, seed 42.
BENCH_EVENTS = 800
BENCH_CORES = 4
BENCH_LENGTH = 3
BENCH_SEED = 42
BENCH_SCENARIOS = (
    "fig7_throughput", "sensors_throughput", "kleene_throughput",
    "batched_throughput", "skewed_throughput", "shifted_throughput",
    "adaptation_recall", "recall_latency_frontier", "fig8_latency",
)
#: Micro-batch size of the batched row of ``batched_throughput``.
BENCH_BATCH_SIZE = 64
#: Window of the trip-chain Kleene query, about one rental cycle.
BENCH_TRIP_WINDOW = 4.0
#: ``fig8_latency`` paces every strategy at this share of HYPERSONIC's
#: measured capacity.
BENCH_LATENCY_LOAD = 0.7
#: The overload scenarios pace a 4-phase bursty stream at this multiple
#: of capacity, with shed bounds given per core.
BENCH_ADAPT_LOAD = 1.6
BENCH_ADAPT_PHASES = 4
BENCH_ADAPT_BOUND_PER_CORE = 2
BENCH_FRONTIER_BOUNDS_PER_CORE = (1, 2, 4, 8)


def golden_workload():
    from tests.conftest import make_stream

    return make_stream(num_events=NUM_EVENTS, seed=STREAM_SEED)


def golden_pattern():
    from repro.core import Pattern

    return Pattern.sequence(PATTERN_TYPES, window=PATTERN_WINDOW)


def trip_workload():
    from repro.datasets.trips import TripConfig, generate_trip_stream

    return list(generate_trip_stream(TripConfig(
        num_trips=TRIP_NUM_TRIPS, num_bikes=TRIP_NUM_BIKES, seed=TRIP_SEED,
    )))


def trip_pattern():
    from repro.workloads.queries import trip_chain_query

    return trip_chain_query(TRIP_WINDOW).pattern


def negation_queries() -> dict:
    """The pinned negation queries: name -> (pattern, stream)."""
    from repro.core import Pattern
    from repro.workloads.queries import trip_negation_query

    return {
        "trips_q_c3": (
            trip_negation_query(NEGATION_TRIP_WINDOW).pattern,
            trip_workload(),
        ),
        "trailing": (
            Pattern.sequence(["A", "B", "X"], window=5.0, negated=[2]),
            golden_workload(),
        ),
    }


def run_negation(query: str, run: str):
    from repro.simulator import simulate

    pattern, events = negation_queries()[query]
    strategy, kwargs = NEGATION_RUNS[run]
    return simulate(strategy, pattern, events, num_cores=NUM_CORES, **kwargs)


def run_fusion(run: str):
    from repro.core import Pattern
    from repro.simulator import simulate

    pattern = Pattern.sequence(FUSION_TYPES, window=PATTERN_WINDOW)
    return simulate(
        "hypersonic", pattern, golden_workload(), num_cores=NUM_CORES,
        agent_dynamic=True, force_fusion_pairs=FUSION_PAIRS,
        **FUSION_RUNS[run],
    )


def result_payload(result) -> dict:
    """A JSON-stable dump of every SimResult field (obs summary excluded)."""
    extra = {k: v for k, v in result.extra.items() if k != "obs"}
    return {
        "strategy": result.strategy,
        "num_units": result.num_units,
        "events": result.events,
        "matches": result.matches,
        "total_time": result.total_time,
        "throughput": result.throughput,
        "avg_latency": result.avg_latency,
        "p95_latency": result.p95_latency,
        "max_latency": result.max_latency,
        "peak_memory_bytes": result.peak_memory_bytes,
        "total_comparisons": result.total_comparisons,
        "total_work": result.total_work,
        "duplication_factor": result.duplication_factor,
        "unit_busy": list(result.unit_busy),
        "extra": extra,
    }


def collect() -> dict:
    from repro.simulator import STRATEGIES, simulate

    pattern = golden_pattern()
    events = golden_workload()
    goldens: dict = {"closed_loop": {}, "paced": {}}
    for strategy in STRATEGIES:
        kwargs = {"agent_dynamic": True} if strategy == "hypersonic" else {}
        result = simulate(
            strategy, pattern, events, num_cores=NUM_CORES, **kwargs
        )
        goldens["closed_loop"][strategy] = result_payload(result)
    # The control plane must be a strict no-op when disabled: an explicit
    # ``adapt="off"`` run has to reproduce the closed-loop payload bit for
    # bit.  Checked here (not stored) so the golden file stays unchanged.
    for strategy in ("hypersonic", "state"):
        kwargs = {"agent_dynamic": True} if strategy == "hypersonic" else {}
        result = simulate(
            strategy, pattern, events, num_cores=NUM_CORES,
            adapt="off", shed_bound=0, **kwargs
        )
        if result_payload(result) != goldens["closed_loop"][strategy]:
            raise RuntimeError(
                f"adapt='off' diverged from the closed-loop golden for "
                f"{strategy!r}; the disabled control plane must be a no-op"
            )
    for strategy in ("hypersonic", "rip"):
        result = simulate(
            strategy, pattern, events, num_cores=NUM_CORES, pace=3.0
        )
        goldens["paced"][strategy] = result_payload(result)
    return goldens


def collect_trip_chain() -> dict:
    from repro.simulator import STRATEGIES, simulate

    pattern = trip_pattern()
    events = trip_workload()
    goldens: dict = {"closed_loop": {}}
    counts = set()
    for strategy in STRATEGIES:
        kwargs = {"agent_dynamic": True} if strategy == "hypersonic" else {}
        result = simulate(
            strategy, pattern, events, num_cores=NUM_CORES, **kwargs
        )
        goldens["closed_loop"][strategy] = result_payload(result)
        counts.add(result.matches)
    if len(counts) != 1 or 0 in counts:
        raise RuntimeError(
            f"trip-chain strategies disagree or found nothing: {counts}"
        )
    return goldens


def collect_negation() -> dict:
    goldens: dict = {}
    for query in negation_queries():
        runs = {run: result_payload(run_negation(query, run))
                for run in NEGATION_RUNS}
        counts = {payload["matches"] for payload in runs.values()}
        if len(counts) != 1 or 0 in counts:
            raise RuntimeError(
                f"negation runs of {query!r} disagree or found nothing: "
                f"{counts}"
            )
        goldens[query] = runs
    return goldens


def collect_fusion() -> dict:
    goldens = {run: result_payload(run_fusion(run)) for run in FUSION_RUNS}
    counts = {payload["matches"] for payload in goldens.values()}
    if len(counts) != 1 or 0 in counts:
        raise RuntimeError(f"fused runs disagree or found nothing: {counts}")
    return goldens


def _bench_cell(result) -> dict:
    """A bench cell: the run's payload, plus the cost-model calibration
    error and verdict when the traced run has a plan to check."""
    cell = result_payload(result)
    calibration = result.extra.get("obs", {}).get("calibration")
    if calibration is not None:
        cell["calibration_error"] = calibration["mean_abs_relative_error"]
        cell["calibration_verdict"] = calibration["verdict"]
    return cell


def bench_scenario(name: str) -> dict:
    """One bench scenario: its metadata and a traced cell per run.

    The throughput scenarios race the Figure 7 strategies through
    ``compare_strategies``, which raises unless they agree on the match
    count.  The overload scenarios shed input, so they call ``simulate``
    directly.
    """
    from repro.bench.harness import (
        BenchScale,
        build_query,
        bursty_stock_events,
        compare_strategies,
        default_cache,
        default_costs,
        sensor_events,
        shifted_stock_events,
        skewed_stock_events,
        stock_events,
        trip_events,
    )
    from repro.engine import detect
    from repro.obs import TraceRecorder
    from repro.simulator import simulate

    scale = BenchScale(num_events=BENCH_EVENTS, seed=BENCH_SEED)
    meta = {"events": scale.num_events, "cores": BENCH_CORES,
            "window": scale.base_window, "length": BENCH_LENGTH}

    def query(dataset, events, template="seq", window=scale.base_window):
        return build_query(
            dataset, template, BENCH_LENGTH, window, events, scale
        ).pattern

    def grid(pattern, events):
        return compare_strategies(
            pattern, events, cores=BENCH_CORES, scale=scale,
            tracer_factory=lambda label: TraceRecorder(), seed=BENCH_SEED,
        )

    def run(strategy, pattern, events, **kwargs):
        return simulate(
            strategy, pattern, events, num_cores=BENCH_CORES,
            seed=BENCH_SEED, tracer=TraceRecorder(), **kwargs,
        )

    def hypersonic(pattern, events, **kwargs):
        return run("hypersonic", pattern, events, cache=default_cache(),
                   costs=default_costs(), agent_dynamic=True, **kwargs)

    variants = {
        "fig7_throughput": ({}, stock_events),
        "sensors_throughput": ({"dataset": "sensors"}, sensor_events),
        "skewed_throughput": ({"variant": "skewed"}, skewed_stock_events),
        "shifted_throughput": ({"variant": "shifted"}, shifted_stock_events),
    }
    if name in variants:
        details, source = variants[name]
        events = source(scale)
        results = grid(query(details.get("dataset", "stocks"), events), events)
    elif name == "kleene_throughput":
        events = trip_events(scale)
        pattern = query("trips", events, "kleene", BENCH_TRIP_WINDOW)
        closure = next(item.name for item in pattern.items if item.is_kleene)
        lengths: dict[str, int] = {}
        for match in detect(pattern, events):
            key = str(len(match.binding[closure]))
            lengths[key] = lengths.get(key, 0) + 1
        details = {"events": len(events), "window": BENCH_TRIP_WINDOW,
                 "dataset": "trips", "template": "kleene",
                 "kleene_lengths": lengths}
        results = grid(pattern, events)
    elif name == "batched_throughput":
        events = stock_events(scale)
        pattern = query("stocks", events)
        details = {"batch_size": BENCH_BATCH_SIZE}
        results = {
            label: hypersonic(pattern, events, batch_size=batch_size)
            for label, batch_size in (
                ("hypersonic", 1), ("hypersonic_batched", BENCH_BATCH_SIZE),
            )
        }
    elif name in ("adaptation_recall", "recall_latency_frontier"):
        events = bursty_stock_events(scale, num_phases=BENCH_ADAPT_PHASES)
        pattern = query("stocks", events)
        reference = hypersonic(pattern, events)
        pace = 1.0 / max(BENCH_ADAPT_LOAD * reference.throughput, 1e-12)
        details = {"events": len(events), "pace": pace,
                 "load": BENCH_ADAPT_LOAD, "phases": BENCH_ADAPT_PHASES,
                 "reference_matches": reference.matches}
        if name == "adaptation_recall":
            bound = BENCH_ADAPT_BOUND_PER_CORE * BENCH_CORES
            details["shed_bound"] = bound
            results = {"reference": reference}
            for label, adapt, policy in (("static_shed", "off", "tail"),
                                         ("adaptive", "on", "pattern")):
                results[label] = hypersonic(
                    pattern, events, pace=pace, adapt=adapt,
                    shed_bound=bound, shed_policy=policy,
                )
        else:
            bounds = [per_core * BENCH_CORES
                      for per_core in BENCH_FRONTIER_BOUNDS_PER_CORE]
            details["bounds"] = bounds
            results = {
                f"bound_{bound}": hypersonic(
                    pattern, events, pace=pace, adapt="on",
                    shed_bound=bound, shed_policy="pattern",
                )
                for bound in bounds
            }
    elif name == "fig8_latency":
        # Paced at a share of the capacity fig7's hypersonic row measures,
        # on the simulator's default cost and cache models.
        events = stock_events(scale)
        pattern = query("stocks", events)
        capacity = hypersonic(pattern, events).throughput
        pace = 1.0 / max(BENCH_LATENCY_LOAD * capacity, 1e-12)
        details = {"pace": pace, "load": BENCH_LATENCY_LOAD}
        results = {
            "sequential": run("sequential", pattern, events, pace=pace),
            "hypersonic": run("hypersonic", pattern, events, pace=pace,
                              agent_dynamic=True),
            "rip": run("rip", pattern, events, pace=pace,
                       chunk_size=scale.chunk_size),
            "llsf": run("llsf", pattern, events, pace=pace),
        }
    else:
        raise ValueError(f"unknown bench scenario {name!r}")
    cells = {label: _bench_cell(result) for label, result in results.items()}
    return {**meta, **details, "cells": cells}


def collect_bench() -> dict:
    return {name: bench_scenario(name) for name in BENCH_SCENARIOS}


def _serialize(goldens: dict) -> str:
    return json.dumps(goldens, indent=1, sort_keys=True) + "\n"


def write_sim_goldens(force: bool = False) -> None:
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    payload = _serialize(collect())
    # The legacy goldens predate the richer pattern language; Kleene and
    # negation are strictly opt-in, so regenerating this file must be a
    # byte-level no-op.  Raise on drift instead of silently rewriting.
    if GOLDEN_PATH.exists() and not force:
        committed = GOLDEN_PATH.read_text(encoding="utf-8")
        if committed != payload:
            raise RuntimeError(
                f"regenerating {GOLDEN_PATH} would change its bytes; the "
                "default workload must be unaffected by pattern-language "
                "extensions.  Re-run with --force-sim if the change is "
                "intentional."
            )
    GOLDEN_PATH.write_text(payload, encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")


def write_trip_goldens() -> None:
    TRIP_GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    TRIP_GOLDEN_PATH.write_text(
        _serialize(collect_trip_chain()), encoding="utf-8"
    )
    print(f"wrote {TRIP_GOLDEN_PATH}")


def write_negation_goldens() -> None:
    NEGATION_GOLDEN_PATH.write_text(
        _serialize(collect_negation()), encoding="utf-8"
    )
    print(f"wrote {NEGATION_GOLDEN_PATH}")


def write_fusion_goldens() -> None:
    FUSION_GOLDEN_PATH.write_text(
        _serialize(collect_fusion()), encoding="utf-8"
    )
    print(f"wrote {FUSION_GOLDEN_PATH}")


def write_bench_goldens() -> None:
    BENCH_GOLDEN_PATH.write_text(
        _serialize(collect_bench()), encoding="utf-8"
    )
    print(f"wrote {BENCH_GOLDEN_PATH}")


def write_trace_golden() -> None:
    from repro.obs import chrome_trace
    from tests.test_obs import tiny_trace

    tracer, _result = tiny_trace()
    TRACE_GOLDEN_PATH.write_text(
        json.dumps(chrome_trace(tracer), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {TRACE_GOLDEN_PATH}")


def obs_report_payload(tmp_dir: Path) -> dict:
    """Calibration + latency breakdown of the tiny trace, via JSONL replay."""
    from repro.obs import (
        calibration_report,
        latency_breakdown,
        read_jsonl,
        write_jsonl,
    )
    from tests.test_obs import tiny_trace

    tracer, _result = tiny_trace()
    path = tmp_dir / "tiny_trace.jsonl"
    write_jsonl(str(path), tracer)
    events = read_jsonl(str(path))
    return {
        "calibration": calibration_report(events),
        "latency_breakdown": latency_breakdown(events),
    }


def write_report_golden() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        payload = obs_report_payload(Path(tmp))
    REPORT_GOLDEN_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {REPORT_GOLDEN_PATH}")


def dashboard_frame_payload(tmp_dir: Path) -> str:
    """Final dashboard frame of the tiny trace, via JSONL replay."""
    from repro.obs import final_frame, read_jsonl, write_jsonl
    from tests.test_obs import tiny_trace

    tracer, _result = tiny_trace()
    path = tmp_dir / "tiny_trace.jsonl"
    write_jsonl(str(path), tracer)
    return final_frame(read_jsonl(str(path)), strategy="hypersonic")


def write_dashboard_golden() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        frame = dashboard_frame_payload(Path(tmp))
    DASHBOARD_GOLDEN_PATH.write_text(frame + "\n", encoding="utf-8")
    print(f"wrote {DASHBOARD_GOLDEN_PATH}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--which",
        choices=("sim", "trips", "negation", "fusion", "bench", "trace",
                 "report", "dashboard", "all"),
        default="all",
        help="which golden set to regenerate (default: all)",
    )
    parser.add_argument(
        "--force-sim", action="store_true",
        help="allow --which sim to rewrite sim_goldens.json on drift",
    )
    args = parser.parse_args()
    which = args.which
    if which in ("sim", "all"):
        write_sim_goldens(force=args.force_sim)
    if which in ("trips", "all"):
        write_trip_goldens()
    if which in ("negation", "all"):
        write_negation_goldens()
    if which in ("fusion", "all"):
        write_fusion_goldens()
    if which in ("bench", "all"):
        write_bench_goldens()
    if which in ("trace", "all"):
        write_trace_golden()
    if which in ("report", "all"):
        write_report_golden()
    if which in ("dashboard", "all"):
        write_dashboard_golden()


if __name__ == "__main__":
    main()
