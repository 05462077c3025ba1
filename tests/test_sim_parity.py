"""Kernel-refactor parity suite.

Pins every strategy's full :class:`~repro.simulator.SimResult` against
goldens generated from the pre-refactor seed code
(``tests/data/sim_goldens.json``, regenerated only deliberately via
``tests/make_sim_goldens.py``), and asserts that streaming inputs —
generators and CSV sources — produce results identical to list inputs
while keeping only a bounded number of events resident.  The virtual
bench scenarios are pinned the same way (``bench_goldens.json``), with
their invariants asserted over the golden.
"""

from __future__ import annotations

import json

import pytest

from repro.bench.harness import COMPARED_STRATEGIES
from repro.datasets import load_stream, save_stream, stream_source
from repro.simulator import STRATEGIES, simulate

from tests.make_sim_goldens import (
    BENCH_GOLDEN_PATH,
    BENCH_SCENARIOS,
    FUSION_GOLDEN_PATH,
    FUSION_RUNS,
    GOLDEN_PATH,
    NEGATION_GOLDEN_PATH,
    NEGATION_RUNS,
    NUM_CORES,
    TRIP_GOLDEN_PATH,
    bench_scenario,
    golden_pattern,
    golden_workload,
    negation_queries,
    result_payload,
    run_fusion,
    run_negation,
    trip_pattern,
    trip_workload,
)


@pytest.fixture(scope="module")
def goldens() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def pattern():
    return golden_pattern()


def _roundtrip(result) -> dict:
    """JSON round-trip so float comparison semantics match the goldens."""
    return json.loads(json.dumps(result_payload(result)))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_closed_loop_results_bit_identical(goldens, pattern, strategy):
    kwargs = {"agent_dynamic": True} if strategy == "hypersonic" else {}
    result = simulate(
        strategy, pattern, golden_workload(), num_cores=NUM_CORES, **kwargs
    )
    assert _roundtrip(result) == goldens["closed_loop"][strategy]


@pytest.mark.parametrize("strategy", ["hypersonic", "rip"])
def test_paced_results_bit_identical(goldens, pattern, strategy):
    result = simulate(
        strategy, pattern, golden_workload(), num_cores=NUM_CORES, pace=3.0
    )
    assert _roundtrip(result) == goldens["paced"][strategy]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_trip_chain_results_bit_identical(strategy):
    """The Kleene trip-chain workload has goldens of its own
    (``trip_chain_goldens.json``) — every strategy's full SimResult on the
    closure-heavy pattern is pinned, separately from the legacy file so
    the pattern-language extension stays strictly additive."""
    goldens = json.loads(TRIP_GOLDEN_PATH.read_text())
    kwargs = {"agent_dynamic": True} if strategy == "hypersonic" else {}
    result = simulate(
        strategy, trip_pattern(), trip_workload(), num_cores=NUM_CORES,
        **kwargs,
    )
    assert _roundtrip(result) == goldens["closed_loop"][strategy]


@pytest.mark.parametrize("run", sorted(NEGATION_RUNS))
@pytest.mark.parametrize("query", sorted(negation_queries()))
def test_negation_results_bit_identical(query, run):
    """Negation queries through the simulator (``negation_goldens.json``):
    an internal guard (trips Q_C3) and a trailing one (``SEQ(A, B, !X)``),
    so the guard-list scans and their virtual charges are pinned."""
    goldens = json.loads(NEGATION_GOLDEN_PATH.read_text())
    assert _roundtrip(run_negation(query, run)) == goldens[query][run]


@pytest.mark.parametrize("run", sorted(FUSION_RUNS))
def test_fusion_results_bit_identical(run):
    """A fused agent through the simulator (``fusion_goldens.json``):
    ``SEQ(A, B, C, D)`` with stages 1 and 2 fused, so the fused agent's
    scans, purges and virtual charges are pinned."""
    goldens = json.loads(FUSION_GOLDEN_PATH.read_text())
    assert _roundtrip(run_fusion(run)) == goldens[run]


# --------------------------------------------------------------------- #
# The virtual bench scenarios (bench_goldens.json)                       #
# --------------------------------------------------------------------- #

@pytest.fixture(scope="module")
def bench_goldens() -> dict:
    return json.loads(BENCH_GOLDEN_PATH.read_text())


@pytest.mark.parametrize("scenario", BENCH_SCENARIOS)
def test_bench_scenarios_bit_identical(bench_goldens, scenario):
    """Each bench scenario re-runs to its golden: every cell's SimResult
    and calibration verdict, and the scenario's paces and shed bounds."""
    rerun = json.loads(json.dumps(bench_scenario(scenario)))
    assert rerun == bench_goldens[scenario]


def test_bench_goldens_layout(bench_goldens):
    assert set(bench_goldens) == set(BENCH_SCENARIOS)
    assert sum(len(s["cells"]) for s in bench_goldens.values()) == 38
    # Hypersonic is calibrated against its own allocation plan; the
    # sequential baseline has no plan to check.
    fig7 = bench_goldens["fig7_throughput"]["cells"]
    assert fig7["hypersonic"]["calibration_verdict"] in (
        "calibrated", "drifted",
    )
    assert "calibration_error" not in fig7["sequential"]
    fig8 = bench_goldens["fig8_latency"]
    assert fig8["pace"] > 0
    assert all(cell["avg_latency"] > 0 for cell in fig8["cells"].values())


def _assert_strategies_agree(bench_goldens, *names):
    for name in names:
        cells = bench_goldens[name]["cells"]
        assert set(cells) == set(COMPARED_STRATEGIES), name
        assert len({cell["matches"] for cell in cells.values()}) == 1, name
        assert all(cell["matches"] > 0 and cell["throughput"] > 0
                   for cell in cells.values()), name


def test_bench_throughput_scenarios_agree(bench_goldens):
    _assert_strategies_agree(
        bench_goldens, "fig7_throughput", "kleene_throughput",
    )


def test_bench_variant_scenarios_agree(bench_goldens):
    assert bench_goldens["skewed_throughput"]["variant"] == "skewed"
    assert bench_goldens["shifted_throughput"]["variant"] == "shifted"
    _assert_strategies_agree(
        bench_goldens, "skewed_throughput", "shifted_throughput",
    )


def test_bench_sensors_scenario_agrees(bench_goldens):
    assert bench_goldens["sensors_throughput"]["dataset"] == "sensors"
    _assert_strategies_agree(bench_goldens, "sensors_throughput")


def test_bench_batched_matches_scalar(bench_goldens):
    cells = bench_goldens["batched_throughput"]["cells"]
    scalar, batched = cells["hypersonic"], cells["hypersonic_batched"]
    assert batched["matches"] == scalar["matches"] > 0
    # A virtual gain only: the model charges batched sweeps less.
    assert batched["throughput"] > scalar["throughput"]


def test_bench_adaptive_shedding_beats_static(bench_goldens):
    adapt = bench_goldens["adaptation_recall"]
    cells = adapt["cells"]
    assert cells["reference"]["matches"] == adapt["reference_matches"] > 0
    assert "shed" not in cells["reference"]["extra"]
    # The overload really sheds, and the control plane's pattern-aware
    # shedding keeps more matches than tail-drop at the same bound.
    assert cells["static_shed"]["extra"]["shed"]["total"] > 0
    assert cells["adaptive"]["matches"] > cells["static_shed"]["matches"]


def test_bench_frontier_is_monotone(bench_goldens):
    frontier = bench_goldens["recall_latency_frontier"]
    bounds = frontier["bounds"]
    assert bounds == sorted(bounds) and len(bounds) >= 3
    cells = [frontier["cells"][f"bound_{bound}"] for bound in bounds]
    matches = [cell["matches"] for cell in cells]
    # Loosening the shed bound never loses matches; the tightest sheds.
    assert matches == sorted(matches)
    assert matches[-1] <= frontier["reference_matches"]
    assert cells[0]["extra"]["shed"]["total"] > 0


def test_bench_kleene_lengths_describe_the_matches(bench_goldens):
    kleene = bench_goldens["kleene_throughput"]
    lengths = kleene["kleene_lengths"]
    assert sum(lengths.values()) == kleene["cells"]["sequential"]["matches"]
    assert all(int(key) >= 1 and count > 0 for key, count in lengths.items())
    assert max(int(key) for key in lengths) >= 3


# --------------------------------------------------------------------- #
# Streaming inputs: generator == list                                    #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_generator_input_matches_list_input(pattern, strategy):
    events = golden_workload()
    from_list = simulate(strategy, pattern, events, num_cores=NUM_CORES)
    from_gen = simulate(
        strategy, pattern, (event for event in events), num_cores=NUM_CORES
    )
    assert result_payload(from_list) == result_payload(from_gen)


def test_compare_strategies_accepts_generator(pattern):
    from repro.bench.harness import compare_strategies

    events = golden_workload()
    from_list = compare_strategies(
        pattern, events, cores=NUM_CORES, strategies=("sequential", "llsf")
    )
    from_gen = compare_strategies(
        pattern, (event for event in events), cores=NUM_CORES,
        strategies=("sequential", "llsf"),
    )
    assert {k: result_payload(v) for k, v in from_list.items()} == {
        k: result_payload(v) for k, v in from_gen.items()
    }


# --------------------------------------------------------------------- #
# Streaming CSV loader                                                   #
# --------------------------------------------------------------------- #


def test_csv_stream_source_matches_loaded_list(pattern, tmp_path):
    path = tmp_path / "stream.csv"
    save_stream(golden_workload(), path)
    from_list = simulate(
        "llsf", pattern, load_stream(path), num_cores=NUM_CORES
    )
    from_csv = simulate(
        "llsf", pattern, stream_source(path), num_cores=NUM_CORES
    )
    assert result_payload(from_list) == result_payload(from_csv)


def test_csv_source_replays_for_multiple_strategies(pattern, tmp_path):
    from repro.bench.harness import compare_strategies

    path = tmp_path / "stream.csv"
    save_stream(golden_workload(), path)
    results = compare_strategies(
        pattern, stream_source(path), cores=NUM_CORES,
        strategies=("sequential", "rip"),
    )
    assert results["sequential"].matches == results["rip"].matches


# --------------------------------------------------------------------- #
# Bounded resident events                                                #
# --------------------------------------------------------------------- #


class _TrackedAttrs(dict):
    """Attribute dict that supports weak references (plain dicts do not)."""

    __hash__ = object.__hash__  # identity hash, for the WeakSet


class _CountingSource:
    """Single-pass source yielding freshly built events, tracking how many
    are still resident via weak references to their private attribute
    dicts (``Event`` itself is a slotted dataclass and not weakref-able;
    each event is its attribute dict's only outside owner, so a live dict
    means a live event)."""

    replayable = False

    def __init__(self, template):
        import weakref

        self._template = template
        self._alive = weakref.WeakSet()
        self.peak_alive = 0

    def _fresh(self, event):
        from repro.core import Event

        attrs = _TrackedAttrs(event.attributes)
        self._alive.add(attrs)
        if len(self._alive) > self.peak_alive:
            self.peak_alive = len(self._alive)
        return Event(
            event.type,
            event.timestamp,
            attrs,
            payload_size=event.payload_size,
        )

    def prefix(self, count):
        return [self._fresh(event) for event in self._template[:count]]

    def __iter__(self):
        for event in self._template:
            yield self._fresh(event)


@pytest.mark.parametrize("strategy", ["sequential", "rip", "llsf"])
def test_partition_simulator_keeps_bounded_resident_events(strategy):
    """With a stream much longer than the window, the simulator must not
    retain the whole stream: resident events stay bounded by the window
    (plus the strategy's lookahead), far below the stream length.

    The pattern's last type never occurs, so no match ever completes and
    retains events — what stays alive is exactly what the simulator still
    holds.
    """
    from repro.core import Pattern
    from tests.conftest import make_stream

    pattern = Pattern.sequence(["A", "B", "Q"], window=6.0)
    num_events = 3000
    source = _CountingSource(make_stream(num_events=num_events, seed=11))
    result = simulate(strategy, pattern, source, num_cores=NUM_CORES)
    assert result.events == num_events
    assert result.matches == 0
    # The window spans ~6 time units at ~2 events/time-unit -> tens of
    # events; RIP adds a chunk (256) plus a window of lookahead.  A quarter
    # of the stream is a generous ceiling that still fails clearly if the
    # stream is materialized.
    assert source.peak_alive < num_events // 4
