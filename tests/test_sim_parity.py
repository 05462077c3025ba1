"""Kernel-refactor parity suite.

Pins every strategy's full :class:`~repro.simulator.SimResult` against
goldens generated from the pre-refactor seed code
(``tests/data/sim_goldens.json``, regenerated only deliberately via
``tests/make_sim_goldens.py``), and asserts that streaming inputs —
generators and CSV sources — produce results identical to list inputs
while keeping only a bounded number of events resident.
"""

from __future__ import annotations

import json

import pytest

from repro.datasets import load_stream, save_stream, stream_source
from repro.simulator import STRATEGIES, simulate

from tests.make_sim_goldens import (
    GOLDEN_PATH,
    NEGATION_GOLDEN_PATH,
    NEGATION_RUNS,
    NUM_CORES,
    TRIP_GOLDEN_PATH,
    golden_pattern,
    golden_workload,
    negation_queries,
    result_payload,
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


def test_measure_latency_bit_identical(goldens, pattern):
    result = simulate(
        "sequential", pattern, golden_workload(), num_cores=1,
        measure_latency=True,
    )
    assert _roundtrip(result) == goldens["measure_latency"]["sequential"]


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


def test_generator_input_measure_latency_matches_list(pattern):
    events = golden_workload()
    from_list = simulate(
        "rip", pattern, events, num_cores=NUM_CORES, measure_latency=True
    )
    from_gen = simulate(
        "rip", pattern, (event for event in events), num_cores=NUM_CORES,
        measure_latency=True,
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
