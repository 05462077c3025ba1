"""Differential suite: every execution strategy, one match set.

Randomized (seeded) small workloads are run through the sequential
reference engine, the hybrid :class:`HypersonicSimulation`, and every
partition strategy through :class:`PartitionSimulation`; all of them must
emit *exactly* the same match set —
keys, not just counts.  The grid is then repeated with fitted cost
parameters (from :func:`repro.costmodel.fitting.fit_from_trace` on a
trace of the same workload) standing in for the defaults: cost constants
steer allocation and the virtual clock, never correctness, so tuning can
be deployed without re-validating detection semantics.
"""

from __future__ import annotations

import pytest

from repro.baselines import (
    JSQEngine,
    LLSFEngine,
    RIPEngine,
    RREngine,
    StateParallelEngine,
)
from repro.core import AttributeCondition, Pattern
from repro.costmodel import CostParameters, fit_from_trace
from repro.hypersonic.engine import HypersonicConfig, HypersonicEngine
from repro.obs import TraceRecorder
from repro.simulator import (
    STRATEGIES,
    HypersonicSimulation,
    PartitionSimulation,
    SequentialSimEngine,
    simulate,
)

from tests.conftest import make_stream, reference_matches

#: (pattern, stream seed) grid — small enough that the full differential
#: matrix stays in test-suite time, varied enough to cross chunk/segment
#: boundaries and exercise kleene + negation ownership rules.
WORKLOADS = [
    (Pattern.sequence(["A", "B", "C"], window=6.0), 0),
    (Pattern.sequence(["A", "B", "C"], window=6.0), 11),
    (Pattern.sequence(["A", "B"], window=3.0), 2),
    (Pattern.sequence(["A", "B", "C"], window=5.0, kleene=[1]), 3),
    (Pattern.sequence(["A", "X", "B", "C"], window=6.0, negated=[1]), 4),
]

NUM_EVENTS = 180
NUM_UNITS = 4


def workload(seed: int):
    return make_stream(num_events=NUM_EVENTS, seed=seed)


def reference_keys(pattern, events) -> set:
    return {match.key for match in reference_matches(pattern, events)}


def fitted_parameters(pattern, events) -> CostParameters:
    """Cost constants fitted to a trace of this very workload."""
    recorder = TraceRecorder()
    simulate(
        "hypersonic", pattern, events, num_cores=NUM_UNITS, seed=7,
        tracer=recorder,
    )
    fit = fit_from_trace(recorder)
    return fit.parameters if fit is not None else CostParameters()


def partition_engines(pattern) -> dict:
    """Every partition strategy of :data:`STRATEGIES`, by name."""
    return {
        "sequential": SequentialSimEngine(pattern),
        "rip": RIPEngine(pattern, NUM_UNITS, chunk_size=32),
        "rr": RREngine(pattern, NUM_UNITS),
        "jsq": JSQEngine(pattern, NUM_UNITS),
        "llsf": LLSFEngine(pattern, NUM_UNITS),
    }


def partition_keys(engine, events) -> set:
    """Run *engine* through the partition simulator; its match-key set."""
    sim = PartitionSimulation(engine)
    sim.run(events)
    return {match.key for match in sim.matches}


@pytest.mark.parametrize("pattern,seed", WORKLOADS)
def test_partition_baselines_match_sequential(pattern, seed):
    events = workload(seed)
    expected = reference_keys(pattern, events)
    for strategy, engine in partition_engines(pattern).items():
        assert partition_keys(engine, events) == expected, strategy
    state = StateParallelEngine(pattern)
    assert {match.key for match in state.run(events)} == expected


@pytest.mark.parametrize("pattern,seed", WORKLOADS)
@pytest.mark.parametrize("tuned", [False, True],
                         ids=["default_costs", "fitted_costs"])
def test_hypersonic_simulation_matches_sequential(pattern, seed, tuned):
    events = workload(seed)
    expected = reference_keys(pattern, events)
    model = fitted_parameters(pattern, events) if tuned else None
    sim = HypersonicSimulation(
        pattern, NUM_UNITS, model_costs=model
    )
    sim.run(events)
    assert {match.key for match in sim.matches} == expected


@pytest.mark.parametrize("pattern,seed", WORKLOADS)
@pytest.mark.parametrize("tuned", [False, True],
                         ids=["default_costs", "fitted_costs"])
def test_simulated_strategies_agree_on_match_count(pattern, seed, tuned):
    """The simulated grid (virtual clock on) under default and fitted
    constants: every strategy detects exactly the reference count."""
    events = workload(seed)
    expected = len(reference_keys(pattern, events))
    costs = fitted_parameters(pattern, events) if tuned else None
    for strategy in STRATEGIES:
        kwargs = {}
        if strategy == "rip":
            kwargs["chunk_size"] = 32
        result = simulate(
            strategy, pattern, events, num_cores=NUM_UNITS, costs=costs,
            seed=7, **kwargs,
        )
        assert result.matches == expected, strategy


@pytest.mark.parametrize("pattern,seed", WORKLOADS)
@pytest.mark.parametrize("batch_size", [2, 7, 64])
def test_batched_hypersonic_matches_scalar_oracle(pattern, seed, batch_size):
    """Batched execution (vectorized kernels, micro-batched splitter and
    agents) must emit exactly the scalar oracle's match-key set."""
    events = workload(seed)
    expected = reference_keys(pattern, events)
    sim = HypersonicSimulation(pattern, NUM_UNITS, batch_size=batch_size)
    sim.run(events)
    assert {match.key for match in sim.matches} == expected


@pytest.mark.parametrize("reduce", ["first", "last"])
def test_batched_kleene_reductions_match_scalar_oracle(reduce):
    """A condition may read a Kleene tuple's first event.  The columnar
    views hold each tuple's last event, so such a stage must stay on the
    scalar path."""
    pattern = Pattern.sequence(
        ["A", "B", "C"], window=3.0, kleene=[1],
        condition=AttributeCondition("p2", "x", "<", "p3", "x",
                                     reduce=reduce),
    )
    events = make_stream(num_events=300, seed=3, gap=0.3)
    expected = reference_keys(pattern, events)
    sim = HypersonicSimulation(pattern, NUM_UNITS, batch_size=16)
    sim.run(events)
    assert {match.key for match in sim.matches} == expected


@pytest.mark.parametrize("pattern,seed", WORKLOADS[:2])
def test_all_strategies_accept_batch_size(pattern, seed):
    """`simulate(..., batch_size=64)` is valid for all seven strategies
    (a documented no-op for the event-major partition simulators) and
    never changes the detected match count."""
    events = workload(seed)
    expected = len(reference_keys(pattern, events))
    for strategy in STRATEGIES:
        kwargs = {}
        if strategy == "rip":
            kwargs["chunk_size"] = 32
        result = simulate(
            strategy, pattern, events, num_cores=NUM_UNITS, seed=7,
            batch_size=64, **kwargs,
        )
        assert result.matches == expected, strategy


@pytest.mark.parametrize("pattern,seed", [
    (Pattern.sequence(["A", "B", "C"], window=6.0), 0),
    (Pattern.sequence(["A", "B", "C", "D"], window=6.0), 5),
])
@pytest.mark.parametrize("batch_size", [1, 2, 16])
def test_fused_batched_matches_scalar_oracle(pattern, seed, batch_size):
    """Fused agents (MB1/EB1 + MB2/EB2 cores) under batched execution:
    the columnar kernels over both stage groups must reproduce exactly
    the scalar match-key set, including the batch_size=1 degenerate."""
    events = workload(seed)
    expected = reference_keys(pattern, events)
    config = HypersonicConfig(fusion=True, force_fusion_pairs=((1, 2),))
    sim = HypersonicSimulation(
        pattern, NUM_UNITS, config=config, batch_size=batch_size
    )
    sim.run(events)
    assert {match.key for match in sim.matches} == expected


#: Fused cells beyond the two above: name -> (pattern, stream seed, pairs).
FUSED_CELLS = {
    # ES1 and ES2 share type B: the item kind says which part an event is
    # for.
    "abbc_fuse_1_2": (Pattern.sequence(["A", "B", "B", "C"], window=6.0), 0,
                      ((1, 2),)),
    # The fused agent is the last of two.
    "abcd_fuse_2_3_last": (Pattern.sequence(["A", "B", "C", "D"], window=6.0),
                           5, ((2, 3),)),
    # A negation guard after the pair, enforced by the next agent.
    "abcxd_fuse_1_2_guard_after": (
        Pattern.sequence(["A", "B", "C", "X", "D"], window=6.0, negated=[3]),
        11, ((1, 2),),
    ),
}


@pytest.mark.parametrize("batch_size", [1, 16])
@pytest.mark.parametrize("cell", sorted(FUSED_CELLS))
def test_fused_pairs_match_reference(cell, batch_size):
    """Fused agents built from two agent cores, through the simulator and
    the hybrid driver: the reference match-key set, and a fused agent
    really built."""
    pattern, seed, pairs = FUSED_CELLS[cell]
    events = workload(seed)
    expected = reference_keys(pattern, events)
    config = HypersonicConfig(force_fusion_pairs=pairs, agent_dynamic=True)
    sim = HypersonicSimulation(
        pattern, NUM_UNITS, config=config, batch_size=batch_size
    )
    sim.run(events)
    assert sim.engine.fusion_plan.fused_groups()
    assert {match.key for match in sim.matches} == expected
    engine = HypersonicEngine(pattern, NUM_UNITS, config=config)
    assert {match.key for match in engine.run(events)} == expected


@pytest.mark.parametrize("pattern,seed", WORKLOADS)
def test_adaptive_closed_loop_preserves_match_set(pattern, seed):
    """``adapt="on"`` without shedding re-allocates and links agents but
    must never change *what* is detected — same keys as the oracle."""
    events = workload(seed)
    expected = reference_keys(pattern, events)
    sim = HypersonicSimulation(pattern, NUM_UNITS, adapt="on")
    sim.run(events)
    assert {match.key for match in sim.matches} == expected


def test_batched_results_backend_independent(monkeypatch):
    """The numpy kernel and the pure-Python fallback produce bit-identical
    batched simulations — same matches, same virtual clock."""
    import repro.core.vectorized as vec

    pattern, seed = WORKLOADS[0]
    events = workload(seed)

    def run() -> tuple:
        sim = HypersonicSimulation(pattern, NUM_UNITS, batch_size=16)
        result = sim.run(events)
        keys = tuple(sorted(match.key for match in sim.matches))
        return (result.throughput, result.total_time, keys)

    with_backend = run()
    monkeypatch.setattr(vec, "np", None)
    without_backend = run()
    assert with_backend == without_backend


def test_fitted_parameters_differ_from_defaults():
    """Sanity: the fitted-costs leg of the grid is not vacuously the
    default-costs leg again."""
    pattern, seed = WORKLOADS[0]
    events = workload(seed)
    fitted = fitted_parameters(pattern, events)
    assert fitted != CostParameters()


# --------------------------------------------------------------------- #
# Brute-force oracle differential                                        #
# --------------------------------------------------------------------- #
#
# The oracle (tests/oracle.py) evaluates patterns by definition and
# shares no code with any engine.  Every cell of this grid — operator
# (Kleene/NEG) x selection/consumption policy x window x dataset — must
# produce *identical match-key sets* across the oracle, the sequential
# reference, the hybrid simulation (scalar and batched), every partition
# strategy through the partition simulator, and StateParallelEngine.

def _policy_variants(types, window, **base):
    variants = []
    for selection in ("skip-till-any-match", "skip-till-next-match"):
        for consumption in ("reuse", "consume"):
            variants.append(Pattern.sequence(
                types, window=window, selection=selection,
                consumption=consumption, **base,
            ))
    return variants


def _trip_workload(seed: int):
    from repro.datasets.trips import TripConfig, generate_trip_stream

    return list(generate_trip_stream(TripConfig(
        num_trips=30, num_bikes=4, dropout=0.3, seed=seed,
    )))


def _oracle_cells():
    cells = []
    for window in (4.0, 6.0):
        for pattern in _policy_variants(["A", "B", "C"], window, kleene=[1]):
            cells.append((pattern, "synthetic", 3))
        for pattern in _policy_variants(
            ["A", "X", "B"], window, negated=[1]
        ):
            cells.append((pattern, "synthetic", 4))
    from repro.workloads.queries import trip_chain_query, trip_negation_query

    for builder in (trip_chain_query, trip_negation_query):
        for selection, consumption in (
            (None, None), ("skip-till-next-match", "consume"),
        ):
            spec = builder(
                4.0, selection=selection, consumption=consumption
            )
            cells.append((spec.pattern, "trips", 9))
    return cells + _stock_cells()


#: The stock cells' stream: 160 events over six symbols, seed 3.
STOCK_SYMBOLS = tuple(f"S{i}" for i in range(6))
STOCK_SEED = 3


def _stock_workload(seed: int):
    from repro.datasets.stocks import StockConfig, generate_stock_stream

    return generate_stock_stream(StockConfig(
        num_events=160, symbols=STOCK_SYMBOLS, seed=seed,
    ))


def _stock_cells():
    """Correlation conditions over three of the six symbols, each
    calibrated to pass 30% of in-window pairs: Q_A1 (174 oracle matches
    when written), Q_A3 with the middle position negated (24), Q_A1's
    conditions over a Kleene middle (18; Q_A2 at window 10 has none),
    and Q_A3 whose negated position a correlation condition reads (57),
    so a guard's table and bound run too."""
    from repro.core import AndCondition, CorrelationCondition
    from repro.datasets.stocks import calibrate_correlation_threshold
    from repro.workloads.queries import (
        stock_negation_query,
        stock_sequence_query,
    )

    events = _stock_workload(STOCK_SEED)
    types = list(STOCK_SYMBOLS[:3])
    q_a1 = stock_sequence_query(types, 20.0, events, selectivity=0.3)
    q_a3 = stock_negation_query(types, 20.0, events, negated_position=1,
                                selectivity=0.3)
    kleene = Pattern.sequence(
        types, window=6.0, kleene=[1],
        condition=stock_sequence_query(
            types, 6.0, events, selectivity=0.3).pattern.condition,
    )
    guarded = stock_negation_query(types, 10.0, events, negated_position=1,
                                   selectivity=0.3).pattern
    guard = CorrelationCondition("p1", "p2", calibrate_correlation_threshold(
        events, (types[0], types[1]), 10.0, 0.3))
    guarded = Pattern.sequence(
        types, window=10.0, negated=[1],
        condition=AndCondition((*guarded.conjuncts(), guard)),
    )
    return [(pattern, "stocks", STOCK_SEED)
            for pattern in (q_a1.pattern, q_a3.pattern, kleene, guarded)]


def _shape(pattern) -> str:
    return (
        "kleene" if any(i.is_kleene for i in pattern.items)
        else "negation" if any(i.is_negated for i in pattern.items)
        else "seq"
    )


def _oracle_cell_id(cell):
    pattern, dataset, _ = cell
    return (
        f"{dataset}-{_shape(pattern)}-w{pattern.window:g}-"
        f"{pattern.selection.value}-{pattern.consumption.value}"
    )


ORACLE_CELLS = _oracle_cells()


def _oracle_events(dataset: str, seed: int):
    if dataset == "trips":
        return _trip_workload(seed)
    if dataset == "stocks":
        return _stock_workload(seed)
    return make_stream(num_events=120, seed=seed)


@pytest.mark.parametrize(
    "pattern,dataset,seed", ORACLE_CELLS,
    ids=[_oracle_cell_id(cell) for cell in ORACLE_CELLS],
)
def test_every_engine_matches_the_oracle(pattern, dataset, seed):
    from tests.oracle import oracle_keys

    events = _oracle_events(dataset, seed)
    expected = oracle_keys(pattern, events)
    assert reference_keys(pattern, events) == expected
    for strategy, engine in partition_engines(pattern).items():
        assert partition_keys(engine, events) == expected, strategy
    state = StateParallelEngine(pattern)
    assert {match.key for match in state.run(events)} == expected
    for batch_size in (1, 16):
        sim = HypersonicSimulation(
            pattern, NUM_UNITS, batch_size=batch_size
        )
        sim.run(events)
        produced = {match.key for match in sim.matches}
        assert produced == expected, f"batch_size={batch_size}"


def test_oracle_grid_is_not_degenerate():
    """At least one Kleene, one negation, one trips and one stocks cell of
    the grid produce matches — otherwise the differential above proves
    nothing."""
    from tests.oracle import oracle_keys

    populated = set()
    for pattern, dataset, seed in ORACLE_CELLS:
        if oracle_keys(pattern, _oracle_events(dataset, seed)):
            populated.add(_shape(pattern))
            populated.add(dataset)
    assert {"kleene", "negation", "synthetic", "trips", "stocks"} <= populated
