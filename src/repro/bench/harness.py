"""Experiment harness: shared knobs, dataset builders, comparison grids.

Every figure-reproduction benchmark drives the same entry points here so
all strategies are measured under one cost/cache model.  The scale knobs
(`BenchScale`) shrink the paper's month-long streams to laptop-sized
simulations while preserving the operating regime: buffers much larger
than the modelled cache, partial-match load comparable to raw event load,
and selective conditions like the paper's correlation thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Mapping, Sequence

from repro.core.events import Event
from repro.core.streams import ListSource, WorkloadSource, as_source
from repro.obs.tracer import Tracer
from repro.core.patterns import Pattern
from repro.costmodel.model import CostParameters
from repro.datasets.sensors import SensorConfig, generate_sensor_stream
from repro.datasets.stocks import StockConfig, generate_stock_stream
from repro.datasets.trips import TripConfig, generate_trip_stream
from repro.simulator.cache import CacheModel
from repro.simulator.metrics import SimResult
from repro.simulator.runner import simulate
from repro.workloads.queries import (
    QuerySpec,
    sensor_kleene_query,
    sensor_negation_query,
    sensor_sequence_query,
    stock_kleene_query,
    stock_negation_query,
    stock_sequence_query,
    trip_chain_query,
    trip_negation_query,
    trip_sequence_query,
)

__all__ = [
    "COMPARED_STRATEGIES",
    "BenchScale",
    "DEFAULT_SCALE",
    "default_cache",
    "default_costs",
    "stock_events",
    "sensor_events",
    "trip_events",
    "build_query",
    "compare_strategies",
    "relative_gains",
    "paced_latencies",
    "shifted_stock_events",
    "skewed_stock_events",
    "bursty_stock_events",
]

#: Strategy set of the paper's state-of-the-art comparison (Figures 7-9).
COMPARED_STRATEGIES = ("sequential", "hypersonic", "state", "rip", "llsf")


@dataclass(frozen=True)
class BenchScale:
    """Workload scale used by the benchmarks.

    ``num_events`` trades fidelity for wall-clock time; the default keeps
    each simulated run in the low seconds.  ``selectivity`` is the planted
    per-condition pass rate (the paper's thresholds play the same role).
    """

    num_events: int = 3500
    per_type_rate: float = 0.6
    selectivity: float = 0.08
    sensor_selectivity: float = 0.25
    base_window: float = 40.0
    base_cores: int = 24
    base_length: int = 4
    seed: int = 42
    chunk_size: int = 128


DEFAULT_SCALE = BenchScale()


def default_cache() -> CacheModel:
    """Cache model putting the benchmarks in the paper's memory-bound
    regime: steady-state buffers are several times the per-core cache."""
    return CacheModel(capacity_items=64.0, touch_cost=0.02)


def default_costs() -> CostParameters:
    """The shared per-action cost constants used by every benchmark."""
    return CostParameters()


@lru_cache(maxsize=8)
def _stock_events_cached(
    num_events: int, num_symbols: int, rate: float, seed: int
) -> tuple[Event, ...]:
    config = StockConfig(
        num_events=num_events,
        symbols=tuple(f"S{i}" for i in range(num_symbols)),
        rates=rate,
        seed=seed,
    )
    return tuple(generate_stock_stream(config))


def stock_events(scale: BenchScale = DEFAULT_SCALE,
                 num_symbols: int = 8) -> list[Event]:
    """The benchmark suite's cached synthetic stock stream."""
    return list(
        _stock_events_cached(
            scale.num_events, num_symbols, scale.per_type_rate, scale.seed
        )
    )


@lru_cache(maxsize=8)
def _sensor_events_cached(
    num_events: int, rate: float, seed: int
) -> tuple[Event, ...]:
    config = SensorConfig(num_events=num_events, rates=rate, seed=seed)
    return tuple(generate_sensor_stream(config))


def sensor_events(scale: BenchScale = DEFAULT_SCALE) -> list[Event]:
    """The benchmark suite's cached synthetic sensor stream."""
    return list(
        _sensor_events_cached(scale.num_events, scale.per_type_rate, scale.seed)
    )


@lru_cache(maxsize=8)
def _trip_events_cached(
    num_trips: int, num_bikes: int, seed: int
) -> tuple[Event, ...]:
    config = TripConfig(num_trips=num_trips, num_bikes=num_bikes, seed=seed)
    return tuple(generate_trip_stream(config))


def trip_events(scale: BenchScale = DEFAULT_SCALE,
                num_bikes: int = 12) -> list[Event]:
    """The benchmark suite's cached CitiBike-style trip-chain stream.

    A trip emits roughly five events (start, a geometric run of ride
    pings, end), so the trip count is sized off the scale's event budget.
    """
    return list(
        _trip_events_cached(
            max(1, scale.num_events // 5), num_bikes, scale.seed
        )
    )


def shifted_stock_events(scale: BenchScale = DEFAULT_SCALE,
                         num_symbols: int = 8) -> list[Event]:
    """A stream whose per-type rates shift halfway through the run —
    the regime the agent-dynamic extension targets (Figure 11).

    First half: uniform rates.  Second half: the rates rotate so types
    that were rare become frequent, invalidating the initial allocation.
    """
    half = scale.num_events // 2
    first = generate_stock_stream(
        StockConfig(
            num_events=half,
            symbols=tuple(f"S{i}" for i in range(num_symbols)),
            rates=scale.per_type_rate,
            seed=scale.seed,
        )
    )
    skewed_rates = tuple(
        scale.per_type_rate * (3.0 if i >= num_symbols // 2 else 0.3)
        for i in range(num_symbols)
    )
    second = generate_stock_stream(
        StockConfig(
            num_events=scale.num_events - half,
            symbols=tuple(f"S{i}" for i in range(num_symbols)),
            rates=skewed_rates,
            seed=scale.seed + 1,
        )
    )
    offset = first[-1].timestamp if first else 0.0
    shifted = [
        Event(
            type=event.type,
            timestamp=event.timestamp + offset,
            attributes=event.attributes,
            payload_size=event.payload_size,
        )
        for event in second
    ]
    return first + shifted


def bursty_stock_events(scale: BenchScale = DEFAULT_SCALE,
                        num_symbols: int = 8,
                        num_phases: int = 6) -> list[Event]:
    """The adaptation stressor: calm/burst phases with a rotating hot
    symbol subset (see :mod:`repro.datasets.bursty`).  Sized off the
    scale's event budget so quick and full benches stay proportionate."""
    from repro.datasets.bursty import BurstyConfig, generate_bursty_stream

    return generate_bursty_stream(BurstyConfig(
        symbols=tuple(f"S{i}" for i in range(num_symbols)),
        base_rate=scale.per_type_rate,
        events_per_phase=max(1, scale.num_events // num_phases),
        num_phases=num_phases,
        seed=scale.seed,
    ))


def skewed_stock_events(scale: BenchScale = DEFAULT_SCALE,
                        num_symbols: int = 8) -> list[Event]:
    """A stationary stream with strongly heterogeneous per-type rates —
    the regime where outer allocation quality is measurable (Figure 10):
    statistics are stable, so the cost model can be judged on how well it
    sizes each agent, without adaptivity masking mistakes."""
    rates = tuple(
        scale.per_type_rate * (3.0 if i % 2 == 0 else 0.4)
        for i in range(num_symbols)
    )
    config = StockConfig(
        num_events=scale.num_events,
        symbols=tuple(f"S{i}" for i in range(num_symbols)),
        rates=rates,
        seed=scale.seed,
    )
    return generate_stock_stream(config)


def build_query(
    dataset: str,
    template: str,
    length: int,
    window: float,
    events: Sequence[Event],
    scale: BenchScale = DEFAULT_SCALE,
) -> QuerySpec:
    """Instantiate a Table 2 template on a dataset sample.

    ``dataset`` is "stocks", "sensors", or "trips"; ``template`` is
    "seq", "kleene", or "negation".
    """
    if dataset == "trips":
        # Trip queries carry no planted thresholds — the bike equality
        # join is the condition — so neither length nor sample applies.
        builders = {
            "seq": trip_sequence_query,
            "kleene": trip_chain_query,
            "negation": trip_negation_query,
        }
        if template not in builders:
            raise ValueError(f"unknown template {template!r}")
        return builders[template](window)
    sample = list(events[: max(2000, scale.num_events // 2)])
    if dataset == "stocks":
        types = [f"S{i}" for i in range(length)]
        if template == "seq":
            return stock_sequence_query(
                types, window, sample, selectivity=scale.selectivity
            )
        if template == "kleene":
            types = [f"S{i}" for i in range(6)]
            return stock_kleene_query(
                types, window, sample, selectivity=scale.selectivity
            )
        if template == "negation":
            return stock_negation_query(
                types, window, sample, selectivity=scale.selectivity
            )
        raise ValueError(f"unknown template {template!r}")
    if dataset == "sensors":
        activities = SensorConfig().activities
        types = list(activities[:length])
        if template == "seq":
            return sensor_sequence_query(
                types, window, sample, selectivity=scale.sensor_selectivity
            )
        if template == "kleene":
            types = list(activities[:6])
            return sensor_kleene_query(
                types, window, sample, selectivity=scale.sensor_selectivity
            )
        if template == "negation":
            return sensor_negation_query(
                types, window, sample, selectivity=scale.sensor_selectivity
            )
        raise ValueError(f"unknown template {template!r}")
    raise ValueError(f"unknown dataset {dataset!r}")


def _replayable(events: "Iterable[Event] | WorkloadSource") -> WorkloadSource:
    """Coerce to a source the grid can replay once per strategy,
    materializing single-pass inputs exactly once."""
    source = as_source(events)
    if not source.replayable:
        source = ListSource(list(source))
    return source


def compare_strategies(
    pattern: Pattern,
    events: "Iterable[Event] | WorkloadSource",
    cores: int,
    strategies: Sequence[str] = COMPARED_STRATEGIES,
    scale: BenchScale = DEFAULT_SCALE,
    tracer_factory: Callable[[str], Tracer] | None = None,
    **simulate_kwargs,
) -> dict[str, SimResult]:
    """Simulate every strategy on one workload under the shared models.

    HYPERSONIC runs with its full feature set (agent-dynamic allocation on,
    cost-model outer balancing), matching the complete system the paper
    benchmarks in Figures 7-9; the ablation benches switch features off
    explicitly.

    ``tracer_factory`` is the opt-in observability hook: when given, it is
    called once per strategy (with the strategy name) and must return the
    :class:`~repro.obs.Tracer` for that run — e.g.
    ``lambda name: TraceRecorder()``.  Each result then carries its
    per-agent summary in ``extra["obs"]``, and the recorder instances can
    be kept (e.g. in a dict) for full trace export.
    """
    cache = simulate_kwargs.pop("cache", default_cache())
    costs = simulate_kwargs.pop("costs", default_costs())
    events = _replayable(events)
    results: dict[str, SimResult] = {}
    for strategy in strategies:
        kwargs = dict(simulate_kwargs)
        if strategy == "hypersonic":
            kwargs.setdefault("agent_dynamic", True)
        if strategy == "rip":
            kwargs.setdefault("chunk_size", scale.chunk_size)
        if tracer_factory is not None:
            kwargs["tracer"] = tracer_factory(strategy)
        results[strategy] = simulate(
            strategy,
            pattern,
            events,
            num_cores=cores,
            cache=cache,
            costs=costs,
            **kwargs,
        )
    matches = {result.matches for result in results.values()}
    if len(matches) > 1:
        detail = {name: result.matches for name, result in results.items()}
        raise AssertionError(
            f"strategies disagree on the match set: {detail}"
        )
    return results


def paced_latencies(
    pattern: Pattern,
    events: "Iterable[Event] | WorkloadSource",
    cores: int,
    strategies: Sequence[str] = ("hypersonic", "rip", "llsf", "sequential"),
    load: float = 0.7,
    reference_throughput: float | None = None,
    scale: BenchScale = DEFAULT_SCALE,
    tracer_factory=None,
) -> dict[str, SimResult]:
    """Latency comparison at a common offered load (Figure 8 methodology).

    All strategies receive events paced at ``load`` of HYPERSONIC's
    measured capacity — the same stream rate for everyone, as in the
    paper's runs.  Strategies that cannot sustain the rate accumulate
    queues and show correspondingly higher detection latency.

    ``tracer_factory`` (strategy name -> tracer), as in
    :func:`compare_strategies`, attaches a tracer to each paced run —
    e.g. a live :class:`~repro.obs.dashboard.DashboardTracer`.
    """
    cache = default_cache()
    costs = default_costs()
    events = _replayable(events)
    if reference_throughput is None:
        reference = simulate(
            "hypersonic", pattern, events, num_cores=cores,
            cache=cache, costs=costs, agent_dynamic=True,
        )
        reference_throughput = reference.throughput
    pace = 1.0 / max(load * reference_throughput, 1e-12)
    results: dict[str, SimResult] = {}
    for strategy in strategies:
        kwargs: dict = {"pace": pace}
        if tracer_factory is not None:
            kwargs["tracer"] = tracer_factory(strategy)
        if strategy == "hypersonic":
            kwargs["agent_dynamic"] = True
        if strategy == "rip":
            kwargs["chunk_size"] = scale.chunk_size
        results[strategy] = simulate(
            strategy, pattern, events, num_cores=cores,
            cache=cache, costs=costs, **kwargs,
        )
    return results


def relative_gains(results: Mapping[str, SimResult]) -> dict[str, float]:
    """Throughput gains over the sequential baseline (Figure 7's y-axis)."""
    baseline = results["sequential"]
    return {
        name: result.gain_over(baseline)
        for name, result in results.items()
        if name != "sequential"
    }
