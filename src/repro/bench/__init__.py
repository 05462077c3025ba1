"""Benchmark harness: shared workload scales, comparison grids, reporting."""

from repro.bench.harness import (
    COMPARED_STRATEGIES,
    DEFAULT_SCALE,
    BenchScale,
    build_query,
    compare_strategies,
    default_cache,
    default_costs,
    paced_latencies,
    relative_gains,
    sensor_events,
    shifted_stock_events,
    skewed_stock_events,
    stock_events,
    trip_events,
)
from repro.bench.reporting import format_series_table

__all__ = [
    "COMPARED_STRATEGIES",
    "DEFAULT_SCALE",
    "BenchScale",
    "build_query",
    "compare_strategies",
    "default_cache",
    "default_costs",
    "paced_latencies",
    "relative_gains",
    "sensor_events",
    "shifted_stock_events",
    "skewed_stock_events",
    "stock_events",
    "trip_events",
    "format_series_table",
]
