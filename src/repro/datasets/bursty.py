"""Bursty, regime-shifting stock workload (the adaptation stressor).

The stock generator (:mod:`repro.datasets.stocks`) draws stationary
per-symbol rates, which is exactly the world build-time planning is good
at.  This module composes it into the world it is *bad* at: the stream
alternates calm phases (uniform rates) with burst phases in which a
rotating subset of symbols runs hot while the rest go cold.  Each phase
is an independently seeded stock segment stitched with
:func:`~repro.core.streams.concat_streams`, so events keep the full stock
schema (``symbol``/``price``/``history``) and every Table-2 stock query
template runs on them unchanged.

Because the hot subset *rotates* between bursts, any allocation planned
from the statistics of one phase is mis-sized for the next — the drift
signal the runtime control plane (:mod:`repro.control`) re-plans on, and
the overload profile its pattern-aware shedder is measured under.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.errors import DatasetError
from repro.core.events import Event
from repro.core.streams import concat_streams
from repro.datasets.stocks import StockConfig, generate_stock_stream

__all__ = ["BurstyConfig", "generate_bursty_stream"]


@dataclass(frozen=True)
class BurstyConfig:
    """Parameters of the phase schedule.

    ``num_phases`` counts calm and burst phases together (they alternate,
    starting calm).  In a burst phase the hot subset — ``hot_symbols``
    consecutive symbols, rotated by one subset-width per burst — emits at
    ``base_rate * burst_factor`` while every other symbol drops to
    ``base_rate * cold_factor``.
    """

    symbols: tuple[str, ...] = tuple(f"S{i}" for i in range(8))
    base_rate: float = 1.0
    burst_factor: float = 4.0
    cold_factor: float = 0.25
    num_phases: int = 6
    events_per_phase: int = 1000
    hot_symbols: int = 2
    coupling: float = 0.5
    seed: int = 42

    def __post_init__(self) -> None:
        if not self.symbols:
            raise DatasetError("a bursty stream needs at least one symbol")
        if self.num_phases < 1:
            raise DatasetError("num_phases must be >= 1")
        if self.events_per_phase < 1:
            raise DatasetError("events_per_phase must be >= 1")
        if not 1 <= self.hot_symbols <= len(self.symbols):
            raise DatasetError(
                "hot_symbols must be between 1 and the symbol count"
            )


def _phase_rates(config: BurstyConfig, phase: int) -> float | tuple[float, ...]:
    """Per-symbol rates for one phase: uniform when calm, rotated hot
    subset when bursting."""
    if phase % 2 == 0:
        return config.base_rate
    burst_index = phase // 2
    count = len(config.symbols)
    start = (burst_index * config.hot_symbols) % count
    hot = {(start + offset) % count for offset in range(config.hot_symbols)}
    return tuple(
        config.base_rate
        * (config.burst_factor if index in hot else config.cold_factor)
        for index in range(count)
    )


def generate_bursty_stream(config: BurstyConfig | None = None) -> list[Event]:
    """Produce the full phased stream as one in-order event list."""
    if config is None:
        config = BurstyConfig()
    segments = []
    for phase in range(config.num_phases):
        segments.append(generate_stock_stream(StockConfig(
            symbols=config.symbols,
            rates=_phase_rates(config, phase),
            coupling=config.coupling,
            num_events=config.events_per_phase,
            seed=config.seed + phase,
        )))
    return concat_streams(*segments)
