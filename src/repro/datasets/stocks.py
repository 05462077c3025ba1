"""Synthetic NASDAQ-like stock tick stream (paper Section 5.1, dataset 1).

The paper's stock dataset holds one month of price updates for 2100+
tickers; each event carries the ticker id, a timestamp, the price, and an
augmented ``history`` attribute with the 20 last recorded prices.  The
query conditions are Pearson-correlation predicates between the histories
of adjacent pattern positions, ``Corr(A.history, B.history) > T``.

This generator reproduces the schema and the predicate's statistical
behaviour with a regime-switching factor model: every symbol alternates
between a *coupled* regime, where its returns follow a shared market
factor, and an *idiosyncratic* regime of independent noise.  Two symbols'
20-tick histories correlate strongly exactly when both spent the recent
past coupled, so the fraction of time spent coupled (``coupling``) plants
the selectivity of a correlation threshold — and
:func:`calibrate_correlation_threshold` picks the threshold that hits a
target selectivity on a sample, mirroring how the paper's experiments
choose ``T`` per query.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.core.conditions import pearson_correlation
from repro.core.errors import DatasetError
from repro.core.events import Event, EventType
from repro.datasets.base import ArrivalProcess, interleave_arrivals

__all__ = [
    "StockConfig",
    "generate_stock_stream",
    "calibrate_correlation_threshold",
    "HISTORY_LENGTH",
]

HISTORY_LENGTH = 20

# Modelled payload: ticker id + timestamp + price + 20-deep history.
_STOCK_PAYLOAD_BYTES = 8 + 8 + 8 + HISTORY_LENGTH * 8


@dataclass(frozen=True)
class StockConfig:
    """Generator parameters.

    ``symbols`` are the ticker names used as event types.  ``rates`` gives
    each symbol's average update rate (events per time unit); a single
    float applies to all symbols.  ``coupling`` is the probability that a
    symbol's next step follows the market factor — higher coupling means
    correlated histories are more common and a fixed threshold passes more
    pairs.
    """

    symbols: tuple[str, ...] = tuple(f"S{i}" for i in range(8))
    rates: float | tuple[float, ...] = 1.0
    coupling: float = 0.5
    regime_persistence: float = 0.97
    base_price: float = 100.0
    factor_volatility: float = 1.0
    noise_volatility: float = 1.0
    num_events: int = 10_000
    seed: int = 42

    def __post_init__(self) -> None:
        if not self.symbols:
            raise DatasetError("a stock stream needs at least one symbol")

    def rate_of(self, index: int) -> float:
        if isinstance(self.rates, tuple):
            return self.rates[index]
        return float(self.rates)


@dataclass
class _SymbolState:
    price: float
    history: list[float] = field(default_factory=list)
    coupled: bool = False


def _warmup_history(
    name: str, initial_price: float, config: StockConfig
) -> list[float]:
    """Pre-stream price walk ending at *initial_price* (oldest first).

    Seeds each symbol's history with ``HISTORY_LENGTH - 1`` plausible
    prices from a dedicated per-symbol RNG, walking backward from the
    seeded base price.  Early events then carry genuinely varying
    histories instead of a constant-padded prefix — repeating one price
    nearly zeroes the centered cross-terms of the Pearson predicate and
    biased every warm-up correlation toward 0.  A separate RNG stream
    keeps the main generator's draw sequence (regimes, steps, arrival
    times) byte-for-byte unchanged.
    """
    wrng = random.Random(f"{config.seed}:{name}:warmup")
    prices: list[float] = []
    price = initial_price
    for _ in range(HISTORY_LENGTH - 1):
        price = max(price - wrng.gauss(0.0, config.noise_volatility), 1.0)
        prices.append(price)
    prices.reverse()
    return prices


def generate_stock_stream(config: StockConfig) -> list[Event]:
    """Produce a temporally ordered list of stock tick events.

    Each event's attributes: ``symbol``, ``price``, and ``history`` — a
    tuple of the last :data:`HISTORY_LENGTH` prices.  Histories are
    seeded with a pre-stream warm-up walk per symbol (see
    :func:`_warmup_history`), so they are full-depth and non-degenerate
    from the first event on.
    """
    rng = random.Random(config.seed)
    types = {name: EventType(name, ("symbol", "price", "history"))
             for name in config.symbols}
    states = {}
    for name in config.symbols:
        initial = config.base_price * (1.0 + 0.1 * rng.random())
        states[name] = _SymbolState(
            price=initial,
            history=_warmup_history(name, initial, config),
        )
    processes = [
        ArrivalProcess(name, config.rate_of(index))
        for index, name in enumerate(config.symbols)
    ]
    factor_level = 0.0
    last_factor_time = 0.0
    events: list[Event] = []

    for type_name, timestamp in interleave_arrivals(
        processes, config.num_events, rng
    ):
        # Advance the shared market factor with time.
        elapsed = max(timestamp - last_factor_time, 1e-9)
        factor_step = rng.gauss(0.0, config.factor_volatility * elapsed ** 0.5)
        factor_level += factor_step
        last_factor_time = timestamp

        state = states[type_name]
        # Regime switching: sticky coupled/idiosyncratic states whose
        # stationary coupled fraction equals ``coupling``.
        if state.coupled:
            stay = config.regime_persistence
            state.coupled = rng.random() < stay
        else:
            enter = (
                config.coupling
                * (1.0 - config.regime_persistence)
                / max(1.0 - config.coupling, 1e-9)
            )
            state.coupled = rng.random() < enter
        if state.coupled:
            step = factor_step + rng.gauss(0.0, 0.1 * config.noise_volatility)
        else:
            step = rng.gauss(0.0, config.noise_volatility)
        state.price = max(state.price + step, 1.0)
        state.history.append(state.price)
        if len(state.history) > HISTORY_LENGTH:
            del state.history[0]
        history = tuple(state.history)
        events.append(
            Event(
                type=types[type_name],
                timestamp=timestamp,
                attributes={
                    "symbol": type_name,
                    "price": state.price,
                    "history": history,
                },
                payload_size=_STOCK_PAYLOAD_BYTES,
            )
        )
    return events


def _history_correlations(
    events: Sequence[Event], left: str, right: str, window: float
) -> Iterator[float]:
    """Correlation samples of (left, right) pairs within the window —
    the distribution a correlation threshold selects from."""
    recent_left: list[Event] = []
    for event in events:
        name = event.type.name
        if name == left:
            recent_left.append(event)
        elif name == right:
            horizon = event.timestamp - window
            recent_left = [e for e in recent_left if e.timestamp >= horizon]
            for candidate in recent_left:
                yield pearson_correlation(
                    candidate["history"], event["history"]
                )


def calibrate_correlation_threshold(
    events: Sequence[Event],
    pair: tuple[str, str],
    window: float,
    target_selectivity: float,
    max_samples: int = 4000,
) -> float:
    """Pick ``T`` so ``Corr(left.history, right.history) > T`` passes about
    ``target_selectivity`` of in-window pairs on this sample.

    Mirrors the paper's per-query threshold choice: the experiments need a
    known operating point, and the threshold is what sets it.
    """
    if not 0.0 < target_selectivity < 1.0:
        raise DatasetError(
            f"target selectivity must be in (0, 1), got {target_selectivity}"
        )
    samples = []
    for value in _history_correlations(events, pair[0], pair[1], window):
        samples.append(value)
        if len(samples) >= max_samples:
            break
    if not samples:
        return 0.0
    samples.sort()
    index = int(len(samples) * (1.0 - target_selectivity))
    index = min(max(index, 0), len(samples) - 1)
    return samples[index]
