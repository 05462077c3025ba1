"""Shared fixtures and stream factories for the test suite."""

from __future__ import annotations

import random

import pytest

from repro.core import Event, EventType, Pattern


TYPE_NAMES = ("A", "B", "C", "D", "X")
TYPES = {name: EventType(name) for name in TYPE_NAMES}


def make_stream(
    num_events: int = 400,
    seed: int = 0,
    type_names: tuple[str, ...] = TYPE_NAMES,
    attr_range: int = 10,
    gap: float = 1.0,
) -> list[Event]:
    """Deterministic random in-order stream used across the suite."""
    rng = random.Random(seed)
    events = []
    timestamp = 0.0
    for _ in range(num_events):
        timestamp += rng.random() * gap
        name = type_names[rng.randrange(len(type_names))]
        events.append(
            Event(
                TYPES.get(name, EventType(name)),
                timestamp,
                {"x": rng.randrange(attr_range)},
            )
        )
    return events


@pytest.fixture(params=["numpy", "fallback"])
def backend(request, monkeypatch):
    """Run a test once on the numpy kernels and once on the pure-Python
    fallback, forced by nulling the module's ``np`` handle."""
    import repro.core.vectorized as vec

    if request.param == "numpy":
        if not vec.have_numpy():
            pytest.skip("numpy not importable")
    else:
        monkeypatch.setattr(vec, "np", None)
    return request.param


@pytest.fixture
def stream() -> list[Event]:
    return make_stream()


@pytest.fixture
def small_stream() -> list[Event]:
    return make_stream(num_events=120, seed=3)


@pytest.fixture
def seq_pattern() -> Pattern:
    return Pattern.sequence(["A", "B", "C"], window=6.0)


@pytest.fixture
def kleene_pattern() -> Pattern:
    return Pattern.sequence(["A", "B", "C"], window=5.0, kleene=[1])


@pytest.fixture
def negation_pattern() -> Pattern:
    return Pattern.sequence(["A", "X", "B", "C"], window=6.0, negated=[1])


@pytest.fixture
def trailing_negation_pattern() -> Pattern:
    return Pattern.sequence(["A", "B", "X"], window=5.0, negated=[2])


def reference_matches(pattern: Pattern, events) -> list:
    """Ground-truth matches via the sequential engine (incl. close() and
    the pattern's selection/consumption policies)."""
    from repro.core.policies import resolve_matches
    from repro.engine import SequentialEngine

    engine = SequentialEngine(pattern)
    matches = []
    for event in events:
        matches.extend(engine.process(event))
    matches.extend(engine.close())
    return resolve_matches(pattern, matches)
