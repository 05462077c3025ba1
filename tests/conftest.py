"""Shared fixtures and stream factories for the test suite."""

from __future__ import annotations

import os
import random

import pytest
from hypothesis import settings, strategies as st

from repro.core import Event, EventType, Pattern


#: ``HYPOTHESIS_PROFILE=deep`` gives every property that sets no example
#: budget of its own, such as the window-boundary oracle property, 1,000
#: examples; CI's pattern-oracle job runs under it.  Without the variable
#: Hypothesis keeps its own default profile.
settings.register_profile("deep", max_examples=1000)
if "HYPOTHESIS_PROFILE" in os.environ:
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

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


@st.composite
def boundary_streams(draw, type_names: str = "ABCX", max_events: int = 12):
    """A window and an in-order stream whose gaps often fall on the window
    bound in real arithmetic: an event at ``t + window`` for an earlier
    event's ``t``.  The rounded sum puts the float difference of the two
    on the window or one rounding step either side of it, where a pool
    purge, the window test and a partition span must all agree.  Other
    gaps are random, up to one and a half windows, or zero (a tie).  The
    stream starts within two windows of zero: far from it, a timestamp
    more than twice the window makes the difference of two timestamps a
    window apart exact, and no rounding is left to disagree about."""
    # Quotients by primes, so the window and the timestamps use their
    # whole mantissas: simple floats add and subtract without rounding.
    window = draw(st.integers(min_value=1, max_value=10**6)) / 65521
    timestamp = window * draw(st.integers(min_value=0, max_value=2 * 8191)) / 8191
    events: list[Event] = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_events))):
        anchor = draw(st.integers(min_value=-1, max_value=max_events))
        if events and anchor >= 0:
            bound = events[anchor % len(events)].timestamp + window
            timestamp = max(timestamp, bound)
        else:
            timestamp += window * draw(st.integers(0, 3 * 8191)) / (2 * 8191)
        name = draw(st.sampled_from(type_names))
        events.append(Event(TYPES[name], timestamp,
                            {"x": draw(st.integers(0, 2))}))
    return window, events


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
