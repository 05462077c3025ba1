"""CitiBike-style bike-trip chains (the Kleene workload).

The stock and sensor generators exercise correlation and threshold
predicates; what they lack is a stream whose *natural* query is a Kleene
closure.  Bike-share feeds are the textbook case: every rental is a chain
``start, ride..., end`` of events keyed by the bike, where the number of
in-trip ride pings varies per trip.  The matching query is

    SEQ(start, ride+, end)  with  start.bike == ride.bike == end.bike

and the stream partitions cleanly by ``bike`` — each bike's chains are
independent, which is what makes the dataset a fair per-key partitioning
benchmark and a Kleene stressor for the agent chain (every subsequence of
a trip's pings is a distinct skip-till-any match).

Each event carries ``bike`` (the partition key), ``station`` (where the
trip started / ended; ``-1`` for in-trip pings), ``leg`` (the ping index
within its trip, ``0`` for start/end), and ``distance`` (the leg distance
for ride pings, else ``0.0``) — enough for equality joins on the key and
for aggregates over the Kleene tuple (e.g. total trip distance).

A fraction of trips (``dropout``) loses its ``end`` event, as real feeds
do.  Those chains never complete, which keeps match counts honest (an
engine that ignores the final stage would overcount) and gives the
negation template something to find: ``SEQ(start, !end, start)`` on one
bike is exactly "rented again without a recorded return".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.errors import DatasetError
from repro.core.events import Event, EventType
from repro.datasets.base import ordered_event_stream

__all__ = ["TripConfig", "generate_trip_stream", "TRIP_TYPES"]

#: Event type names, in chain order.
TRIP_TYPES = ("start", "ride", "end")

# Modelled payload: bike + station + leg + distance.
_TRIP_PAYLOAD_BYTES = 8 * 4


@dataclass(frozen=True)
class TripConfig:
    """Generator parameters.

    ``mean_rides`` is the expected number of ride pings per trip (the
    Kleene length driver; geometric, at least one).  ``ride_gap`` and
    ``idle_gap`` are mean exponential gaps between in-trip events and
    between one bike's trips.  ``dropout`` is the probability a trip's
    ``end`` event is lost.
    """

    num_bikes: int = 12
    num_trips: int = 120
    mean_rides: float = 3.0
    ride_gap: float = 0.5
    idle_gap: float = 8.0
    dropout: float = 0.05
    num_stations: int = 8
    seed: int = 42

    def __post_init__(self) -> None:
        if self.num_bikes < 1:
            raise DatasetError("num_bikes must be >= 1")
        if self.num_trips < 1:
            raise DatasetError("num_trips must be >= 1")
        if self.mean_rides < 1.0:
            raise DatasetError("mean_rides must be >= 1 (tuples are non-empty)")
        if not 0.0 <= self.dropout < 1.0:
            raise DatasetError("dropout must be in [0, 1)")


def _trips_of(config: TripConfig, bike: int) -> int:
    """Distribute ``num_trips`` across the fleet, earlier bikes first."""
    base, extra = divmod(config.num_trips, config.num_bikes)
    return base + (1 if bike < extra else 0)


def generate_trip_stream(config: TripConfig | None = None) -> list[Event]:
    """Produce the interleaved, time-ordered trip-chain stream.

    Each bike's timeline is generated from its own seeded RNG (so the
    fleet size does not perturb individual chains) and the timelines are
    merged on the library-wide ``(timestamp, event_id)`` stream order.
    """
    if config is None:
        config = TripConfig()
    types = {
        name: EventType(name, ("bike", "station", "leg", "distance"))
        for name in TRIP_TYPES
    }
    continue_p = 1.0 - 1.0 / config.mean_rides
    events: list[Event] = []
    for bike in range(config.num_bikes):
        rng = random.Random(f"{config.seed}:{bike}")
        clock = rng.expovariate(1.0 / config.idle_gap)
        for _ in range(_trips_of(config, bike)):
            station = rng.randrange(config.num_stations)
            events.append(Event(
                type=types["start"],
                timestamp=clock,
                attributes={
                    "bike": bike, "station": station,
                    "leg": 0, "distance": 0.0,
                },
                payload_size=_TRIP_PAYLOAD_BYTES,
            ))
            leg = 0
            while True:
                leg += 1
                clock += rng.expovariate(1.0 / config.ride_gap)
                events.append(Event(
                    type=types["ride"],
                    timestamp=clock,
                    attributes={
                        "bike": bike, "station": -1, "leg": leg,
                        "distance": max(rng.gauss(1.0, 0.3), 0.05),
                    },
                    payload_size=_TRIP_PAYLOAD_BYTES,
                ))
                if rng.random() >= continue_p:
                    break
            clock += rng.expovariate(1.0 / config.ride_gap)
            if rng.random() >= config.dropout:
                events.append(Event(
                    type=types["end"],
                    timestamp=clock,
                    attributes={
                        "bike": bike,
                        "station": rng.randrange(config.num_stations),
                        "leg": 0, "distance": 0.0,
                    },
                    payload_size=_TRIP_PAYLOAD_BYTES,
                ))
            clock += rng.expovariate(1.0 / config.idle_gap)
    return ordered_event_stream(events)
