"""Synthetic smart-home sensor stream (paper Section 5.1, dataset 2).

The paper's second dataset holds 13.9M readings from smart-home sensors
used for human-activity recognition: each reading carries a timestamp, the
recognized activity (used as the event type), and 33 raw attributes such
as the person's acceleration and distances from predefined locations.
Query conditions compare zone distances between adjacent positions,
``A.distanceX < B.distanceY``.

The generator simulates a resident moving between zones of a home: a
random-walk position drives per-zone distances, and each activity type is
biased toward its natural zone, so distance comparisons between activity
types have stable, plantable selectivities.  The ``zone_bias`` knob scales
how strongly an activity pins the resident near its zone, which sets the
selectivity of the paper's distance predicates;
:func:`calibrate_distance_margin` turns a target selectivity into the
margin used by the query builder.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence

from repro.core.errors import DatasetError
from repro.core.events import Event, EventType
from repro.datasets.base import ArrivalProcess, interleave_arrivals

__all__ = [
    "SensorConfig",
    "ZONES",
    "generate_sensor_stream",
    "calibrate_distance_margin",
]

ZONES = (
    "kitchen",
    "bedroom",
    "bathroom",
    "livingroom",
    "office",
    "entrance",
)

_EXTRA_ATTRIBUTES = 33 - (len(ZONES) + 3)  # acceleration x/y/z + distances

# Modelled payload: activity id + timestamp + 33 float attributes.
_SENSOR_PAYLOAD_BYTES = 8 + 8 + 33 * 8


@dataclass(frozen=True)
class SensorConfig:
    """Generator parameters.

    ``activities`` are the event types.  ``zone_of`` maps an activity to
    the zone it gravitates to (defaults to cycling through :data:`ZONES`).
    ``zone_bias`` in [0, 1]: 0 = positions independent of activity (every
    distance comparison ~50% selective), 1 = activities pin the resident
    to their zone (comparisons become nearly deterministic).
    """

    activities: tuple[str, ...] = (
        "cooking", "sleeping", "washing", "relaxing", "working", "walking",
    )
    rates: float | tuple[float, ...] = 1.0
    zone_bias: float = 0.3
    walk_step: float = 1.5
    home_size: float = 20.0
    num_events: int = 10_000
    seed: int = 42

    def rate_of(self, index: int) -> float:
        if isinstance(self.rates, tuple):
            return self.rates[index]
        return float(self.rates)


def _zone_positions(home_size: float) -> dict[str, tuple[float, float]]:
    positions = {}
    for index, zone in enumerate(ZONES):
        angle = 2.0 * math.pi * index / len(ZONES)
        positions[zone] = (
            home_size / 2.0 * (1.0 + 0.8 * math.cos(angle)),
            home_size / 2.0 * (1.0 + 0.8 * math.sin(angle)),
        )
    return positions


def generate_sensor_stream(config: SensorConfig) -> list[Event]:
    """Produce a temporally ordered list of sensor readings.

    Attributes per event: ``activity``, ``accel_x/y/z``, one
    ``distance_<zone>`` per zone, plus filler attributes ``raw_0..raw_N``
    to reach the dataset's 33-attribute schema.
    """
    rng = random.Random(config.seed)
    zone_positions = _zone_positions(config.home_size)
    types = {name: EventType(name) for name in config.activities}
    processes = [
        ArrivalProcess(name, config.rate_of(index))
        for index, name in enumerate(config.activities)
    ]
    position = [config.home_size / 2.0, config.home_size / 2.0]
    events: list[Event] = []
    for index, (type_name, timestamp) in enumerate(
        interleave_arrivals(processes, config.num_events, rng)
    ):
        home_zone = ZONES[
            config.activities.index(type_name) % len(ZONES)
        ]
        target = zone_positions[home_zone]
        # Biased random walk: drift toward the activity's zone, diffuse
        # otherwise.
        for axis in (0, 1):
            drift = config.zone_bias * (target[axis] - position[axis]) * 0.5
            noise = (1.0 - config.zone_bias) * rng.gauss(
                0.0, config.walk_step
            )
            position[axis] += drift + noise
            position[axis] = min(max(position[axis], 0.0), config.home_size)
        attributes: dict[str, object] = {
            "activity": type_name,
            "accel_x": rng.gauss(0.0, 1.0),
            "accel_y": rng.gauss(0.0, 1.0),
            "accel_z": rng.gauss(9.8, 0.5),
        }
        for zone, zone_pos in zone_positions.items():
            attributes[f"distance_{zone}"] = math.hypot(
                position[0] - zone_pos[0], position[1] - zone_pos[1]
            )
        for filler in range(_EXTRA_ATTRIBUTES):
            attributes[f"raw_{filler}"] = rng.random()
        events.append(
            Event(
                type=types[type_name],
                timestamp=timestamp,
                attributes=attributes,
                payload_size=_SENSOR_PAYLOAD_BYTES,
            )
        )
    return events


def calibrate_distance_margin(
    events: Sequence[Event],
    left: str,
    right: str,
    zone: str,
    window: float,
    target_selectivity: float,
    max_samples: int = 4000,
) -> float:
    """Margin ``M`` so ``right.distance_zone > left.distance_zone + M``
    passes about ``target_selectivity`` of in-window (left, right) pairs.

    The paper's sensor conditions are plain ``>`` comparisons; the margin
    generalises them so experiments can plant the selectivity they need
    (``M = 0`` recovers the paper's form).
    """
    if not 0.0 < target_selectivity < 1.0:
        raise DatasetError(
            f"target selectivity must be in (0, 1), got {target_selectivity}"
        )
    attribute = f"distance_{zone}"
    samples: list[float] = []
    recent: list[Event] = []
    for event in events:
        name = event.type.name
        if name == left:
            recent.append(event)
        elif name == right:
            horizon = event.timestamp - window
            recent = [e for e in recent if e.timestamp >= horizon]
            for candidate in recent:
                samples.append(event[attribute] - candidate[attribute])
                if len(samples) >= max_samples:
                    break
        if len(samples) >= max_samples:
            break
    if not samples:
        return 0.0
    samples.sort()
    index = int(len(samples) * (1.0 - target_selectivity))
    index = min(max(index, 0), len(samples) - 1)
    return samples[index]
