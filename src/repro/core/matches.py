"""Partial and full pattern matches.

A *partial match* is an immutable binding of pattern positions to events,
built incrementally as events arrive (paper Section 2.2).  Extending a
partial match creates a new object sharing the existing bound events — the
Python references play the role of the paper's event pointers, so payloads
are never copied between buffers.

Following the paper (Section 3.2), the *timestamp of a partial match* is the
timestamp of the **earliest** event it contains; buffers purge by this value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.core.events import Event

__all__ = ["PartialMatch", "Match", "match_key"]


@dataclass(frozen=True, slots=True)
class PartialMatch:
    """An immutable set of bound events indexed by pattern position.

    ``binding`` maps a position name to an :class:`Event` or, for Kleene
    positions, to a tuple of events in stream order.
    """

    binding: Mapping[str, Event | tuple[Event, ...]]
    earliest: float
    latest: float

    @classmethod
    def empty(cls) -> "PartialMatch":
        return cls(binding={}, earliest=float("inf"), latest=float("-inf"))

    @classmethod
    def of(cls, position: str, event: Event) -> "PartialMatch":
        return cls(
            binding={position: event},
            earliest=event.timestamp,
            latest=event.timestamp,
        )

    def extended(self, position: str, event: Event) -> "PartialMatch":
        """Bind *event* at *position*, returning a new partial match."""
        new_binding = dict(self.binding)
        new_binding[position] = event
        return PartialMatch(
            binding=new_binding,
            earliest=min(self.earliest, event.timestamp),
            latest=max(self.latest, event.timestamp),
        )

    def extended_kleene(self, position: str, event: Event) -> "PartialMatch":
        """Append *event* to the Kleene tuple at *position*."""
        new_binding = dict(self.binding)
        existing = new_binding.get(position, ())
        assert isinstance(existing, tuple), "kleene position must bind a tuple"
        new_binding[position] = existing + (event,)
        return PartialMatch(
            binding=new_binding,
            earliest=min(self.earliest, event.timestamp),
            latest=max(self.latest, event.timestamp),
        )

    def events(self) -> Iterator[Event]:
        """All bound events, Kleene tuples flattened."""
        for bound in self.binding.values():
            if isinstance(bound, tuple):
                yield from bound
            else:
                yield bound

    def event_count(self) -> int:
        """Number of bound events (``a_i`` contribution in the memory model)."""
        return sum(
            len(bound) if isinstance(bound, tuple) else 1
            for bound in self.binding.values()
        )

    def within_window(self, window: float) -> bool:
        return self.latest - self.earliest <= window

    def fits_with(self, event: Event, window: float) -> bool:
        """Would adding *event* keep the match within *window*?

        ``max(self.latest, ts) - min(self.earliest, ts) <= window``, with
        ``max`` and ``min`` written out as the conditional expressions
        CPython's two-argument forms evaluate, as
        :func:`repro.core.nfa.seq_candidates` does.
        """
        now = event.timestamp
        latest = self.latest
        earliest = self.earliest
        return ((now if now > latest else latest)
                - (now if now < earliest else earliest) <= window)

    def span(self) -> float:
        return self.latest - self.earliest

    @property
    def timestamp(self) -> float:
        """The paper's partial-match timestamp: its earliest event's."""
        return self.earliest

    # Pickle state as a plain tuple, as for Event: procs workers forward
    # and unpickle partial matches.
    def __getstate__(self) -> tuple:
        return (self.binding, self.earliest, self.latest)

    def __setstate__(self, state: tuple) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "binding", state[0])
        setattr_(self, "earliest", state[1])
        setattr_(self, "latest", state[2])

    def __contains__(self, position: str) -> bool:
        return position in self.binding

    def __getitem__(self, position: str) -> Event | tuple[Event, ...]:
        return self.binding[position]

    def __repr__(self) -> str:
        parts = []
        for position, bound in self.binding.items():
            if isinstance(bound, tuple):
                ids = ",".join(str(event.event_id) for event in bound)
                parts.append(f"{position}=({ids})")
            else:
                parts.append(f"{position}=#{bound.event_id}")
        return f"PartialMatch[{' '.join(parts)}]"


def match_key(binding: Mapping[str, Event | tuple[Event, ...]]) -> tuple:
    """Canonical identity of a (partial) match for cross-engine comparison.

    Two engines agree on a match iff they bound the same event ids to the
    same positions; the key is order-insensitive in positions and therefore
    safe to collect into sets.
    """
    parts = []
    for position in sorted(binding):
        bound = binding[position]
        if isinstance(bound, tuple):
            parts.append((position, tuple(event.event_id for event in bound)))
        else:
            parts.append((position, bound.event_id))
    return tuple(parts)


@dataclass(frozen=True, slots=True)
class Match:
    """A full pattern match reported to the user.

    ``detected_at`` records the arrival time of the event that completed the
    match plus any modelled processing delay; detection latency is
    ``detected_at - latest`` (paper Section 5.1 defines latency as detection
    time minus the arrival time of the latest constituent event).
    """

    binding: Mapping[str, Event | tuple[Event, ...]]
    earliest: float
    latest: float
    detected_at: float = field(default=float("nan"), compare=False)

    @classmethod
    def from_partial(
        cls, partial: PartialMatch, detected_at: float = float("nan")
    ) -> "Match":
        return cls(
            binding=dict(partial.binding),
            earliest=partial.earliest,
            latest=partial.latest,
            detected_at=detected_at,
        )

    @property
    def key(self) -> tuple:
        return match_key(self.binding)

    @property
    def latency(self) -> float:
        return self.detected_at - self.latest

    def events(self) -> Iterator[Event]:
        for bound in self.binding.values():
            if isinstance(bound, tuple):
                yield from bound
            else:
                yield bound

    def __getitem__(self, position: str) -> Event | tuple[Event, ...]:
        return self.binding[position]

    def __hash__(self) -> int:
        return hash(self.key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Match):
            return NotImplemented
        return self.key == other.key

    def __repr__(self) -> str:
        parts = []
        for position in sorted(self.binding):
            bound = self.binding[position]
            if isinstance(bound, tuple):
                ids = ",".join(str(event.event_id) for event in bound)
                parts.append(f"{position}=({ids})")
            else:
                parts.append(f"{position}=#{bound.event_id}")
        return f"Match[{' '.join(parts)}]"
