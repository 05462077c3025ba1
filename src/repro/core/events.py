"""Primitive events and event types (paper Section 2.1).

A *primitive event* ``e = {T, {a_1..a_n}, ts}`` carries a single event type
``T``, a set of named attributes, and an occurrence timestamp.  An *input
event stream* is a sequence of temporally ordered events.

Events are immutable: engines share them freely between buffers (the paper's
agent-global buffer stores each payload once and hands out pointers — in
Python the object reference *is* the pointer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping

from repro.core.errors import StreamError

__all__ = ["EventType", "Event", "check_order", "validate_stream_order",
           "stream_from_records"]


@dataclass(frozen=True, slots=True)
class EventType:
    """A named kind of primitive event.

    Two event types are equal iff their names are equal; the optional
    ``attributes`` tuple documents the schema but does not affect identity,
    so a type created ad hoc from a name compares equal to the declared one.
    """

    name: str
    attributes: tuple[str, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("event type name must be non-empty")

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


_event_counter = 0


def _next_event_id() -> int:
    global _event_counter
    _event_counter += 1
    return _event_counter


@dataclass(frozen=True, slots=True)
class Event:
    """A single primitive event.

    Parameters
    ----------
    type:
        The event type this instance belongs to.
    timestamp:
        Occurrence time.  The library treats timestamps as floats in
        arbitrary units; time windows use the same units.
    attributes:
        Read-only mapping of attribute name to value.
    event_id:
        A process-unique sequence number.  It serves two purposes: a total
        tie-break order for events with equal timestamps, and a stable
        identity for match-set comparison across engines.
    payload_size:
        The modelled size of the event payload in bytes (``v_i`` in the
        paper's memory analysis).  Pure bookkeeping — it never affects
        matching, only the memory-consumption metrics.
    """

    type: EventType
    timestamp: float
    attributes: Mapping[str, Any] = field(default_factory=dict)
    event_id: int = field(default_factory=_next_event_id)
    payload_size: int = 64

    def __getitem__(self, attribute: str) -> Any:
        return self.attributes[attribute]

    def get(self, attribute: str, default: Any = None) -> Any:
        return self.attributes.get(attribute, default)

    @property
    def type_name(self) -> str:
        return self.type.name

    def __hash__(self) -> int:
        return hash(self.event_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.event_id == other.event_id

    def __lt__(self, other: "Event") -> bool:
        """Stream order: by timestamp, then arrival sequence."""
        return (self.timestamp, self.event_id) < (other.timestamp, other.event_id)

    # Pickle state as a plain tuple: the procs backend unpickles every
    # event it routes, and the dataclass default looks up fields() per
    # object.
    def __getstate__(self) -> tuple:
        return (self.type, self.timestamp, self.attributes, self.event_id,
                self.payload_size)

    def __setstate__(self, state: tuple) -> None:
        setattr_ = object.__setattr__
        setattr_(self, "type", state[0])
        setattr_(self, "timestamp", state[1])
        setattr_(self, "attributes", state[2])
        setattr_(self, "event_id", state[3])
        setattr_(self, "payload_size", state[4])

    def __repr__(self) -> str:
        return (
            f"Event({self.type.name}@{self.timestamp:g}#{self.event_id})"
        )


def check_order(event: Event, previous: float) -> float:
    """The timestamp of *event*, which follows an event at *previous* in
    the stream; :class:`StreamError` when it is earlier.

    The paper assumes the global stream emits events in timestamp order
    (Section 3.1).  Every entry point that takes a stream applies this
    rule to each event, so a violation surfaces at the offending event
    rather than as a silently wrong match set.
    """
    timestamp = event.timestamp
    if timestamp < previous:
        raise StreamError(
            f"out-of-order event {event!r}: timestamp {timestamp} "
            f"< previous {previous}"
        )
    return timestamp


def validate_stream_order(stream: Iterable[Event]) -> Iterator[Event]:
    """Yield events from *stream*, raising :class:`StreamError` on
    disorder (:func:`check_order`)."""
    last = float("-inf")
    for event in stream:
        last = check_order(event, last)
        yield event


def stream_from_records(
    records: Iterable[tuple[str, float, Mapping[str, Any]]],
    types: Mapping[str, EventType] | None = None,
) -> Iterator[Event]:
    """Build an event stream from ``(type_name, timestamp, attrs)`` records.

    Unknown type names create fresh :class:`EventType` instances on the fly;
    pass *types* to reuse declared types (and their schemas).
    """
    cache: dict[str, EventType] = dict(types) if types else {}
    for type_name, timestamp, attrs in records:
        event_type = cache.get(type_name)
        if event_type is None:
            event_type = EventType(type_name)
            cache[type_name] = event_type
        yield Event(type=event_type, timestamp=timestamp, attributes=dict(attrs))
