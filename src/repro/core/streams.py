"""Stream utilities: workload sources, merging, filtering, inspection.

These helpers operate on plain event iterables so they compose with any
source — the synthetic dataset generators, lists in tests, or files loaded
via :mod:`repro.datasets.loader`.

The :class:`WorkloadSource` protocol is the library-wide contract for
*streaming* inputs: a single-pass, bounded-memory event iterator that can
additionally serve a bounded ``prefix(n)`` sample (used by
``ensure_statistics``) without losing those events from the subsequent
full iteration.  Every simulation entry point coerces its input through
:func:`as_source`, so generators work everywhere lists do, without the
stream ever being materialized.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Callable, Iterable, Iterator, Sequence

from repro.core.errors import StreamError
from repro.core.events import Event

__all__ = [
    "WorkloadSource",
    "ListSource",
    "IterSource",
    "as_source",
    "Lookahead",
    "merge_streams",
    "filter_types",
    "take",
    "substream_rates",
    "split_by_type",
    "throttle",
    "concat_streams",
]


class WorkloadSource:
    """Protocol for streaming workload inputs.

    A source is iterable (yielding :class:`Event` in stream order) and can
    produce a ``prefix(n)`` sample for statistics estimation without
    consuming those events from the main iteration.  ``replayable`` tells
    multi-pass consumers (strategy comparisons) whether ``__iter__`` may
    be called more than once; a non-replayable source is buffered once at
    the entry-point boundary when a second pass is unavoidable.

    Third-party sources need not subclass this — :func:`as_source`
    duck-types on ``prefix``/``__iter__``/``replayable``.
    """

    replayable = False

    def prefix(self, count: int) -> list[Event]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[Event]:
        raise NotImplementedError


class ListSource(WorkloadSource):
    """A source over an in-memory sequence (zero-copy, replayable)."""

    replayable = True

    def __init__(self, events: Sequence[Event]) -> None:
        self._events = events

    def prefix(self, count: int) -> list[Event]:
        return list(self._events[:count])

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __len__(self) -> int:
        return len(self._events)


class IterSource(WorkloadSource):
    """A single-pass source over an arbitrary iterable.

    ``prefix(n)`` pulls up to *n* events into an internal buffer; the main
    iteration replays that buffer first, then continues the underlying
    iterator, releasing the buffer as it goes.  Iterating twice raises
    :class:`~repro.core.errors.StreamError` — wrap the producer in a
    replayable source (or a list) for multi-pass workloads.
    """

    replayable = False

    def __init__(self, events: Iterable[Event]) -> None:
        self._iterator = iter(events)
        self._buffer: list[Event] = []
        self._consumed = False

    def prefix(self, count: int) -> list[Event]:
        if self._consumed:
            raise StreamError(
                "single-pass source already consumed; prefix() must be "
                "called before iteration"
            )
        while len(self._buffer) < count:
            event = next(self._iterator, None)
            if event is None:
                break
            self._buffer.append(event)
        return list(self._buffer[:count])

    def __iter__(self) -> Iterator[Event]:
        if self._consumed:
            raise StreamError(
                "single-pass source already consumed; use a replayable "
                "source (a list, ListSource, or a CSV stream source) for "
                "multi-pass runs"
            )
        self._consumed = True
        return self._generate()

    def _generate(self) -> Iterator[Event]:
        buffer, self._buffer = self._buffer, []
        for event in buffer:
            yield event
        del buffer
        yield from self._iterator


def as_source(events: "Iterable[Event] | WorkloadSource") -> WorkloadSource:
    """Coerce *events* into a :class:`WorkloadSource` without copying.

    Sources (including duck-typed ones) pass through unchanged; sequences
    are wrapped by reference; any other iterable becomes a single-pass
    :class:`IterSource`.
    """
    if isinstance(events, WorkloadSource):
        return events
    if (
        hasattr(events, "prefix")
        and hasattr(events, "replayable")
        and hasattr(events, "__iter__")
    ):
        return events  # duck-typed source (e.g. a CSV stream source)
    if isinstance(events, (list, tuple)):
        return ListSource(events)
    return IterSource(events)


class Lookahead:
    """Bounded forward random access over a single-pass event stream.

    ``get(position)`` returns the event at an absolute stream position
    (``None`` past the end), buffering only the span between the lowest
    position still needed and the highest position peeked — the window of
    a streaming consumer that must see a little ahead of where it
    processes (partition span construction needs up to two windows of
    lookahead).  ``release(position)`` drops buffered events below
    *position* once no consumer can ask for them again.
    """

    __slots__ = ("_iterator", "_buffer", "_base", "_exhausted")

    def __init__(self, events: Iterable[Event]) -> None:
        self._iterator = iter(events)
        self._buffer: deque[Event] = deque()
        self._base = 0
        self._exhausted = False

    def get(self, position: int) -> Event | None:
        if position < self._base:
            raise IndexError(
                f"position {position} already released (base {self._base})"
            )
        while self._base + len(self._buffer) <= position:
            if self._exhausted:
                return None
            event = next(self._iterator, None)
            if event is None:
                self._exhausted = True
                return None
            self._buffer.append(event)
        return self._buffer[position - self._base]

    def release(self, position: int) -> None:
        """Drop buffered events at positions strictly below *position*."""
        buffer = self._buffer
        while self._base < position and buffer:
            buffer.popleft()
            self._base += 1

    @property
    def buffered(self) -> int:
        """Number of events currently resident (test/diagnostic hook)."""
        return len(self._buffer)


def merge_streams(*streams: Iterable[Event]) -> Iterator[Event]:
    """Merge temporally ordered streams into one ordered stream.

    Ties are broken by ``event_id`` so the merge is deterministic and
    consistent with the library-wide stream order.
    """
    keyed = (
        ((event.timestamp, event.event_id), event)
        for event in heapq.merge(
            *streams, key=lambda event: (event.timestamp, event.event_id)
        )
    )
    for _key, event in keyed:
        yield event


def filter_types(stream: Iterable[Event], type_names: Sequence[str]) -> Iterator[Event]:
    """Keep only events whose type is in *type_names*."""
    wanted = frozenset(type_names)
    return (event for event in stream if event.type.name in wanted)


def take(stream: Iterable[Event], count: int) -> list[Event]:
    """Materialise the first *count* events of a stream."""
    return list(itertools.islice(stream, count))


def split_by_type(events: Iterable[Event]) -> dict[str, list[Event]]:
    """Partition events by type name, preserving order — the splitter's job
    done eagerly (useful in tests and statistics collection)."""
    buckets: dict[str, list[Event]] = {}
    for event in events:
        buckets.setdefault(event.type.name, []).append(event)
    return buckets


def substream_rates(
    events: Sequence[Event],
    type_names: Iterable[str] | None = None,
) -> dict[str, float]:
    """Average arrival rate ``e_i`` per event type over the sample's span.

    Rates are events per time unit, measured over the full timestamp span of
    the sample.  With fewer than two events (or zero span) every present
    type gets rate 0.0 — callers should sample enough events for stable
    statistics, as the paper does in its preprocessing step (Section 5.1).
    """
    if not events:
        return {name: 0.0 for name in (type_names or ())}
    span = events[-1].timestamp - events[0].timestamp
    counts: dict[str, int] = {}
    for event in events:
        counts[event.type.name] = counts.get(event.type.name, 0) + 1
    names = set(counts)
    if type_names is not None:
        names |= set(type_names)
    if span <= 0:
        return {name: 0.0 for name in names}
    return {name: counts.get(name, 0) / span for name in names}


def throttle(
    stream: Iterable[Event], predicate: Callable[[Event], bool]
) -> Iterator[Event]:
    """Drop events failing *predicate* (generic filtering helper)."""
    return (event for event in stream if predicate(event))


def concat_streams(*segments: Sequence[Event], gap: float = 0.0) -> list[Event]:
    """Stitch independently generated stream segments into one in-order
    stream.

    Each segment after the first is re-stamped so its timestamps continue
    ``gap`` after the previous segment's last event (segment-local
    timestamps are preserved as offsets), and its events are re-created so
    ids stay globally fresh.  This is the canonical way to build
    regime-shifting workloads: generate each regime with its own
    generator config and seed, then concatenate — the same idiom the
    bench harness uses for its rate-shift scenario.
    """
    out: list[Event] = []
    for segment in segments:
        seg = list(segment)
        if not seg:
            continue
        if out:
            shift = out[-1].timestamp + gap
            seg = [
                Event(
                    type=event.type,
                    timestamp=event.timestamp + shift,
                    attributes=event.attributes,
                    payload_size=event.payload_size,
                )
                for event in seg
            ]
        out.extend(seg)
    return out
