"""Shared description of the data-parallel baselines (RIP, RR/JSQ/LLSF).

Both families split the input stream into *partitions* (overlapping
sub-streams), run an independent sequential matcher per partition, and
deduplicate results by an ownership rule: a match belongs to the partition
that owns its earliest event.  Because any subset of events within the
window can form a match, partitions must overlap by (at least) one window
length — the stream-duplication cost that is inherent to data-parallel CEP
and that HYPERSONIC's design avoids (paper Sections 1 and 4).

A strategy is a description only.  It provides:
  * :meth:`PartitionedEngine.spans` — its partitions as stream-position
    ranges, in ``begin`` order, with bounded lookahead;
  * :meth:`PartitionedEngine.assign_unit` — the partition -> execution-unit
    assignment policy.

:class:`repro.simulator.partition_sim.PartitionSimulation` is the one
runner: it feeds each span's events to its own sequential matcher and keeps
the matches the span owns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.core.events import Event
from repro.core.matches import Match
from repro.core.patterns import Pattern
from repro.core.streams import Lookahead

__all__ = ["PartitionSpan", "PartitionedEngine", "within_reach"]


def _owns_key(match: Match) -> tuple[float, int]:
    earliest_event = min(
        match.events(), key=lambda e: (e.timestamp, e.event_id)
    )
    return (earliest_event.timestamp, earliest_event.event_id)


def within_reach(event: Event | None, last: Event, window: float) -> bool:
    """Must a span whose last owned event is *last* also hold *event*, a
    later one (``None`` past the end of the stream)?

    Yes when *event* is within one window of *last* by either arithmetic
    the matchers use: the difference ``event - last <= window`` that
    ``fits_with`` and the pool purges take, or the sum ``event <= last +
    window`` that a trailing negation guard takes.  Rounding can make
    either hold alone.  Once a side fails it fails for every later
    timestamp too, so the events within reach are a run.
    """
    if event is None:
        return False
    timestamp = event.timestamp
    return (timestamp - last.timestamp <= window
            or timestamp <= last.timestamp + window)


@dataclass(frozen=True)
class PartitionSpan:
    """One unit of data-parallel work, described by stream *positions*.

    ``begin`` is the stream position of the partition's first input event;
    ``end`` is the exclusive position past its last (``None`` meaning the
    partition runs to the end of the stream); ``size`` is its input-event
    count (``end - begin`` when bounded), the queue-length proxy JSQ
    balances on.  The partition owns a match when the match's earliest
    event lies in ``[(own_start, own_start_id), (own_end, own_end_id))``
    in ``(timestamp, event_id)`` order.
    """

    index: int
    begin: int
    end: int | None
    size: int
    own_start: float
    own_end: float
    own_start_id: int = -1
    own_end_id: int = 1 << 62

    def contains(self, position: int) -> bool:
        return self.begin <= position and (
            self.end is None or position < self.end
        )

    def owns(self, match: Match) -> bool:
        key = _owns_key(match)
        return (self.own_start, self.own_start_id) <= key < (
            self.own_end,
            self.own_end_id,
        )


class PartitionedEngine:
    """A partition strategy: how the stream splits and who runs each part.

    Subclasses implement :meth:`spans` and :meth:`assign_unit`.
    """

    def __init__(self, pattern: Pattern, num_units: int) -> None:
        if num_units < 1:
            raise ValueError("need at least one execution unit")
        self.pattern = pattern
        self.num_units = num_units

    def spans(self, stream: Lookahead) -> Iterator[PartitionSpan]:
        """Yield :class:`PartitionSpan`\\ s in ``begin`` order from a
        single-pass stream, peeking at most a bounded distance ahead of
        the span being built, so the simulator's resident events stay
        bounded by the window rather than the stream length."""
        raise NotImplementedError

    def assign_unit(self, span: PartitionSpan,
                    unit_loads: list[float]) -> int:
        """The unit that runs *span*; ``unit_loads`` holds the virtual
        time each unit has spent so far."""
        raise NotImplementedError
