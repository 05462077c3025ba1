"""Window-based data-parallel strategies of Xiao et al. (2017):
RR (round-robin), JSQ (join-the-shortest-queue) and LLSF
(least-loaded-server-first).

Event time is divided into consecutive segments of one window length
``W``.  A segment owns every match whose earliest event falls inside it;
since matches span at most ``W``, the segment's processing run needs the
events of the segment plus the following window — so every event is
replicated to exactly two runs (duplication factor ~2, independent of
``W``, which is why these strategies scale better than RIP but still
carry the duplication and whole-window working sets that HYPERSONIC
avoids).

The three variants differ only in how segments are assigned to execution
units:

* **RR** — segment ``k`` goes to unit ``k mod n``;
* **JSQ** — the unit with the fewest pending input events;
* **LLSF** — the unit with the least accumulated measured load.  Xiao et
  al. show empirically that LLSF dominates the other two; the paper under
  reproduction uses LLSF as its strongest data-parallel comparator.
"""

from __future__ import annotations

from typing import Iterator

from repro.core.patterns import Pattern
from repro.core.streams import Lookahead
from repro.baselines.partitioned import (
    PartitionSpan,
    PartitionedEngine,
    within_reach,
)

__all__ = ["WindowSegmentEngine", "RREngine", "JSQEngine", "LLSFEngine"]


class WindowSegmentEngine(PartitionedEngine):
    """Common segmentation; subclasses choose the assignment policy."""

    def spans(self, stream: Lookahead) -> Iterator[PartitionSpan]:
        """Segment ``k`` owns the events in ``[origin + kW, origin +
        (k + 1)W)``, and its span runs from its first event to where
        segment ``k + 2`` begins, and on past that through any event at
        most one window after the segment's last event.  So a span is
        final soon after the first event two segments ahead is seen — a
        lookahead of about two windows of events.  An empty segment's span
        starts where the next segment starts, and is skipped when that
        leaves it without events.
        """
        first = stream.get(0)
        if first is None:
            return
        window = self.pattern.window
        origin = first.timestamp

        def bound(segment: int) -> float:
            return origin + segment * window

        def segment_of(timestamp: float) -> int:
            # The quotient can round across a bound; settle it against the
            # bounds that ownership uses, or an event lands in a span that
            # does not own it.
            segment = int((timestamp - origin) / window)
            while timestamp >= bound(segment + 1):
                segment += 1
            while timestamp < bound(segment):
                segment -= 1
            return segment

        def reach(segment: int) -> int:
            # Bounds are rounded one by one, so two of them can lie a hair
            # less than a window apart and an event that joins (or, as a
            # trailing negation guard, voids) a match of the segment can
            # be the first event of segment + 2.
            end = starts[segment + 2]
            last = starts[segment + 1] - 1
            if last >= starts[segment]:
                last_event = stream.get(last)
                while within_reach(stream.get(end), last_event, window):
                    end += 1
            return end

        def emit(segment: int, end: int) -> Iterator[PartitionSpan]:
            begin = starts[segment]
            if begin >= end:
                return
            yield PartitionSpan(
                index=segment,
                begin=begin,
                end=end,
                size=end - begin,
                own_start=bound(segment),
                own_end=bound(segment + 1),
                own_start_id=-1,
                own_end_id=-1,
            )

        starts = [0]           # starts[k] = first position with segment >= k
        last_segment = 0
        emitted = 0            # next segment index to consider
        position = 1
        while True:
            event = stream.get(position)
            if event is None:
                break
            segment = segment_of(event.timestamp)
            if segment > last_segment:
                starts.extend([position] * (segment - last_segment))
                last_segment = segment
                while emitted + 2 <= last_segment:
                    yield from emit(emitted, reach(emitted))
                    emitted += 1
            position += 1
        # The last two segments run to the end of the stream.
        for segment in range(emitted, last_segment + 1):
            yield from emit(segment, position)


class RREngine(WindowSegmentEngine):
    """Round-robin segment assignment."""

    def assign_unit(self, span, unit_loads: list[float]) -> int:
        return span.index % self.num_units


class JSQEngine(WindowSegmentEngine):
    """Join-the-shortest-queue: fewest pending input events wins.

    In this offline setting queue length is approximated by the number of
    events already dealt to each unit.
    """

    def __init__(self, pattern: Pattern, num_units: int) -> None:
        super().__init__(pattern, num_units)
        self._pending = [0] * num_units

    def assign_unit(self, span, unit_loads: list[float]) -> int:
        unit = min(range(self.num_units), key=lambda i: self._pending[i])
        self._pending[unit] += span.size
        return unit


class LLSFEngine(WindowSegmentEngine):
    """Least-loaded-server-first: least accumulated measured load wins.

    ``unit_loads`` carries the virtual time each unit has spent so far,
    maintained by the partition simulator — the greedy heuristic Xiao et
    al. found strongest.
    """

    def assign_unit(self, span, unit_loads: list[float]) -> int:
        return min(range(self.num_units), key=lambda i: unit_loads[i])
