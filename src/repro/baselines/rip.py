"""RIP: run-based intra-query parallelism (Balkesen et al., DEBS'13).

RIP divides the input stream into fixed-size *chunks* by event sequence
number and deals them to execution units round-robin.  Because a match may
start near the end of a chunk and extend up to one window into the future,
each chunk's processing run also receives every later event within the
time window of the chunk's last owned event — the replication that keeps
detection correct and that makes RIP's duplication factor grow linearly
with the window (each event is replicated to roughly ``e_i W / B``
neighbouring runs), which is why it fails to scale with window size in the
paper's Figure 7.
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

__all__ = ["RIPEngine"]


class RIPEngine(PartitionedEngine):
    """Round-robin chunked data parallelism with window replication."""

    def __init__(self, pattern: Pattern, num_units: int,
                 chunk_size: int = 256) -> None:
        super().__init__(pattern, num_units)
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        self.chunk_size = chunk_size

    def spans(self, stream: Lookahead) -> Iterator[PartitionSpan]:
        """Chunk ``k`` covers positions ``[k * chunk_size, (k + 1) *
        chunk_size)`` and owns their events; its span extends past them
        to every later event within one window of its last owned event
        (:func:`~repro.baselines.partitioned.within_reach`).  Lookahead
        is one chunk plus one window of events per span."""
        window = self.pattern.window
        chunk = self.chunk_size
        index = 0
        start = 0
        while True:
            first = stream.get(start)
            if first is None:
                return
            end = start
            last_owned = first
            while end < start + chunk:
                event = stream.get(end)
                if event is None:
                    break
                last_owned = event
                end += 1
            extended_end = end
            while within_reach(stream.get(extended_end), last_owned, window):
                extended_end += 1
            yield PartitionSpan(
                index=index,
                begin=start,
                end=extended_end,
                size=extended_end - start,
                own_start=first.timestamp,
                own_start_id=first.event_id,
                own_end=last_owned.timestamp,
                own_end_id=last_owned.event_id + 1,
            )
            index += 1
            start += chunk

    def assign_unit(self, span, unit_loads: list[float]) -> int:
        return span.index % self.num_units
