"""CSV persistence for event streams.

Lets users bring their own data (e.g. the actual NASDAQ ticks if they have
them) and lets tests round-trip generated streams.  The format is plain
CSV with a header: ``type,timestamp,payload_size`` followed by one column
per attribute; non-scalar attributes (like the stock ``history`` tuple)
are encoded as ``;``-joined floats.
"""

from __future__ import annotations

import csv
from itertools import islice
from pathlib import Path
from typing import Iterator, Sequence

from repro.core.errors import StreamError
from repro.core.events import Event, EventType
from repro.core.streams import WorkloadSource

__all__ = [
    "save_stream",
    "load_stream",
    "iter_stream",
    "CSVStreamSource",
    "stream_source",
]


def _encode(value: object) -> str:
    if isinstance(value, tuple):
        return ";".join(repr(float(item)) for item in value)
    return repr(value)


def _decode(text: str) -> object:
    if ";" in text:
        return tuple(float(part) for part in text.split(";"))
    try:
        value = float(text)
    except ValueError:
        return text.strip("'\"")
    if value.is_integer() and "." not in text and "e" not in text.lower():
        return int(value)
    return value


def save_stream(events: Sequence[Event], path: str | Path) -> None:
    """Write *events* to CSV at *path*.

    All events must share one attribute schema (true for the generated
    datasets); the first event defines the columns.
    """
    path = Path(path)
    if not events:
        path.write_text("type,timestamp,payload_size\n")
        return
    attribute_names = sorted(events[0].attributes)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["type", "timestamp", "payload_size", *attribute_names])
        for event in events:
            row = [event.type.name, repr(event.timestamp), event.payload_size]
            for name in attribute_names:
                row.append(_encode(event.attributes.get(name)))
            writer.writerow(row)


def _check_header(header: list[str] | None, path: Path) -> list[str]:
    if header is None or header[:3] != ["type", "timestamp", "payload_size"]:
        raise StreamError(f"{path} is not a stream CSV (bad header)")
    return header[3:]


def iter_stream(path: str | Path) -> Iterator[Event]:
    """Stream events from a CSV written by :func:`save_stream`, one row at
    a time — the file never needs to fit in memory.

    Events get fresh ``event_id`` values; the stream must be in timestamp
    order (validated row by row, mirroring the library's input model).
    """
    path = Path(path)
    types: dict[str, EventType] = {}
    last_timestamp = float("-inf")
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        attribute_names = _check_header(next(reader, None), path)
        for row in reader:
            type_name = row[0]
            timestamp = float(row[1])
            if timestamp < last_timestamp:
                raise StreamError(
                    f"{path}: out-of-order timestamp {timestamp}"
                )
            last_timestamp = timestamp
            event_type = types.setdefault(type_name, EventType(type_name))
            attributes = {
                name: _decode(text)
                for name, text in zip(attribute_names, row[3:])
            }
            yield Event(
                type=event_type,
                timestamp=timestamp,
                attributes=attributes,
                payload_size=int(row[2]),
            )


def load_stream(path: str | Path) -> list[Event]:
    """Read a CSV written by :func:`save_stream` back into a list; see
    :func:`iter_stream` for the streaming variant this wraps."""
    return list(iter_stream(path))


class CSVStreamSource(WorkloadSource):
    """A replayable :class:`~repro.core.streams.WorkloadSource` over a
    stream CSV.

    Each iteration re-opens the file, so multi-pass consumers (e.g.
    ``compare_strategies`` or ``repro simulate``'s strategy race) replay
    it without materializing the events; single-pass consumers hold one
    row at a time.  The header is validated eagerly so
    a bad file fails at construction, not mid-simulation.
    """

    replayable = True

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        with self.path.open(newline="") as handle:
            _check_header(next(csv.reader(handle), None), self.path)

    def prefix(self, count: int) -> list[Event]:
        return list(islice(iter_stream(self.path), count))

    def __iter__(self) -> Iterator[Event]:
        return iter_stream(self.path)


def stream_source(path: str | Path) -> CSVStreamSource:
    """Open *path* as a replayable streaming workload source."""
    return CSVStreamSource(path)
