"""Unit tests for the workload-source protocol and the lookahead buffer
(:mod:`repro.core.streams`, re-exported by the simulator package)."""

from __future__ import annotations

import pytest

from repro.core.errors import StreamError
from repro.datasets import iter_stream, load_stream, save_stream, stream_source
from repro.simulator import IterSource, ListSource, Lookahead, as_source

from tests.conftest import make_stream


def test_list_source_is_replayable_and_zero_copy():
    events = make_stream(num_events=20)
    source = ListSource(events)
    assert source.replayable
    assert len(source) == 20
    assert list(source) == events
    assert list(source) == events  # second pass
    assert source.prefix(5) == events[:5]
    assert source.prefix(100) == events  # prefix past the end clamps


def test_as_source_passthrough_and_wrapping():
    events = make_stream(num_events=5)
    list_source = as_source(events)
    assert isinstance(list_source, ListSource)
    assert as_source(list_source) is list_source
    gen_source = as_source(iter(events))
    assert isinstance(gen_source, IterSource)
    assert not gen_source.replayable


def test_iter_source_prefix_then_full_iteration():
    events = make_stream(num_events=30)
    source = IterSource(iter(events))
    assert source.prefix(10) == events[:10]
    assert source.prefix(4) == events[:4]  # repeat prefixes re-serve buffer
    assert list(source) == events  # buffered prefix is not lost


def test_iter_source_raises_on_second_pass():
    source = IterSource(iter(make_stream(num_events=10)))
    list(source)
    with pytest.raises(StreamError):
        list(source)
    with pytest.raises(StreamError):
        source.prefix(3)


def test_lookahead_peek_release_and_bounds():
    events = make_stream(num_events=50)
    stream = Lookahead(iter(events))
    assert stream.get(0) is events[0]
    assert stream.get(10) is events[10]
    assert stream.buffered == 11
    stream.release(8)
    assert stream.buffered == 3
    assert stream.get(8) is events[8]
    with pytest.raises(IndexError):
        stream.get(7)  # released positions are gone for good
    assert stream.get(49) is events[49]
    assert stream.get(50) is None  # past the end
    assert stream.get(9) is events[9]  # unreleased positions remain valid


def test_lookahead_empty_stream():
    stream = Lookahead(iter(()))
    assert stream.get(0) is None
    assert stream.buffered == 0


def test_csv_iter_stream_matches_load_stream(tmp_path):
    events = make_stream(num_events=40, seed=9)
    path = tmp_path / "stream.csv"
    save_stream(events, path)
    streamed = list(iter_stream(path))
    loaded = load_stream(path)
    assert [
        (e.type.name, e.timestamp, e.payload_size, e.attributes)
        for e in streamed
    ] == [
        (e.type.name, e.timestamp, e.payload_size, e.attributes)
        for e in loaded
    ]


def test_csv_stream_source_is_replayable(tmp_path):
    events = make_stream(num_events=15, seed=2)
    path = tmp_path / "stream.csv"
    save_stream(events, path)
    source = stream_source(path)
    assert source.replayable
    first = [e.timestamp for e in source]
    second = [e.timestamp for e in source]
    assert first == second == [e.timestamp for e in events]
    assert [e.timestamp for e in source.prefix(6)] == [
        e.timestamp for e in events[:6]
    ]


def test_csv_stream_source_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(StreamError):
        stream_source(path)
