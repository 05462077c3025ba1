"""Exporters rendering a recorded trace for humans and tools.

Three views of the same :class:`~repro.obs.tracer.TraceEvent` list:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome
  ``trace_event`` JSON format (the ``traceEvents`` array), loadable in
  Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.  One
  virtual-time unit maps to one microsecond.  Execution units appear as
  threads of the "execution units" process, agent channel depths as
  counter tracks, and planning / routing / migration decisions as
  instant events.
* :func:`write_jsonl` — one JSON object per line, in recording order,
  for ad-hoc analysis (``jq``, pandas, ...).
* :func:`summarize` — the per-agent / per-unit aggregate table attached
  to ``SimResult.extra["obs"]`` (see README "Observability" for the
  schema).
"""

from __future__ import annotations

import json
import math
import warnings
from typing import Iterable, Sequence

from repro.obs.analysis import _events_of
from repro.obs.tracer import TraceEvent, TraceKind, TraceRecorder

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "read_jsonl",
    "summarize",
]

_PID_UNITS = 1
_PID_AGENTS = 2
_PID_CONTROL = 3

_INSTANT_NAMES = {
    TraceKind.SPLITTER_ROUTE: "route",
    TraceKind.SPLITTER_DROP: "drop",
    TraceKind.ALLOC_PLAN: "alloc_plan",
    TraceKind.FUSION_PLAN: "fusion_plan",
    TraceKind.MATCH: "match",
    TraceKind.PARTITION_START: "partition_start",
}


def chrome_trace(trace: "TraceRecorder | Iterable[TraceEvent]") -> dict:
    """Render *trace* as a Chrome ``trace_event`` JSON object."""
    events = _events_of(trace)
    out: list[dict] = []
    units: set[int] = set()
    agents: set[int] = set()
    for event in events:
        if not math.isfinite(event.ts):
            continue
        ts = event.ts
        if event.kind == TraceKind.UNIT_BUSY:
            # Flush-time / hand-built spans may carry no unit; render them
            # on a sentinel thread rather than raising in sorted() below.
            unit = event.unit if event.unit is not None else -1
            units.add(unit)
            out.append({
                "name": f"A{event.agent} {event.args.get('item', 'item')}",
                "cat": "work",
                "ph": "X",
                "ts": ts,
                "dur": event.dur,
                "pid": _PID_UNITS,
                "tid": unit,
                "args": dict(event.args, agent=event.agent),
            })
        elif event.kind == TraceKind.QUEUE_DEPTH:
            agent = event.agent if event.agent is not None else -1
            agents.add(agent)
            out.append({
                "name": f"A{agent}.{event.args.get('channel', '?')}",
                "cat": "queue",
                "ph": "C",
                "ts": ts,
                "pid": _PID_AGENTS,
                "tid": agent,
                "args": {"depth": event.args.get("depth", 0)},
            })
        elif event.kind in (TraceKind.ROLE_SWITCH, TraceKind.MIGRATION):
            unit = event.unit if event.unit is not None else -1
            units.add(unit)
            out.append({
                "name": event.kind,
                "cat": "dynamics",
                "ph": "i",
                "s": "t",
                "ts": ts,
                "pid": _PID_UNITS,
                "tid": unit,
                "args": dict(event.args),
            })
        else:
            out.append({
                "name": _INSTANT_NAMES.get(event.kind, event.kind),
                "cat": "control",
                "ph": "i",
                "s": "g",
                "ts": ts,
                "pid": _PID_CONTROL,
                "tid": 0,
                "args": dict(event.args),
            })
    meta: list[dict] = [
        {"name": "process_name", "ph": "M", "pid": _PID_UNITS, "tid": 0,
         "args": {"name": "execution units"}},
        {"name": "process_name", "ph": "M", "pid": _PID_AGENTS, "tid": 0,
         "args": {"name": "agent queues"}},
        {"name": "process_name", "ph": "M", "pid": _PID_CONTROL, "tid": 0,
         "args": {"name": "control plane"}},
    ]
    for unit in sorted(units):
        meta.append({
            "name": "thread_name", "ph": "M", "pid": _PID_UNITS, "tid": unit,
            "args": {"name": f"unit {unit}"},
        })
    for agent in sorted(agents):
        meta.append({
            "name": "thread_name", "ph": "M", "pid": _PID_AGENTS, "tid": agent,
            "args": {"name": f"agent {agent}"},
        })
    out.sort(key=lambda record: record["ts"])
    return {"traceEvents": meta + out, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str,
                       trace: "TraceRecorder | Iterable[TraceEvent]") -> None:
    """Write the Chrome ``trace_event`` rendering of *trace* to *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(trace), handle, sort_keys=True)
        handle.write("\n")


def write_jsonl(path: str,
                trace: "TraceRecorder | Iterable[TraceEvent]") -> None:
    """Write *trace* as one JSON object per line, in recording order."""
    with open(path, "w", encoding="utf-8") as handle:
        for event in _events_of(trace):
            handle.write(json.dumps(event.as_dict(), sort_keys=True))
            handle.write("\n")


def read_jsonl(path: str) -> list[TraceEvent]:
    """Load a trace written by :func:`write_jsonl` back into events.

    The analysis passes (:mod:`repro.obs.analysis`,
    :mod:`repro.obs.calibration`) run identically on a live recorder and
    on a replayed file; blank lines are skipped, unknown keys ignored.

    A malformed *last* line — the partial write a killed run leaves
    behind — is skipped with a :class:`RuntimeWarning` so ``repro watch``
    and ``obs-report`` still work on truncated traces.  Corruption
    anywhere earlier is a real problem and raises :class:`ValueError`
    with the offending line number.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    last_content = max(
        (index for index, line in enumerate(lines) if line.strip()),
        default=-1,
    )
    events: list[TraceEvent] = []
    for index, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            events.append(TraceEvent(
                kind=record["kind"],
                ts=record["ts"],
                dur=record.get("dur", 0.0),
                unit=record.get("unit"),
                agent=record.get("agent"),
                args=record.get("args", {}),
            ))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            if index == last_content:
                warnings.warn(
                    f"{path}: skipping truncated final trace line "
                    f"{index + 1} ({exc})",
                    RuntimeWarning,
                    stacklevel=2,
                )
                break
            raise ValueError(
                f"{path}:{index + 1}: malformed trace line: {exc}"
            ) from exc
    return events


def summarize(trace: "TraceRecorder | Iterable[TraceEvent]",
              total_time: float,
              unit_busy: Sequence[float] | None = None) -> dict:
    """Aggregate *trace* into the ``SimResult.extra["obs"]`` table.

    ``unit_busy`` (the simulator's own per-unit busy totals) seeds the
    unit table so units that never traced a span still appear; the traced
    span totals must agree with it, which the tests assert.
    """
    events = _events_of(trace)
    counts: dict[str, int] = {}
    agents: dict[int, dict] = {}
    units: dict[int, dict] = {}
    splitter = {"routed": 0, "dropped": 0, "dropped_by_type": {}}
    match_count = 0
    latency_total = 0.0
    latency_known = 0

    def unit_row(unit: int) -> dict:
        return units.setdefault(unit, {
            "busy": 0.0, "busy_fraction": 0.0, "items": 0,
            "migrations": 0, "role_switches": 0,
        })

    def agent_row(agent: int) -> dict:
        return agents.setdefault(agent, {"channels": {}, "items": 0})

    if unit_busy is not None:
        for unit, busy in enumerate(unit_busy):
            unit_row(unit)["busy"] = busy

    for event in events:
        counts[event.kind] = counts.get(event.kind, 0) + 1
        if event.kind == TraceKind.UNIT_BUSY:
            row = unit_row(event.unit if event.unit is not None else -1)
            row["items"] += 1
            if unit_busy is None:
                row["busy"] += event.dur
            agent_row(event.agent if event.agent is not None else -1)["items"] += 1
        elif event.kind == TraceKind.QUEUE_DEPTH:
            channels = agent_row(
                event.agent if event.agent is not None else -1
            )["channels"]
            stats = channels.setdefault(
                event.args.get("channel", "?"),
                {"samples": 0, "mean_depth": 0.0, "max_depth": 0},
            )
            depth = event.args.get("depth", 0)
            stats["samples"] += 1
            stats["mean_depth"] += depth  # running sum; divided below
            if depth > stats["max_depth"]:
                stats["max_depth"] = depth
        elif event.kind == TraceKind.SPLITTER_ROUTE:
            splitter["routed"] += 1
        elif event.kind == TraceKind.SPLITTER_DROP:
            splitter["dropped"] += 1
            by_type = splitter["dropped_by_type"]
            name = event.args.get("type", "?")
            by_type[name] = by_type.get(name, 0) + 1
        elif event.kind == TraceKind.ROLE_SWITCH:
            unit_row(event.unit if event.unit is not None else -1)["role_switches"] += 1
        elif event.kind == TraceKind.MIGRATION:
            unit_row(event.unit if event.unit is not None else -1)["migrations"] += 1
        elif event.kind == TraceKind.MATCH:
            match_count += 1
            latency = event.args.get("latency")
            if latency is not None:
                latency_total += latency
                latency_known += 1

    for row in agents.values():
        for stats in row["channels"].values():
            if stats["samples"]:
                stats["mean_depth"] = stats["mean_depth"] / stats["samples"]
    if total_time > 0:
        for row in units.values():
            row["busy_fraction"] = row["busy"] / total_time
    return {
        "total_time": total_time,
        "events_recorded": len(events),
        "counts": counts,
        "agents": agents,
        "units": units,
        "splitter": splitter,
        "matches": {
            "count": match_count,
            "mean_latency": (
                latency_total / latency_known if latency_known else 0.0
            ),
        },
    }
