"""Service-level objectives over the virtual clock: specs, windows, burn.

An :class:`SloSpec` declares one objective for a run — a p95 match-latency
ceiling, a recall floor, or an admitted-throughput floor — evaluated over
fixed, consecutive windows of virtual time.  :class:`SloEngine` is the
shared evaluator:

* **online** — the simulator feeds it per-event observations
  (``observe_route`` / ``observe_shed`` / ``observe_match``) and the
  control plane polls :meth:`evaluate` on its epoch cadence, so SLO
  verdicts become replan/shed triggers while the run is still going;
* **offline** — :func:`slo_report` replays the same evaluation from a
  recorded trace (``SPLITTER_ROUTE`` / ``SHED`` / ``MATCH`` events).

The two paths are **byte-identical by construction**: observations are
bucketed by ``int(ts // window)`` and a window's verdict is a pure
function of its bucket contents, so it cannot depend on *when* the window
was closed (mid-run at an epoch, or all at once during replay).  The
determinism argument needs one invariant the kernel provides for free:
observation timestamps never precede the virtual clock, so once ``now``
has entered a window, every earlier window is final.

Error budgets follow the SRE convention: an objective of ``0.99`` allows
1% of evaluated windows to violate the bound; ``burn_rate`` is the
fraction of that allowance already consumed (``>= 1`` means the budget is
exhausted).  Windows with no signal for a spec (no matches, no arrivals)
are reported as ``no_data`` and never charge the budget; an *empty*
throughput window does charge it — zero admitted events under a
throughput floor is exactly the starvation the spec exists to catch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from repro.obs.analysis import _events_of, percentile
from repro.obs.tracer import NULL_TRACER, TraceEvent, TraceKind, Tracer, TraceRecorder

__all__ = [
    "SLO_METRICS",
    "DEFAULT_OBJECTIVE",
    "SloSpec",
    "SloEngine",
    "slo_report",
]

#: Metrics an :class:`SloSpec` can bound.  ``p95_latency`` is a ceiling;
#: ``recall`` and ``throughput`` are floors.
SLO_METRICS = ("p95_latency", "recall", "throughput")

#: Default objective: at most 1% of evaluated windows may violate.
DEFAULT_OBJECTIVE = 0.99

#: Trailing evaluated windows considered by the fast-burn signal.
_FAST_BURN_WINDOWS = 4


@dataclass(frozen=True, slots=True)
class SloSpec:
    """One declarative objective: *metric* must honour *bound* in at least
    ``objective`` of all *window*-sized slices of virtual time.

    ``p95_latency``
        Nearest-rank p95 of the match latencies completing in the window
        must stay **at or below** *bound* (a ceiling).
    ``recall``
        ``admitted / (admitted + shed)`` over the window's arrivals must
        stay **at or above** *bound* (a floor in ``(0, 1]``).
    ``throughput``
        Admitted events per unit of virtual time over the window must
        stay **at or above** *bound* (a floor).
    """

    metric: str
    bound: float
    window: float
    objective: float = DEFAULT_OBJECTIVE

    def __post_init__(self) -> None:
        if self.metric not in SLO_METRICS:
            raise ValueError(
                f"unknown SLO metric {self.metric!r}; pick from {SLO_METRICS}"
            )
        if self.window <= 0:
            raise ValueError(f"SLO window must be > 0, got {self.window}")
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"SLO objective must be in (0, 1), got {self.objective}"
            )
        if self.metric == "p95_latency" and self.bound < 0:
            raise ValueError(f"latency ceiling must be >= 0, got {self.bound}")
        if self.metric == "recall" and not 0.0 < self.bound <= 1.0:
            raise ValueError(
                f"recall floor must be in (0, 1], got {self.bound}"
            )
        if self.metric == "throughput" and self.bound <= 0:
            raise ValueError(f"throughput floor must be > 0, got {self.bound}")

    def as_dict(self) -> dict:
        return {
            "metric": self.metric,
            "bound": self.bound,
            "window": self.window,
            "objective": self.objective,
        }


class _SpecState:
    """Mutable evaluation state for one spec (buckets, verdicts, budget)."""

    __slots__ = (
        "spec", "latencies", "admitted", "shed",
        "next_window", "windows", "evaluated", "violations",
    )

    def __init__(self, spec: SloSpec) -> None:
        self.spec = spec
        self.latencies: dict[int, list[float]] = {}
        self.admitted: dict[int, int] = {}
        self.shed: dict[int, int] = {}
        self.next_window = 0
        self.windows: list[dict] = []
        self.evaluated = 0
        self.violations = 0

    def burn_rate(self) -> float:
        if not self.evaluated:
            return 0.0
        allowed = 1.0 - self.spec.objective
        return (self.violations / self.evaluated) / allowed

    def fast_burn(self) -> float:
        """Burn over the trailing evaluated windows — the page-now signal."""
        recent = [w for w in self.windows if w["ok"] is not None]
        recent = recent[-_FAST_BURN_WINDOWS:]
        if not recent:
            return 0.0
        bad = sum(1 for w in recent if not w["ok"])
        return (bad / len(recent)) / (1.0 - self.spec.objective)

    def status(self) -> str:
        if not self.evaluated:
            return "no_data"
        if self.burn_rate() >= 1.0:
            return "exhausted"
        last = next(
            (w for w in reversed(self.windows) if w["ok"] is not None), None
        )
        if last is not None and not last["ok"]:
            return "breach"
        return "ok"


class SloEngine:
    """Windowed SLO evaluation shared by the live and replay paths.

    Feed observations (timestamps on the virtual clock), poll
    :meth:`evaluate` for the control plane, call :meth:`close` once the
    run ends, then :meth:`report`.  Window closes with a verdict are
    mirrored to *tracer* as ``SLO`` trace events so the dashboard (live or
    replayed) can meter burn without recomputing anything.
    """

    def __init__(self, specs: Iterable[SloSpec],
                 tracer: Tracer = NULL_TRACER) -> None:
        self.tracer = tracer
        self.states: list[_SpecState] = []
        seen: set[str] = set()
        for spec in specs:
            if spec.metric in seen:
                raise ValueError(f"duplicate SLO spec for {spec.metric!r}")
            seen.add(spec.metric)
            self.states.append(_SpecState(spec))
        self._closed_at: float | None = None

    def __bool__(self) -> bool:
        return bool(self.states)

    @property
    def specs(self) -> list[SloSpec]:
        return [state.spec for state in self.states]

    # -- observation feed ------------------------------------------------ #

    def observe_route(self, ts: float) -> None:
        """The splitter admitted one pattern-relevant event at *ts*."""
        for state in self.states:
            if state.spec.metric in ("recall", "throughput"):
                bucket = int(ts // state.spec.window)
                state.admitted[bucket] = state.admitted.get(bucket, 0) + 1

    def observe_shed(self, ts: float) -> None:
        """The splitter shed one pattern-relevant event at *ts*."""
        for state in self.states:
            if state.spec.metric == "recall":
                bucket = int(ts // state.spec.window)
                state.shed[bucket] = state.shed.get(bucket, 0) + 1

    def observe_match(self, ts: float, latency: float | None) -> None:
        """A complete match left the system at *ts* (latency when known)."""
        if latency is None:
            return
        for state in self.states:
            if state.spec.metric == "p95_latency":
                bucket = int(ts // state.spec.window)
                state.latencies.setdefault(bucket, []).append(latency)

    # -- window evaluation ------------------------------------------------ #

    def _evaluate_window(self, state: _SpecState, index: int,
                         elapsed: float) -> None:
        spec = state.spec
        value: float | None = None
        ok: bool | None = None
        count = 0
        if spec.metric == "p95_latency":
            sample = state.latencies.pop(index, None)
            if sample:
                count = len(sample)
                value = percentile(sorted(sample), 0.95)
                ok = value <= spec.bound
        elif spec.metric == "recall":
            admitted = state.admitted.pop(index, 0)
            shed = state.shed.pop(index, 0)
            count = admitted + shed
            if count:
                value = admitted / count
                ok = value >= spec.bound
        else:  # throughput
            count = state.admitted.pop(index, 0)
            value = count / elapsed if elapsed > 0 else 0.0
            ok = value >= spec.bound
        if ok is not None:
            state.evaluated += 1
            if not ok:
                state.violations += 1
        record = {
            "window": index,
            "start": index * spec.window,
            "end": index * spec.window + elapsed,
            "count": count,
            "value": value,
            "ok": ok,
        }
        state.windows.append(record)
        if ok is not None and self.tracer.enabled:
            self.tracer.slo(
                record["end"], spec.metric, value, spec.bound, ok,
                state.burn_rate(),
            )

    def _close_through(self, state: _SpecState, first_open: int,
                       end: float | None = None) -> None:
        """Close every window of *state* with index < *first_open*."""
        spec = state.spec
        while state.next_window < first_open:
            index = state.next_window
            elapsed = spec.window
            if end is not None:
                elapsed = min(spec.window, end - index * spec.window)
            self._evaluate_window(state, index, elapsed)
            state.next_window += 1

    def evaluate(self, now: float) -> list[dict]:
        """Close every window that ended before *now* and return the
        current per-spec status — the control plane's trigger input."""
        out: list[dict] = []
        for state in self.states:
            self._close_through(state, int(now // state.spec.window))
            last = next(
                (w for w in reversed(state.windows) if w["ok"] is not None),
                None,
            )
            out.append({
                "metric": state.spec.metric,
                "bound": state.spec.bound,
                "status": state.status(),
                "burn_rate": state.burn_rate(),
                "value": last["value"] if last is not None else None,
            })
        return out

    def close(self, total_time: float) -> None:
        """End of run: evaluate everything up to *total_time* (the final
        window pro-rated for throughput)."""
        if self._closed_at is not None:
            return
        self._closed_at = total_time
        for state in self.states:
            first_open = math.ceil(total_time / state.spec.window)
            self._close_through(state, first_open, end=total_time)

    # -- reporting --------------------------------------------------------- #

    def report(self) -> dict:
        """JSON-serialisable per-spec summary; identical for the live
        engine and for :func:`slo_report` over the recorded trace."""
        specs = []
        for state in self.states:
            spec = state.spec
            allowed = 1.0 - spec.objective
            specs.append({
                "spec": spec.as_dict(),
                "status": state.status(),
                "windows_evaluated": state.evaluated,
                "windows_violated": state.violations,
                "windows": state.windows,
                "budget": {
                    "allowed_fraction": allowed,
                    "used_fraction": (
                        state.violations / state.evaluated
                        if state.evaluated else 0.0
                    ),
                    "burn_rate": state.burn_rate(),
                    "fast_burn": state.fast_burn(),
                },
            })
        return {
            "specs": specs,
            "total_time": self._closed_at,
            "verdict": (
                "met" if all(
                    row["status"] in ("ok", "no_data") for row in specs
                ) else "violated"
            ),
        }


def slo_report(trace: "TraceRecorder | Iterable[TraceEvent]",
               specs: Iterable[SloSpec],
               total_time: float | None = None) -> dict:
    """Replay SLO evaluation from a recorded trace.

    Produces the same report dict as a live :class:`SloEngine` fed during
    the run — byte-identical when serialised, because both paths bucket by
    timestamp and verdicts depend only on bucket contents.  *total_time*
    defaults to the trace's own span (``SLO`` events excluded: their
    timestamps are window ends, which may overhang the run).
    """
    events = _events_of(trace)
    engine = SloEngine(specs)
    span_end = 0.0
    for event in events:
        if event.kind != TraceKind.SLO:
            end = event.ts + event.dur
            if end > span_end:
                span_end = end
        if event.kind == TraceKind.SPLITTER_ROUTE:
            engine.observe_route(event.ts)
        elif event.kind == TraceKind.SHED:
            engine.observe_shed(event.ts)
        elif event.kind == TraceKind.MATCH:
            engine.observe_match(event.ts, event.args.get("latency"))
    engine.close(total_time if total_time and total_time > 0 else span_end)
    return engine.report()
