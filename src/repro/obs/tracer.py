"""Typed trace events and the tracer interface.

A :class:`Tracer` receives structured notifications from the simulators
and the HYPERSONIC components they drive.  Each hook builds one
:class:`TraceEvent` and hands it to :meth:`Tracer.emit`, the single
method a consumer overrides.  The base class is the *null* tracer: its
``emit`` drops the event and ``enabled`` is ``False``, so hot paths
guard event construction behind a single attribute check —

    if tracer.enabled:
        tracer.queue_depth(now, agent_index, "ES", depth)

— and a disabled run performs no allocation or bookkeeping at all.

:class:`TraceRecorder` is the recording implementation; its ``emit``
appends the events (virtual-clock timestamps) to an in-memory list
consumed by :mod:`repro.obs.export`.  Live consumers — the dashboard and
the metrics registry — override ``emit`` as well, so they see exactly
the events a recorder keeps and a replay of the trace sees.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["TraceKind", "TraceEvent", "Tracer", "NULL_TRACER", "TraceRecorder"]


class TraceKind:
    """Names of the event types a tracer can record.

    ``UNIT_BUSY`` is the only *span* kind (it carries a duration); every
    other kind is instantaneous.  ``QUEUE_DEPTH`` is a counter sample.
    """

    UNIT_BUSY = "unit_busy"          # span: one work item on one unit
    QUEUE_DEPTH = "queue_depth"      # counter: depth of one agent channel
    SPLITTER_ROUTE = "splitter_route"  # instant: event fanned out to agents
    SPLITTER_DROP = "splitter_drop"    # instant: foreign-type event dropped
    ALLOC_PLAN = "alloc_plan"        # instant: outer allocation decided
    FUSION_PLAN = "fusion_plan"      # instant: Algorithm 2 plan decided
    ROLE_SWITCH = "role_switch"      # instant: unit worked its secondary role
    MIGRATION = "migration"          # instant: Algorithm 1 hop between agents
    MATCH = "match"                  # instant: full match emitted
    PARTITION_START = "partition_start"  # instant: partition run activated
    REPLAN = "replan"                # instant: control-plane epoch decision
    SHED = "shed"                    # instant: splitter shed an event (overload)
    SLO = "slo"                      # instant: SLO window closed with a verdict

    ALL = (
        UNIT_BUSY, QUEUE_DEPTH, SPLITTER_ROUTE, SPLITTER_DROP, ALLOC_PLAN,
        FUSION_PLAN, ROLE_SWITCH, MIGRATION, MATCH, PARTITION_START,
        REPLAN, SHED, SLO,
    )


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded occurrence on the virtual clock.

    ``ts`` is virtual time; ``dur`` is nonzero only for span kinds.
    ``unit`` / ``agent`` are ``None`` when the event is not tied to an
    execution unit / agent.  ``args`` holds kind-specific details and must
    stay JSON-serialisable.
    """

    kind: str
    ts: float
    dur: float = 0.0
    unit: int | None = None
    agent: int | None = None
    args: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        record = {"kind": self.kind, "ts": self.ts}
        if self.dur:
            record["dur"] = self.dur
        if self.unit is not None:
            record["unit"] = self.unit
        if self.agent is not None:
            record["agent"] = self.agent
        if self.args:
            record["args"] = self.args
        return record


class Tracer:
    """Null tracer: the default, zero-cost observability sink.

    The hooks below are the trace vocabulary: each builds one
    :class:`TraceEvent` — normalised the way it is recorded (loads and
    SLO values rounded) — and passes it to :meth:`emit`.  Consumers
    override :meth:`emit` (and :meth:`frame_tick` to repaint) and set
    ``enabled = True``; callers on hot paths must check ``enabled``
    before calling a hook.
    """

    enabled = False

    #: The recorded events, or ``None`` for a tracer that keeps none.
    events: list[TraceEvent] | None = None

    def emit(self, event: TraceEvent) -> None:
        """Consume one trace event; the null tracer drops it."""

    def unit_busy(self, start: float, dur: float, unit: int, agent: int,
                  role: str, item_kind: str) -> None:
        """Unit *unit* processed one *item_kind* item for *agent* in *role*,
        occupying it for ``[start, start + dur)``."""
        self.emit(TraceEvent(
            TraceKind.UNIT_BUSY, start, dur=dur, unit=unit, agent=agent,
            args={"role": role, "item": item_kind},
        ))

    def queue_depth(self, ts: float, agent: int, channel: str,
                    depth: int) -> None:
        """Sampled depth of one agent channel (ES/MS/GQ/...)."""
        self.emit(TraceEvent(
            TraceKind.QUEUE_DEPTH, ts, agent=agent,
            args={"channel": channel, "depth": depth},
        ))

    def splitter_route(self, ts: float, event_type: str, pushes: int) -> None:
        """The splitter fanned an event of *event_type* out as *pushes*."""
        self.emit(TraceEvent(
            TraceKind.SPLITTER_ROUTE, ts,
            args={"type": event_type, "pushes": pushes},
        ))

    def splitter_drop(self, ts: float, event_type: str) -> None:
        """The splitter dropped an event of a type the pattern ignores."""
        self.emit(TraceEvent(
            TraceKind.SPLITTER_DROP, ts, args={"type": event_type},
        ))

    def alloc_plan(self, ts: float, per_agent: list[int], loads: list[float],
                   scheme: str,
                   features: list[tuple[float, ...]] | None = None) -> None:
        """The outer allocation (Theorem 1 / equal split) was decided.

        *features* is the optional per-agent linear decomposition of the
        loads over the fittable cost constants
        (:data:`repro.costmodel.model.LOAD_FEATURE_NAMES`); recording it
        makes the trace self-contained for offline cost-model fitting.
        """
        args = {
            "per_agent": list(per_agent),
            "loads": [round(load, 6) for load in loads],
            "scheme": scheme,
        }
        if features:
            args["features"] = [
                [round(value, 9) for value in row] for row in features
            ]
        self.emit(TraceEvent(TraceKind.ALLOC_PLAN, ts, args=args))

    def fusion_plan(self, ts: float, groups: list[list[int]],
                    per_agent: list[int]) -> None:
        """Algorithm 2 produced its agent grouping and allocation."""
        self.emit(TraceEvent(
            TraceKind.FUSION_PLAN, ts,
            args={
                "groups": [list(group) for group in groups],
                "per_agent": list(per_agent),
            },
        ))

    def role_switch(self, ts: float, unit: int, agent: int, primary: str,
                    acted: str) -> None:
        """A role-dynamic unit worked its secondary role for one item."""
        self.emit(TraceEvent(
            TraceKind.ROLE_SWITCH, ts, unit=unit, agent=agent,
            args={"primary": primary, "acted": acted},
        ))

    def migration(self, ts: float, unit: int, from_agent: int,
                  to_agent: int) -> None:
        """An agent-dynamic unit hopped between agents (Algorithm 1)."""
        self.emit(TraceEvent(
            TraceKind.MIGRATION, ts, unit=unit, agent=to_agent,
            args={"from": from_agent, "to": to_agent},
        ))

    def match(self, ts: float, agent: int, latency: float | None) -> None:
        """A complete match left the system (latency when known)."""
        args = {} if latency is None else {"latency": latency}
        self.emit(TraceEvent(TraceKind.MATCH, ts, agent=agent, args=args))

    def partition_start(self, ts: float, partition: int, unit: int) -> None:
        """A data-parallel partition run was activated on *unit*."""
        self.emit(TraceEvent(
            TraceKind.PARTITION_START, ts, unit=unit,
            args={"partition": partition},
        ))

    def replan(self, ts: float, decision: str, per_agent: list[int],
               reason: str, epoch: int | None = None,
               agent: int | None = None,
               partner: int | None = None) -> None:
        """The runtime control plane acted at an epoch: *decision* is the
        :class:`~repro.control.decisions.ReplanDecision` kind
        (``reallocate`` / ``migrate`` / ``fuse`` / ``defuse`` / ``shed``),
        *per_agent* the unit allocation after applying it.  *epoch* /
        *agent* / *partner* carry the decision's provenance (its epoch
        number and, for pairwise decisions, the donor and recipient) so
        the full :class:`~repro.control.decisions.ReplanDecision` is
        reconstructable from the trace alone (:mod:`repro.obs.audit`)."""
        args = {
            "decision": decision,
            "per_agent": list(per_agent),
            "reason": reason,
        }
        if epoch is not None:
            args["epoch"] = epoch
        if agent is not None:
            args["agent"] = agent
        if partner is not None:
            args["partner"] = partner
        self.emit(TraceEvent(TraceKind.REPLAN, ts, args=args))

    def shed(self, ts: float, event_type: str, policy: str) -> None:
        """The splitter shed a pattern-relevant event under overload."""
        self.emit(TraceEvent(
            TraceKind.SHED, ts, args={"type": event_type, "policy": policy},
        ))

    def slo(self, ts: float, metric: str, value: float, bound: float,
            ok: bool, burn: float) -> None:
        """An SLO evaluation window closed with a verdict: *value* against
        *bound* for *metric*, *burn* the error-budget burn rate after
        charging this window (:mod:`repro.obs.slo`)."""
        self.emit(TraceEvent(
            TraceKind.SLO, ts,
            args={
                "metric": metric,
                "value": round(value, 6),
                "bound": bound,
                "ok": bool(ok),
                "burn": round(burn, 6),
            },
        ))

    def frame_tick(self, ts: float) -> None:
        """The kernel's snapshot cadence fired (and once more at finish).

        A presentation pulse, not a trace event: recorders ignore it (it
        never appears in a trace, keeping traced runs bit-identical to
        untraced ones), while sinks with a display — the live dashboard —
        use it as their repaint signal.
        """


#: Shared process-wide null tracer instance.
NULL_TRACER = Tracer()


class TraceRecorder(Tracer):
    """Tracer that appends every emitted :class:`TraceEvent` to ``events``."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def __len__(self) -> int:
        return len(self.events)

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)
