"""Terminal dashboard for running simulations — headless-first.

The ROADMAP's live-TUI item, built so CI can exercise every frame without
a terminal:

* :func:`render_frame` is a **pure function** ``(snapshot, plan, width,
  height) -> str`` of plain text — per-agent queue-depth sparklines, unit
  busy-fraction bar meters, cumulative match count/rate, splitter drop
  counts, and the ALLOC_PLAN predicted load share vs. the live observed
  busy share per agent with a drift indicator.  No curses, no escape
  sequences: the same inputs yield byte-identical output, which is what
  lets CI golden-pin a frame and upload rendered frames as artifacts.
* :class:`DashboardState` accumulates exactly the render-relevant facts
  from trace events, through one method, :meth:`DashboardState.observe`.
  The events arrive either **live** (:class:`DashboardTracer.emit`,
  repainting on the kernel's snapshot cadence via
  :meth:`~repro.obs.tracer.Tracer.frame_tick`) or by **replaying** a
  recorded JSONL trace (:func:`replay_frames` / :func:`final_frame` over
  :func:`repro.obs.export.read_jsonl` events).  Both paths hand over the
  same events, so a live run's final frame is byte-identical to
  replaying its own trace — the equivalence the tests pin.
* :class:`Dashboard` is the only piece that touches a terminal: on a TTY
  it clears and repaints (a ``watch``-style live view); off-TTY it
  appends frames as a plain log.

Entry points: ``repro simulate --dashboard`` (live),
``repro watch trace.jsonl [--fps N | --frame K | --final]`` (replay), and
the ``tracer_factory`` hooks of :mod:`repro.bench.harness`.
"""

from __future__ import annotations

import math
import sys
import time
from collections import deque
from typing import IO, Iterable, Mapping, Sequence

from repro.obs.analysis import _events_of
from repro.obs.tracer import NULL_TRACER, TraceEvent, TraceKind, Tracer

__all__ = [
    "DEFAULT_WIDTH",
    "DEFAULT_HEIGHT",
    "HISTORY",
    "DashboardState",
    "render_frame",
    "replay_frames",
    "final_frame",
    "Dashboard",
    "DashboardTracer",
]

DEFAULT_WIDTH = 80
DEFAULT_HEIGHT = 24

#: Queue-depth samples kept per agent for the sparkline.
HISTORY = 32

#: Control-plane decisions kept for the timeline pane.
DECISION_LOG = 8

#: Share-drift thresholds for the per-agent indicator: ``ok`` below
#: :data:`DRIFT_WARN`, ``!`` up to :data:`DRIFT_ALERT`, ``!!`` beyond.
DRIFT_WARN = 0.05
DRIFT_ALERT = 0.15

_SPARK_LEVELS = "▁▂▃▄▅▆▇█"
_BAR_FILL = "█"
_BAR_EMPTY = "░"
_SPARK_SLOTS = 16
_BAR_SLOTS = 24


# --------------------------------------------------------------------- #
# state accumulation
# --------------------------------------------------------------------- #


class DashboardState:
    """Render-relevant facts accumulated from one run's trace events.

    :meth:`observe` is the only feed: the live :class:`DashboardTracer`
    passes it the very :class:`~repro.obs.tracer.TraceEvent` a recorder
    keeps, and a replay passes the events read back from the trace, so
    the live and replayed states agree bit for bit.
    """

    def __init__(self, strategy: str = "", history: int = HISTORY) -> None:
        self.strategy = strategy
        self.history = history
        self.now = 0.0
        self.items = 0
        self.matches = 0
        self.latency_sum = 0.0
        self.latency_known = 0
        self.routed = 0
        self.dropped = 0
        self.shed = 0
        self.role_switches = 0
        self.migrations = 0
        self.replans = 0
        #: Latest control-plane decision: ``{decision, per_agent, reason}``.
        self.last_replan: dict | None = None
        #: Trailing control-plane decisions (the timeline pane), newest
        #: last: ``{ts, decision, reason}``.
        self.decision_log: deque = deque(maxlen=DECISION_LOG)
        #: Latest SLO verdict per metric: ``{value, bound, ok, burn}``.
        self.slo: dict[str, dict] = {}
        #: Latest allocation/fusion plan: ``{scheme, per_agent, loads}``.
        self.plan: dict | None = None
        self.agent_busy: dict[int, float] = {}
        self.agent_items: dict[int, int] = {}
        self.unit_busy: dict[int, float] = {}
        self._channel_depth: dict[int, dict[str, int]] = {}
        self.depth_history: dict[int, deque] = {}

    def _advance(self, ts: float) -> None:
        if ts > self.now:
            self.now = ts

    def observe(self, event: TraceEvent) -> None:
        """Apply one trace event — the only feed, live or replayed."""
        kind = event.kind
        if kind not in TraceKind.ALL:
            return
        args = event.args
        ts = event.ts
        if kind == TraceKind.UNIT_BUSY:
            dur = event.dur
            self._advance(ts + dur)
            self.items += 1
            agent, unit = event.agent, event.unit
            if agent is not None:
                self.agent_busy[agent] = self.agent_busy.get(agent, 0.0) + dur
                self.agent_items[agent] = self.agent_items.get(agent, 0) + 1
            if unit is not None:
                self.unit_busy[unit] = self.unit_busy.get(unit, 0.0) + dur
            return
        self._advance(ts)
        if kind == TraceKind.QUEUE_DEPTH:
            agent = -1 if event.agent is None else event.agent
            channels = self._channel_depth.setdefault(agent, {})
            channels[args.get("channel", "?")] = args.get("depth", 0)
            total = sum(channels.values())
            history = self.depth_history.setdefault(
                agent, deque(maxlen=self.history)
            )
            # One sampling burst emits every channel at the same virtual
            # timestamp; collapse the burst into a single history point.
            if history and history[-1][0] == ts:
                history[-1] = (ts, total)
            else:
                history.append((ts, total))
        elif kind == TraceKind.SPLITTER_ROUTE:
            self.routed += 1
        elif kind == TraceKind.SPLITTER_DROP:
            self.dropped += 1
        elif kind == TraceKind.SHED:
            self.shed += 1
        elif kind == TraceKind.ROLE_SWITCH:
            self.role_switches += 1
        elif kind == TraceKind.MIGRATION:
            self.migrations += 1
        elif kind == TraceKind.MATCH:
            self.matches += 1
            latency = args.get("latency")
            if latency is not None:
                self.latency_sum += latency
                self.latency_known += 1
        elif kind == TraceKind.ALLOC_PLAN:
            self.plan = {
                "scheme": str(args.get("scheme", "?")),
                "per_agent": [int(n) for n in args.get("per_agent", [])],
                "loads": [float(load) for load in args.get("loads", [])],
            }
        elif kind == TraceKind.FUSION_PLAN:
            # Fusion plans carry unit counts but no raw loads; the
            # allocated shares are the plan's load prediction (as in
            # calibration).
            per_agent = [int(n) for n in args.get("per_agent", [])]
            self.plan = {
                "scheme": "fusion",
                "per_agent": per_agent,
                "loads": [float(n) for n in per_agent],
            }
        elif kind == TraceKind.REPLAN:
            self._observe_replan(ts, args)
        elif kind == TraceKind.SLO:
            self.slo[str(args.get("metric", "?"))] = {
                "value": float(args.get("value", 0.0)),
                "bound": float(args.get("bound", 0.0)),
                "ok": bool(args.get("ok", False)),
                "burn": float(args.get("burn", 0.0)),
            }

    def _observe_replan(self, ts: float, args: dict) -> None:
        self.replans += 1
        decision = str(args.get("decision", "?"))
        reason = str(args.get("reason", ""))
        self.last_replan = {
            "decision": decision,
            "per_agent": [int(n) for n in args.get("per_agent", [])],
            "reason": reason,
        }
        entry = {"ts": ts, "decision": decision, "reason": reason}
        for key in ("epoch", "agent", "partner"):
            if args.get(key) is not None:
                entry[key] = int(args[key])
        self.decision_log.append(entry)
        # Re-allocation updates the live plan so the drift column tracks
        # the *current* allocation, exactly like a fresh ALLOC_PLAN would.
        if self.plan is not None and self.last_replan["per_agent"]:
            self.plan = dict(
                self.plan, per_agent=list(self.last_replan["per_agent"])
            )

    # -- snapshot ------------------------------------------------------- #

    def snapshot(self) -> dict:
        """Plain-dict registry snapshot — :func:`render_frame`'s input."""
        agents: dict = {}
        keys = (
            set(self.agent_busy) | set(self.depth_history)
            | set(self.agent_items)
        )
        for agent in sorted(keys):
            history = self.depth_history.get(agent)
            depths = [depth for _ts, depth in history] if history else []
            agents[agent] = {
                "busy": self.agent_busy.get(agent, 0.0),
                "items": self.agent_items.get(agent, 0),
                "depth": depths[-1] if depths else 0,
                "depth_history": depths,
            }
        return {
            "strategy": self.strategy,
            "now": self.now,
            "items": self.items,
            "matches": {
                "count": self.matches,
                "mean_latency": (
                    self.latency_sum / self.latency_known
                    if self.latency_known else 0.0
                ),
            },
            "splitter": {
                "routed": self.routed,
                "dropped": self.dropped,
                "shed": self.shed,
            },
            "dynamics": {
                "role_switches": self.role_switches,
                "migrations": self.migrations,
                "replans": self.replans,
                "last_replan": self.last_replan,
                "decision_log": [dict(entry) for entry in self.decision_log],
            },
            "slo": {
                metric: dict(verdict)
                for metric, verdict in sorted(self.slo.items())
            },
            "agents": agents,
            "units": {
                unit: {"busy": busy}
                for unit, busy in sorted(self.unit_busy.items())
            },
        }


# --------------------------------------------------------------------- #
# pure renderer
# --------------------------------------------------------------------- #


def _mapping(value) -> Mapping:
    return value if isinstance(value, Mapping) else {}


def _num(value, default: float = 0.0) -> float:
    try:
        out = float(value)
    except (TypeError, ValueError):
        return default
    return out if math.isfinite(out) else default


def _count(value, default: int = 0) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        # OverflowError: int(float("inf")) — hostile snapshot payloads.
        return default


def _sorted_items(mapping: Mapping) -> list:
    try:
        return sorted(mapping.items(), key=lambda kv: (0.0, float(kv[0]), ""))
    except (TypeError, ValueError):
        return sorted(mapping.items(), key=lambda kv: (0.0, 0.0, str(kv[0])))


def _sparkline(depths, slots: int) -> str:
    shown = [max(0.0, _num(depth)) for depth in list(depths)[-slots:]]
    if not shown:
        return "·" * slots
    peak = max(shown)
    top = len(_SPARK_LEVELS) - 1
    chars = [
        _SPARK_LEVELS[0 if peak <= 0 else min(top, int(round(d / peak * top)))]
        for d in shown
    ]
    return "".join(chars).rjust(slots, "·")


def _bar(fraction: float, slots: int) -> str:
    fraction = min(1.0, max(0.0, _num(fraction)))
    filled = int(round(fraction * slots))
    return _BAR_FILL * filled + _BAR_EMPTY * (slots - filled)


def render_frame(snapshot: Mapping, plan: Mapping | None = None,
                 width: int = DEFAULT_WIDTH,
                 height: int = DEFAULT_HEIGHT) -> str:
    """Render one dashboard frame as plain text.

    A pure function: identical ``(snapshot, plan, width, height)`` yield a
    byte-identical string (the golden-frame test relies on this).  Output
    never exceeds *height* lines of *width* characters and contains no
    control bytes beyond the newlines joining the lines — terminal
    handling (clear / repaint / colour) belongs to :class:`Dashboard`.

    *snapshot* is a :meth:`DashboardState.snapshot` dict; *plan* is the
    latest allocation plan (``{scheme, per_agent, loads}``) or ``None``.
    Malformed or non-finite values degrade to zeros rather than raising —
    the renderer must survive any registry state.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if height < 1:
        raise ValueError(f"height must be >= 1, got {height}")
    snapshot = _mapping(snapshot)
    plan = _mapping(plan)

    strategy = str(snapshot.get("strategy") or "") or "run"
    now = _num(snapshot.get("now"))
    items = _count(snapshot.get("items"))
    matches = _mapping(snapshot.get("matches"))
    match_count = _count(matches.get("count"))
    match_rate = match_count / now if now > 0 else 0.0
    splitter = _mapping(snapshot.get("splitter"))
    dynamics = _mapping(snapshot.get("dynamics"))

    # Overload/adaptation markers appear only when nonzero so frames of
    # non-adaptive runs stay byte-identical to the pre-control-plane
    # goldens.
    shed_count = _count(splitter.get("shed"))
    shed_text = f" {shed_count} shed" if shed_count else ""
    replan_count = _count(dynamics.get("replans"))
    replan_text = f" {replan_count} rp" if replan_count else ""
    lines = [
        f"repro dashboard · {strategy} · t={now:.1f} · items={items}",
        (
            f"matches {match_count} ({match_rate:.4f}/t, lat "
            f"{_num(matches.get('mean_latency')):.1f}) · split "
            f"{_count(splitter.get('routed'))} routed "
            f"{_count(splitter.get('dropped'))} dropped{shed_text} · "
            f"{_count(dynamics.get('role_switches'))} rs "
            f"{_count(dynamics.get('migrations'))} mig{replan_text}"
        ),
    ]
    last_replan = _mapping(dynamics.get("last_replan"))
    if last_replan:
        units_text = "/".join(
            str(_count(count)) for count in last_replan.get("per_agent") or []
        )
        lines.append(
            f"replan [{last_replan.get('decision', '?')}] units "
            f"{units_text or '-'} ({last_replan.get('reason', '')})"
        )

    # SLO pane and decision timeline appear only when the run carries SLO
    # verdicts / control decisions, so non-adaptive frames stay
    # byte-identical to the pre-SLO goldens.
    slo = _mapping(snapshot.get("slo"))
    if slo:
        for metric, verdict in sorted(slo.items()):
            verdict = _mapping(verdict)
            burn = max(0.0, _num(verdict.get("burn")))
            mark = "ok" if verdict.get("ok") else "BREACH"
            lines.append(
                f"slo {str(metric):<12} {_num(verdict.get('value')):>9.4f} "
                f"vs {_num(verdict.get('bound')):>9.4f} {mark:<6} "
                f"burn {_bar(min(burn, 1.0), 10)} {burn:6.2f}"
            )
    decision_log = dynamics.get("decision_log") or []
    if isinstance(decision_log, Sequence) and not isinstance(
        decision_log, (str, bytes)
    ) and decision_log:
        lines.append("decisions (newest last):")
        for entry in list(decision_log)[-DECISION_LOG:]:
            entry = _mapping(entry)
            epoch = entry.get("epoch")
            epoch_text = f"e{_count(epoch)} " if epoch is not None else ""
            lines.append(
                f"  t={_num(entry.get('ts')):8.2f} {epoch_text}"
                f"[{entry.get('decision', '?')}] {entry.get('reason', '')}"
            )

    plan_units: list[int] = []
    plan_shares: list[float] | None = None
    if plan:
        plan_units = [_count(count) for count in plan.get("per_agent") or []]
        loads = [max(0.0, _num(load)) for load in plan.get("loads") or []]
        load_total = sum(loads)
        if load_total > 0:
            plan_shares = [load / load_total for load in loads]
        shares_text = (
            "/".join(f"{share:.2f}" for share in plan_shares)
            if plan_shares else "-"
        )
        lines.append(
            f"plan [{plan.get('scheme', '?')}] units "
            f"{'/'.join(str(count) for count in plan_units) or '-'} "
            f"pred shares {shares_text}"
        )

    agents = _mapping(snapshot.get("agents"))
    if agents:
        busy_total = sum(
            max(0.0, _num(_mapping(row).get("busy")))
            for row in agents.values()
        )
        lines.append(
            f"{'agent':<6}{'un':>3} {'queue depth':<{_SPARK_SLOTS}}"
            f" {'d':>5} {'obs':>6} {'pred':>6} {'drift':>9}"
        )
        for key, row in _sorted_items(agents):
            row = _mapping(row)
            index = _count(key, default=-1)
            label = f"A{key}" if index >= 0 else "sys"
            units_text = (
                str(plan_units[index])
                if 0 <= index < len(plan_units) else "-"
            )
            busy = max(0.0, _num(row.get("busy")))
            observed = busy / busy_total if busy_total > 0 else 0.0
            spark = _sparkline(row.get("depth_history") or (), _SPARK_SLOTS)
            depth = _count(row.get("depth"))
            if plan_shares is not None and 0 <= index < len(plan_shares):
                predicted = plan_shares[index]
                drift = observed - predicted
                mark = (
                    "ok" if abs(drift) <= DRIFT_WARN
                    else "!" if abs(drift) <= DRIFT_ALERT else "!!"
                )
                pred_text = f"{predicted:.3f}"
                drift_text = f"{drift:+.3f} {mark}"
            else:
                pred_text = "-"
                drift_text = "-"
            lines.append(
                f"{label:<6}{units_text:>3} {spark} {depth:>5} "
                f"{observed:6.3f} {pred_text:>6} {drift_text:>9}"
            )

    units = _mapping(snapshot.get("units"))
    if units:
        lines.append(f"{'unit':<6}{'busy fraction':<{_BAR_SLOTS + 8}}")
        for key, row in _sorted_items(units):
            busy = max(0.0, _num(_mapping(row).get("busy")))
            fraction = busy / now if now > 0 else 0.0
            lines.append(
                f"U{key!s:<5}{_bar(fraction, _BAR_SLOTS)} "
                f"{min(fraction, 1.0):6.3f}  busy {busy:.1f}"
            )

    if not agents and not units:
        lines.append("(no samples yet)")

    if len(lines) > height:
        hidden = len(lines) - (height - 1)
        lines = lines[: height - 1] + [f"… +{hidden} more lines"]
    # Strip control characters smuggled in through labels (arbitrary
    # snapshot strings must not break the terminal), then clip — the
    # frame contract is ≤ height lines of ≤ width characters each.
    return "\n".join(
        "".join(ch for ch in line if ord(ch) >= 32)[:width]
        for line in lines
    )


# --------------------------------------------------------------------- #
# replay
# --------------------------------------------------------------------- #


def replay_frames(trace: "Iterable[TraceEvent]", *,
                  width: int = DEFAULT_WIDTH, height: int = DEFAULT_HEIGHT,
                  strategy: str = "",
                  history: int = HISTORY) -> list[tuple[float, str]]:
    """Reconstruct the dashboard frames of a recorded trace.

    Returns ``[(virtual_time, frame), ...]`` — one frame per sampling
    burst (each contiguous run of ``QUEUE_DEPTH`` events marks the
    kernel's snapshot cadence) plus the final frame after the last event.
    Deterministic: the same trace yields byte-identical frames.
    """
    state = DashboardState(strategy=strategy, history=history)
    frames: list[tuple[float, str]] = []
    in_burst = False
    for event in _events_of(trace):
        is_sample = event.kind == TraceKind.QUEUE_DEPTH
        if in_burst and not is_sample:
            frames.append((
                state.now,
                render_frame(state.snapshot(), state.plan, width, height),
            ))
        state.observe(event)
        in_burst = is_sample
    frames.append((
        state.now,
        render_frame(state.snapshot(), state.plan, width, height),
    ))
    return frames


def final_frame(trace: "Iterable[TraceEvent]", *,
                width: int = DEFAULT_WIDTH, height: int = DEFAULT_HEIGHT,
                strategy: str = "", history: int = HISTORY) -> str:
    """The dashboard's end-of-run frame, reconstructed from *trace*."""
    state = DashboardState(strategy=strategy, history=history)
    for event in _events_of(trace):
        state.observe(event)
    return render_frame(state.snapshot(), state.plan, width, height)


# --------------------------------------------------------------------- #
# live driver
# --------------------------------------------------------------------- #


class Dashboard:
    """Terminal presenter for frames — the only piece that talks ANSI.

    On a TTY each :meth:`paint` homes the cursor and clears the screen
    before drawing (a ``watch``-style live view); off-TTY frames are
    appended as a plain log separated by blank lines, so redirected
    output stays readable and deterministic.
    """

    def __init__(self, out: "IO[str] | None" = None, *,
                 tty: bool | None = None) -> None:
        self.out = out if out is not None else sys.stdout
        if tty is None:
            isatty = getattr(self.out, "isatty", None)
            tty = bool(isatty()) if callable(isatty) else False
        self.tty = tty
        self.frames_painted = 0

    def paint(self, frame: str) -> None:
        if self.tty:
            self.out.write("\x1b[H\x1b[2J" + frame + "\n")
        else:
            if self.frames_painted:
                self.out.write("\n")
            self.out.write(frame + "\n")
        self.frames_painted += 1
        flush = getattr(self.out, "flush", None)
        if callable(flush):
            flush()


class DashboardTracer(Tracer):
    """Live dashboard sink, chainable like :class:`MetricsTracer`.

    Every emitted event updates the :class:`DashboardState` and goes on
    to *inner* — a :class:`~repro.obs.tracer.TraceRecorder`, a
    :class:`~repro.obs.registry.MetricsTracer` (itself chaining to a
    recorder), or nothing — so one run can feed the dashboard, the
    metrics registry, and a full trace at once.  Repainting happens on
    the kernel's snapshot cadence (:meth:`frame_tick`), optionally
    wall-clock throttled; the *final* frame of a live run is
    byte-identical to :func:`final_frame` over the run's recorded JSONL,
    because rendering reads only the accumulated state, never the tick.
    """

    enabled = True

    def __init__(self, inner: Tracer | None = None, *, strategy: str = "",
                 width: int = DEFAULT_WIDTH, height: int = DEFAULT_HEIGHT,
                 dashboard: Dashboard | None = None,
                 min_seconds: float = 0.0,
                 history: int = HISTORY) -> None:
        self.inner = inner if inner is not None else NULL_TRACER
        self.state = DashboardState(strategy=strategy, history=history)
        self.width = width
        self.height = height
        self.dashboard = dashboard
        self.min_seconds = min_seconds
        self._last_paint: float | None = None

    def render(self) -> str:
        """The frame for the current accumulated state."""
        return render_frame(
            self.state.snapshot(), self.state.plan, self.width, self.height
        )

    def final_frame(self) -> str:
        """Alias of :meth:`render` named for the end-of-run call site."""
        return self.render()

    # -- tracer interface ------------------------------------------------ #

    def frame_tick(self, ts: float) -> None:
        self.inner.frame_tick(ts)
        if self.dashboard is None:
            return
        if self.min_seconds > 0:
            now = time.monotonic()
            if (self._last_paint is not None
                    and now - self._last_paint < self.min_seconds):
                return
            self._last_paint = now
        self.dashboard.paint(self.render())

    def emit(self, event: TraceEvent) -> None:
        self.state.observe(event)
        self.inner.emit(event)

    # Exporters accept any object exposing ``events``: the inner
    # recorder's list, or ``None`` when nothing records.
    @property
    def events(self):
        return self.inner.events
