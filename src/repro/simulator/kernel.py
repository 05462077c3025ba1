"""Shared discrete-event simulation kernel.

Both strategy simulators — the agent-chain simulation in
:mod:`repro.simulator.hypersonic_sim` and the partition simulation in
:mod:`repro.simulator.partition_sim` — used to reimplement the same
machinery: a virtual-clock event heap, per-unit free/busy accounting,
closed-loop injection with an in-flight cap (or open-loop pacing), the
seeded latency reservoir, incremental shared-window payload tracking,
snapshot cadence, and end-of-run :class:`~repro.simulator.metrics.SimResult`
assembly.  :class:`SimKernel` owns all of that once; a strategy simulator
keeps only its semantics (agent wake/route vs. partition activate/retire)
and drives the kernel through the primitives below.

Two injection styles are supported by the same state:

* *event-driven* (hypersonic): the strategy schedules ``(time, tag,
  payload)`` entries on the kernel heap and pops them in virtual-time
  order; ``admit()`` gates injection on the in-flight cap.
* *event-major* (partitioned): each input event spawns serial unit tasks
  via :meth:`run_task`; :meth:`drain_backpressure` advances the injection
  clock by retiring completed tasks until the in-flight count drops below
  the cap.

Determinism contract: for identical inputs the kernel performs exactly the
arithmetic the two simulators performed before the extraction — the parity
suite (``tests/test_sim_parity.py``) pins bit-identical ``SimResult``\\ s
against pre-refactor goldens for every strategy.
"""

from __future__ import annotations

import heapq
import random

from repro.obs.analysis import latency_breakdown
from repro.obs.audit import audit_report
from repro.obs.calibration import calibration_report
from repro.obs.export import summarize
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.simulator.metrics import LatencyAccumulator, SimResult

__all__ = ["WindowTracker", "SimKernel"]

#: Offset mixed into the strategy seed for the latency reservoir RNG so
#: percentile sampling never perturbs seeded engine/assignment decisions.
_LATENCY_SEED_OFFSET = 0x5EED

#: Compact the window deque once this many retired entries accumulate.
_WINDOW_COMPACT_THRESHOLD = 4096


class WindowTracker:
    """Incremental shared-heap payload accounting over the active window.

    On a single server all components reference the same event objects, so
    raw payload is counted once system-wide over the events whose timestamp
    is within one window behind the newest observed event (see the
    :mod:`repro.simulator` module docstring and EXPERIMENTS.md).  Payload
    sizes are integers, so the running total is exact — replacing the
    per-snapshot backward rescan with this tracker changes no sampled
    value.
    """

    __slots__ = ("window", "payload", "_entries", "_head")

    def __init__(self, window: float) -> None:
        self.window = window
        self.payload = 0
        self._entries: list[tuple[float, int]] = []
        self._head = 0

    def observe(self, timestamp: float, payload_size: int) -> None:
        """Admit one event and retire everything behind the new horizon."""
        entries = self._entries
        entries.append((timestamp, payload_size))
        self.payload += payload_size
        horizon = timestamp - self.window
        head = self._head
        while head < len(entries) and entries[head][0] < horizon:
            self.payload -= entries[head][1]
            head += 1
        self._head = head
        if head > _WINDOW_COMPACT_THRESHOLD:
            del entries[:head]
            self._head = 0


class SimKernel:
    """Virtual-clock substrate shared by every strategy simulator."""

    def __init__(
        self,
        num_units: int,
        *,
        window: float,
        inflight_cap: int = 96,
        pace: float | None = None,
        snapshot_interval: int = 128,
        latency_seed: int = 7,
        tracer: Tracer | None = None,
        costs=None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: The CostParameters driving the virtual clock, when the strategy
        #: simulator shares them — recorded into the traced obs summary so
        #: an autotuned run documents what it ran with.
        self.costs = costs
        self.inflight_cap = inflight_cap
        self.pace = pace
        self.snapshot_interval = snapshot_interval
        self.now = 0.0
        self.in_flight = 0
        self.peak_memory = 0
        self.unit_free: list[float] = [0.0] * num_units
        self.unit_busy: list[float] = [0.0] * num_units
        self.parked: set[int] = set()
        self.window = WindowTracker(window)
        self.latency = LatencyAccumulator(
            rng=random.Random(latency_seed + _LATENCY_SEED_OFFSET)
        )
        self._heap: list[tuple[float, int, int, int]] = []
        self._seq = 0
        self._completions: list[tuple[float, int]] = []
        #: Optional control-plane callback fired on the snapshot cadence
        #: (``epoch_hook(now)``), *after* the frame tick — the strategy
        #: simulator installs it when online adaptation is on.  ``None``
        #: (the default) adds no work to the snapshot path.
        self.epoch_hook = None

    # -- unit pool ------------------------------------------------------- #

    def init_units(self, num_units: int) -> None:
        """(Re)size the unit pool — for simulators that learn the real unit
        count only after planning (the hypersonic build step)."""
        self.unit_free = [0.0] * num_units
        self.unit_busy = [0.0] * num_units
        self.parked = set(range(num_units))

    @property
    def num_units(self) -> int:
        return len(self.unit_free)

    def occupy(self, unit: int, start: float, cost: float) -> float:
        """Run *unit* for *cost* starting at *start*; returns completion."""
        done = start + cost
        self.unit_free[unit] = done
        self.unit_busy[unit] += cost
        return done

    # -- virtual-clock event heap (event-driven strategies) -------------- #

    def schedule(self, time: float, tag: int, payload: int = 0) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, tag, payload))

    def pop(self) -> tuple[float, int, int] | None:
        """Pop the earliest pending entry, advancing the virtual clock."""
        if not self._heap:
            return None
        time, _seq, tag, payload = heapq.heappop(self._heap)
        if time > self.now:
            self.now = time
        return time, tag, payload

    @property
    def pending(self) -> bool:
        return bool(self._heap)

    # -- injection policy ------------------------------------------------ #

    def admit(self) -> bool:
        """Closed-loop gate: may the next event be injected right now?
        Open-loop pacing disables backpressure entirely."""
        return self.pace is not None or self.in_flight < self.inflight_cap

    def inject_delay(self, cost: float) -> float:
        """Virtual-time gap to the next injection: the pace when open-loop,
        else the modelled cost of routing the event just injected."""
        return self.pace if self.pace is not None else cost

    # -- serial unit tasks (event-major strategies) ---------------------- #

    def run_task(self, unit: int, arrival: float, cost: float) -> tuple[float, float]:
        """Queue one serial task on *unit*; returns ``(start, done)``.

        The task starts when the unit frees up (never before *arrival*) and
        counts toward the in-flight total until retired by
        :meth:`drain_backpressure` (under open-loop pacing nothing drains,
        so the traced in-flight count simply grows — deliberate: it shows
        the pace outrunning the units).
        """
        start = max(arrival, self.unit_free[unit])
        done = self.occupy(unit, start, cost)
        heapq.heappush(self._completions, (done, unit))
        self.in_flight += 1
        return start, done

    def drain_backpressure(self, inject: float) -> float:
        """Retire completed tasks until the in-flight count is below the
        cap; returns the (possibly delayed) injection time."""
        while self.in_flight >= self.inflight_cap and self._completions:
            done, _unit = heapq.heappop(self._completions)
            self.in_flight -= 1
            if done > inject:
                inject = done
        return inject

    # -- sampling cadence and memory peak -------------------------------- #

    def snapshot_due(self, counter: int) -> bool:
        due = counter % self.snapshot_interval == 0
        if due:
            if self.tracer.enabled:
                # Presentation pulse on the same cadence as the samples the
                # simulator is about to take; recorders ignore it, the live
                # dashboard repaints on it (repro.obs.dashboard).
                self.tracer.frame_tick(self.now)
            if self.epoch_hook is not None:
                self.epoch_hook(self.now)
        return due

    def note_memory(self, total_bytes: int) -> None:
        if total_bytes > self.peak_memory:
            self.peak_memory = total_bytes

    # -- end-of-run assembly --------------------------------------------- #

    def total_time(self) -> float:
        return max(self.now, max(self.unit_free, default=0.0))

    def finish(
        self,
        *,
        strategy: str,
        events: int,
        matches: int,
        total_comparisons: int,
        total_work: float,
        duplication_factor: float,
        num_units: int | None = None,
        total_time: float | None = None,
        extra: dict | None = None,
    ) -> SimResult:
        """Assemble the :class:`SimResult` (and obs summary when tracing)."""
        if total_time is None:
            total_time = self.total_time()
        throughput = events / total_time if total_time > 0 else 0.0
        result = SimResult(
            strategy=strategy,
            num_units=num_units if num_units is not None else self.num_units,
            events=events,
            matches=matches,
            total_time=total_time,
            throughput=throughput,
            avg_latency=self.latency.mean,
            p95_latency=self.latency.percentile(0.95),
            max_latency=self.latency.max_value,
            peak_memory_bytes=self.peak_memory,
            total_comparisons=total_comparisons,
            total_work=total_work,
            duplication_factor=duplication_factor,
            unit_busy=list(self.unit_busy),
            extra=extra if extra is not None else {},
        )
        if self.tracer.enabled:
            events = self.tracer.events
            # A consumer without a recorder keeps no events, so there is
            # nothing to summarise.
            if events is not None:
                obs = summarize(events, total_time, unit_busy=self.unit_busy)
                # Analysis passes derive everything from the trace alone,
                # so replaying the JSONL export later gives the same
                # sections (see repro.obs.analysis / .calibration).
                obs["latency_breakdown"] = latency_breakdown(
                    events, total_time
                )
                calibration = calibration_report(events, total_time=total_time)
                if calibration is not None:
                    obs["calibration"] = calibration
                # Decision provenance — only for adaptive traces (returns
                # None without REPLAN events), so golden-pinned runs keep
                # their obs summary byte-identical.
                audit = audit_report(events, total_time=total_time)
                if audit is not None:
                    obs["audit"] = audit
                if self.costs is not None:
                    obs["costs"] = self.costs.as_dict()
                result.extra["obs"] = obs
            # Final presentation pulse so a live dashboard paints the
            # end-of-run state (its frame then matches a replay of the
            # recorded trace byte for byte).
            self.tracer.frame_tick(total_time)
        return result
