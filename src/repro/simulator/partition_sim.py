"""Virtual-time simulation of partition-based strategies.

Covers the sequential baseline and the data-parallel competitors (RIP,
RR/JSQ/LLSF): each partition runs a real :class:`SequentialEngine` over its
(overlapping) substream, and the per-event work it measures — condition
comparisons plus buffer traversal with the cache-pressure term — becomes a
*task* for the partition's execution unit.  Units execute their tasks
serially; a dispatcher injects each input event when the closed-loop
in-flight cap allows, paying one queue push per replica.

The loop is event-major so that all partitions overlapping an event are
active simultaneously and the sampled memory reflects true concurrent
duplication (the whole point of Figure 9's comparison).

Correctness is preserved exactly as in the functional engines: matches are
deduplicated by the ownership rule and the simulated run returns the full
match set.  :class:`PartitionSimulation` is the only runner of the partition
strategies: each strategy only describes its partitions
(:meth:`~repro.baselines.partitioned.PartitionedEngine.spans`) and their
unit assignment.

The discrete-event machinery (unit accounting, backpressure, latency
reservoir, window payload tracking, result assembly) is the shared
:class:`~repro.simulator.kernel.SimKernel`; this module keeps only the
partition activate/feed/retire semantics.  Input may be a list, a
generator, or a :class:`~repro.core.streams.WorkloadSource`: events
are consumed in one pass through a bounded
:class:`~repro.core.streams.Lookahead`, and partitions arrive as
:class:`~repro.baselines.partitioned.PartitionSpan` streams (bounded
lookahead for all built-in strategies), so peak resident events stay
bounded by the window rather than the stream length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.core.events import Event, validate_stream_order
from repro.core.matches import Match
from repro.core.patterns import Pattern
from repro.core.policies import resolve_matches
from repro.core.streams import Lookahead, as_source
from repro.costmodel.model import CostParameters
from repro.baselines.partitioned import PartitionSpan, PartitionedEngine
from repro.engine.sequential import SequentialEngine
from repro.obs.tracer import Tracer
from repro.simulator.cache import CacheModel
from repro.simulator.kernel import SimKernel
from repro.simulator.metrics import SimResult

__all__ = ["SequentialSimEngine", "PartitionSimulation"]


class SequentialSimEngine(PartitionedEngine):
    """The sequential baseline expressed as a single whole-stream partition
    on a single unit — so one simulator covers it and the data-parallel
    strategies uniformly."""

    def __init__(self, pattern: Pattern) -> None:
        super().__init__(pattern, num_units=1)

    def spans(self, stream: Lookahead):
        if stream.get(0) is None:
            return
        yield PartitionSpan(
            index=0,
            begin=0,
            end=None,          # runs to the end of the stream
            size=0,            # unused: assignment is fixed to unit 0
            own_start=float("-inf"),
            own_end=float("inf"),
            own_start_id=-1,
            own_end_id=1 << 62,
        )

    def assign_unit(self, span, unit_loads: list[float]) -> int:
        return 0


@dataclass
class _ActiveRun:
    span: PartitionSpan
    unit: int
    engine: SequentialEngine
    comparisons_seen: int = 0


class PartitionSimulation:
    """One simulated run of a partition strategy on a finite stream.

    In traces and the obs summary, each partition run appears as an
    "agent" (its partition index); the dispatcher's in-flight task count
    is sampled as agent ``-1``'s ``inflight`` channel.
    """

    def __init__(
        self,
        engine: PartitionedEngine,
        costs: CostParameters | None = None,
        cache: CacheModel | None = None,
        inflight_cap: int = 96,
        strategy_name: str | None = None,
        pace: float | None = None,
        seed: int = 7,
        tracer: Tracer | None = None,
    ) -> None:
        self.engine = engine
        self.costs = costs if costs is not None else CostParameters()
        self.cache = cache if cache is not None else CacheModel()
        self.strategy_name = (
            strategy_name
            or type(engine).__name__.replace("Engine", "").lower()
        )
        self.pace = pace
        self.kernel = SimKernel(
            engine.num_units,
            window=engine.pattern.window,
            inflight_cap=inflight_cap,
            pace=pace,
            latency_seed=seed,
            tracer=tracer,
            costs=self.costs,
        )
        self.tracer = self.kernel.tracer
        self._matches: list[Match] = []

    @property
    def matches(self) -> list[Match]:
        """The resolved match list of the run."""
        return self._matches

    def run(self, events: Iterable[Event]) -> SimResult:
        """Simulate the strategy over *events*, consumed in one pass; an
        event out of timestamp order raises
        :class:`~repro.core.errors.StreamError`."""
        engine = self.engine
        kernel = self.kernel
        tracer = self.tracer
        costs = self.costs
        cache = self.cache
        pace = self.pace
        num_units = engine.num_units
        unit_loads = [0.0] * num_units

        stream = Lookahead(validate_stream_order(as_source(events)))
        span_iter = engine.spans(stream)
        pending_span = next(span_iter, None)

        matches: list[Match] = []
        total_comparisons = 0
        total_work = 0.0
        total_tasks = 0
        events_seen = 0
        partitions_seen = 0
        inject = 0.0
        active: list[_ActiveRun] = []

        def task(run: _ActiveRun, cost: float, arrival: float,
                 owned_matches: list[Match], kind: str = "event") -> None:
            nonlocal total_work, total_tasks
            start, done = kernel.run_task(run.unit, arrival, cost)
            unit_loads[run.unit] += cost
            total_work += cost
            total_tasks += 1
            if tracer.enabled:
                tracer.unit_busy(
                    start, cost, run.unit, run.span.index, "task", kind
                )
            for match in owned_matches:
                matches.append(match)
                kernel.latency.add(done - arrival)
                if tracer.enabled:
                    tracer.match(done, run.span.index, done - arrival)

        def event_cost(run: _ActiveRun) -> float:
            nonlocal total_comparisons
            delta = run.engine.stats.comparisons - run.comparisons_seen
            run.comparisons_seen = run.engine.stats.comparisons
            total_comparisons += delta
            scan = scan_sq = 0
            for size in run.engine.pool_sizes():
                scan += size
                scan_sq += size * size
            penalty = cache.comparison_penalty(scan, scan_sq)
            return (
                delta * costs.comparison * penalty
                + cache.scan_cost(scan, scan_sq)
            )

        position = 0
        while True:
            event = stream.get(position)
            if event is None:
                break
            events_seen += 1
            if pace is not None:
                # Open-loop paced arrival for the latency measurement
                # pass.
                inject = position * pace
            else:
                # Closed-loop backpressure.
                inject = kernel.drain_backpressure(inject)
            # Activate partitions starting here.  Spans arrive in begin
            # order with bounded lookahead; pulling the next one may peek
            # the stream ahead of this position, never behind it.
            while (pending_span is not None
                   and pending_span.begin <= position):
                span = pending_span
                unit = engine.assign_unit(span, unit_loads)
                partitions_seen += 1
                if tracer.enabled:
                    tracer.partition_start(inject, span.index, unit)
                active.append(
                    _ActiveRun(
                        span=span,
                        unit=unit,
                        engine=SequentialEngine(engine.pattern),
                    )
                )
                pending_span = next(span_iter, None)
            # Retire finished partitions.
            still_active = []
            for run in active:
                if run.span.end is not None and position >= run.span.end:
                    closing = [
                        match
                        for match in run.engine.close()
                        if run.span.owns(match)
                    ]
                    if closing:
                        cost = (event_cost(run)
                                + len(closing) * costs.queue_push)
                        task(run, cost, inject, closing, kind="close")
                else:
                    still_active.append(run)
            active = still_active

            replicas = sum(
                1 for run in active if run.span.contains(position)
            )
            if pace is None:
                inject += max(replicas, 1) * costs.queue_push
            for run in active:
                if not run.span.contains(position):
                    continue
                emitted = run.engine.process(event)
                owned = [m for m in emitted if run.span.owns(m)]
                cost = event_cost(run) + len(emitted) * costs.queue_push
                task(run, cost, inject, owned)

            kernel.window.observe(event.timestamp, event.payload_size)
            if kernel.snapshot_due(position):
                if tracer.enabled:
                    tracer.queue_depth(
                        inject, -1, "inflight", kernel.in_flight
                    )
                # Shared-heap accounting (see EXPERIMENTS.md): raw in-window
                # payload counted once system-wide; each replica pays for
                # its own derived state (partial matches and buffers) in
                # pointers.
                pointer_total = 0
                match_total = 0
                for run in active:
                    pointers, _payload = run.engine.memory_profile(
                        costs.pointer_size
                    )
                    pointer_total += pointers
                    match_total += run.engine.buffered_match_count()
                kernel.note_memory(
                    pointer_total * costs.pointer_size
                    + match_total * costs.match_overhead
                    + kernel.window.payload
                )
            position += 1
            stream.release(position)

        # Retire the tail partitions.
        for run in active:
            closing = [
                match for match in run.engine.close() if run.span.owns(match)
            ]
            cost = event_cost(run) + len(closing) * costs.queue_push
            task(run, cost, inject, closing, kind="close")

        kernel.now = inject
        self._matches = resolve_matches(engine.pattern, matches)
        dedup = {match.key for match in self._matches}
        return kernel.finish(
            strategy=self.strategy_name,
            events=events_seen,
            matches=len(dedup),
            total_comparisons=total_comparisons,
            total_work=total_work,
            duplication_factor=(
                total_tasks / events_seen if events_seen else 0.0
            ),
            extra={"partitions": partitions_seen},
        )
