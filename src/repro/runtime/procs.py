"""Wall-clock multiprocessing runtime for the agent pipeline.

This module runs the HYPERSONIC agent chain on real OS *processes* — the
chain is cut into contiguous slices of agents, each slice hosted by one
worker process, with the parent playing the splitter over bounded
``multiprocessing`` queues.  Separate processes execute on separate
cores, so this backend produces *measured* wall-clock traces: the same
JSONL schema the virtual-clock simulators emit (``UNIT_BUSY`` spans
against a shared monotonic epoch, an ``ALLOC_PLAN`` with fittable
feature rows), which lets
:func:`repro.costmodel.fitting.fit_from_trace` calibrate
:class:`~repro.costmodel.model.CostParameters` — including the
window-based communication terms ``comm_event`` / ``comm_match`` (Mayer et
al., arXiv:1705.05824) — against reality instead of the simulator.

Topology and protocol
---------------------
``num_procs = min(procs, num_agents)`` workers each own a contiguous agent
slice (:func:`agent_slices`).  The parent routes each stream event to the
process hosting the agent that consumes it (ES event, guard candidate, or
a stage-0 seed match) and buffers the routed items per inbox
(:func:`route_batches`).  After every ``wm_interval`` stream events, and
once for a shorter tail, it puts one ``(_BATCH, items, watermark)``
message to every inbox, empty ones included, so idle workers still purge
and release negation quarantines; ``_EOS`` follows the last batch.  An
inbox holds ``ceil(queue_capacity / wm_interval)`` messages, so the bound
stays about ``queue_capacity`` stream events' worth of routed items.  A worker transfers its
whole pending inbox, drains its agents, and forwards the partial matches
of that drain pass to the next slice's inbox as one
``(_FWD, partials, floor)`` message.  The last agent's full matches ride
back on a result queue at shutdown, together with each worker's busy
spans, receipts, and per-agent communication counters.

Determinism contract
--------------------
Message interleavings are racy, but the agents' streaming join evaluates
every event/match pair exactly once regardless of arrival order.  Two
rules keep negation exact:

* A worker's watermark only ever *lags* the splitter's eager watermark.
  It advances only through the parent's batches, and per-producer FIFO
  delivers every guard candidate before any batch whose watermark passes
  it.  Lagging can only delay purges and quarantine releases.
* A guard event is purged only once every partial match that could still
  reach its agent is younger (the *floor*).  The partials a worker can
  still receive are no older than its base: on worker 0 its watermark,
  because a seed it has not transferred yet is no older than that; on a
  later worker the floor its upstream worker last sent, and ``+inf`` after
  that worker's ``_STOP``.  The worker's floor is the minimum of the base
  and every local agent's :meth:`~repro.hypersonic.agent.AgentCore.local_match_floor`.
  It is each local agent's ``global_floor``, as in the one-process
  :class:`~repro.hypersonic.engine.HypersonicEngine`, and it goes
  downstream with each drain pass's partials, or alone when it rose.

Under these rules the match-key set is identical to the sequential engine
under both ``fork`` and ``spawn`` start methods; only span timings vary
between runs.

Robustness
----------
Every parent-side queue operation polls worker liveness, so a crashed
worker (any exit path, including ``os._exit``) surfaces as a clean
:class:`~repro.core.errors.EngineError` naming the worker and exit code —
never a hang.  Workers ignore ``SIGINT``; on ``KeyboardInterrupt`` the
parent terminates and joins all children before re-raising.  Workers are
daemonic as a backstop: no child outlives the parent.  A parent killed
outright (SIGKILL) runs no clean-up at all, so each worker also runs a
watchdog thread that exits the process once the parent is gone, whatever
the worker is blocked on (:func:`_watch_parent`).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import queue as queue_mod
import signal
import threading
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from repro.core.errors import EngineError
from repro.core.events import Event, validate_stream_order
from repro.core.matches import Match, PartialMatch, match_key
from repro.core.nfa import ChainNFA, compile_pattern
from repro.core.patterns import Pattern
from repro.core.policies import resolve_matches
from repro.costmodel.model import CostParameters, LoadModel
from repro.hypersonic.agent import AgentCore
from repro.hypersonic.items import ItemKind, WorkItem
from repro.hypersonic.splitter import compile_chain, consumers
from repro.obs.tracer import Tracer
from repro.simulator.metrics import SimResult

__all__ = [
    "ProcsPipelineEngine",
    "agent_slices",
    "partial_size",
    "route_batches",
]

# Inbox opcodes (first tuple element).  Small strings pickle compactly.
_BATCH = "B"   # (op, items, watermark) routed items from the parent
_FWD = "F"     # (op, partials, floor) one drain pass of the upstream worker
_EOS = "X"     # (op,) parent end-of-stream — watermark goes to +inf
_STOP = "T"    # (op,) upstream worker flushed and stopped

#: How long an idle worker blocks on its inbox before it runs maintenance.
_IDLE_POLL = 0.02

#: Gap (seconds) under which consecutive same-key items merge into one
#: recorded busy span — keeps wall-clock traces compact without losing the
#: per-agent busy shares calibration needs.
_SPAN_MERGE_GAP = 5e-4

#: Grace period for a worker's final result message to drain out of its
#: queue feeder after the process exits.
_RESULT_GRACE = 3.0

#: How often a worker's watchdog checks that its parent is still alive.
_PARENT_POLL = 0.5

#: Exit status of a worker that found its parent gone.
_ORPHANED_EXIT = 75


def agent_slices(num_agents: int, procs: int) -> list[tuple[int, int]]:
    """Cut ``num_agents`` chain agents into ``procs`` contiguous slices.

    Returns ``[lo, hi)`` bounds, earlier slices taking the remainder —
    deterministic, so fork and spawn runs place agents identically.
    """
    if num_agents < 1:
        raise EngineError("agent_slices needs at least one agent")
    procs = max(1, min(procs, num_agents))
    base, extra = divmod(num_agents, procs)
    bounds: list[tuple[int, int]] = []
    lo = 0
    for index in range(procs):
        hi = lo + base + (1 if index < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def partial_size(partial: PartialMatch) -> int:
    """Event pointers a partial match carries across an IPC boundary."""
    total = 0
    for bound in partial.binding.values():
        total += len(bound) if isinstance(bound, tuple) else 1
    return total


def route_batches(
    nfa: ChainNFA,
    slices: Sequence[tuple[int, int]],
    stream: Iterable[Event],
    wm_interval: int,
) -> Iterator[tuple[int, list[tuple[int, ItemKind, object]], float]]:
    """The parent's side of the protocol: ``(proc, items, watermark)`` for
    each batch message it puts, in put order.

    Each stream event goes to every agent that consumes it, as an
    ``(local, kind, payload)`` item: an ES event (``ItemKind.EVENT``), a
    guard candidate (``ItemKind.GUARD``), or, for agent 0, a stage-0 seed
    match (``ItemKind.MATCH``, payload a :class:`PartialMatch`); ``local``
    is the agent's index in its worker's slice.  Items keep stream order
    per inbox.  After every *wm_interval* stream events, and once after a
    shorter tail, every inbox gets one batch, empty or not, stamped with
    the largest timestamp routed so far.  The stream is in timestamp
    order, so no later batch holds an item that watermark has passed.
    """
    stage0 = nfa.stages[0]
    seed_position = stage0.item.name
    empty = PartialMatch.empty()
    # Agent -> (proc, local); one agent per stage after the first.
    hosts = [(proc, agent - lo) for proc, (lo, hi) in enumerate(slices)
             for agent in range(lo, hi)]
    groups = [(index,) for index in range(1, nfa.num_stages)]
    routes = {
        name: [(*hosts[agent], kind) for agent, kind in targets]
        for name, targets in consumers(nfa, groups).items()
    }
    pending: list[list] = [[] for _ in slices]
    watermark = float("-inf")
    routed = 0
    for event in stream:
        if event.timestamp > watermark:
            watermark = event.timestamp
        for proc, local, kind in routes.get(event.type.name, ()):
            if kind is ItemKind.MATCH:
                if not stage0.accepts(empty, event):
                    continue
                pending[proc].append(
                    (local, kind, PartialMatch.of(seed_position, event))
                )
            else:
                pending[proc].append((local, kind, event))
        routed += 1
        if routed % wm_interval == 0:
            # Fresh lists: a put message is pickled later, by the queue's
            # feeder thread.
            for proc, items in enumerate(pending):
                yield proc, items, watermark
            pending = [[] for _ in slices]
    if routed % wm_interval:
        for proc, items in enumerate(pending):
            yield proc, items, watermark


@dataclass(frozen=True)
class _WorkerSpec:
    """Everything a worker needs, picklable for the spawn start method."""

    worker_index: int
    pattern: Pattern
    agent_lo: int
    agent_hi: int
    num_agents: int
    batch_size: int
    trace: bool
    epoch: float
    crash_after: int | None = None
    #: The process whose exit orphans the worker; ``None`` watches the
    #: parent the worker started under (the fork server's child is not
    #: the engine's).
    parent_pid: int | None = None


@dataclass
class _WorkerStats:
    """Per-worker measurement shipped back with the ``done`` message."""

    comparisons: int = 0
    items: int = 0
    busy: dict[int, float] = field(default_factory=dict)
    events_in: dict[int, int] = field(default_factory=dict)
    match_ptrs_in: dict[int, int] = field(default_factory=dict)
    match_ptrs_out: dict[int, int] = field(default_factory=dict)


class _SpanLog:
    """Coalescing recorder for worker-side ``UNIT_BUSY`` spans.

    Rows are ``(start, dur, unit, agent, role, item_kind)`` with ``start``
    relative to the shared monotonic epoch; consecutive items of the same
    (agent, role, kind) within :data:`_SPAN_MERGE_GAP` merge into one span.
    """

    def __init__(self, enabled: bool, epoch: float) -> None:
        self.enabled = enabled
        self.epoch = epoch
        self.rows: list[tuple] = []
        self._open: tuple | None = None

    def add(self, start: float, end: float, agent: int, role: str,
            kind: str) -> None:
        if not self.enabled:
            return
        key = (agent, role, kind)
        if self._open is not None and self._open[0] == key \
                and start - self._open[2] < _SPAN_MERGE_GAP:
            self._open = (key, self._open[1], end)
            return
        self.close()
        self._open = (key, start, end)

    def close(self) -> None:
        if self._open is None:
            return
        (agent, role, kind), start, end = self._open
        self.rows.append(
            (start - self.epoch, end - start, agent, agent, role, kind)
        )
        self._open = None


# --------------------------------------------------------------------- #
# Worker process                                                         #
# --------------------------------------------------------------------- #


def _watch_parent(parent_pid: int) -> None:
    """Exit the worker process as soon as *parent_pid* is no longer its
    parent.

    A thread, because the main thread may be blocked anywhere when the
    parent dies: in a long drain, on a full downstream inbox, reading a
    batch the parent was killed halfway through writing (a batch can
    exceed ``PIPE_BUF``, up to which a pipe write is atomic), or in the
    exit-time join of its queues' feeder threads.  Each worker holds both
    ends of every inbox pipe, so no read or write on one of them fails
    when the other processes are gone.  ``os._exit`` also skips that
    join.
    """
    while True:
        time.sleep(_PARENT_POLL)
        if os.getppid() != parent_pid:
            os._exit(_ORPHANED_EXIT)


def _worker_main(spec: _WorkerSpec, inbox, downstream, results) -> None:
    # The parent orchestrates shutdown; a Ctrl-C must not tear workers
    # down mid-queue-write (that is what corrupts pipes and leaks locks).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_pid = spec.parent_pid if spec.parent_pid is not None \
        else os.getppid()
    threading.Thread(target=_watch_parent, args=(parent_pid,),
                     daemon=True).start()
    try:
        _run_worker(spec, inbox, downstream, results)
    except BaseException as error:  # ship the failure, never hang the chain
        try:
            if downstream is not None:
                downstream.put((_STOP,))
            results.put((
                "error", spec.worker_index,
                f"{type(error).__name__}: {error}",
            ))
        except BaseException:
            os._exit(70)


def _run_worker(spec: _WorkerSpec, inbox, downstream, results) -> None:
    nfa = compile_pattern(spec.pattern)
    watermark = [float("-inf")]
    # The last floor the upstream worker sent; +inf once it stopped.
    upstream_floor = [float("-inf")]

    def floor() -> float:
        """No partial match this worker holds or may still receive is
        older (module docstring, "Determinism contract")."""
        lowest = watermark[0] if spec.worker_index == 0 else upstream_floor[0]
        for agent in agents:
            local = agent.local_match_floor()
            if local < lowest:
                lowest = local
        return lowest

    agents = [
        AgentCore(
            agent_index=global_index,
            stages=nfa.stages,
            stage_index=global_index + 1,
            window=nfa.window,
            watermark=lambda: watermark[0],
            is_last=global_index == spec.num_agents - 1,
            global_floor=floor,
        )
        for global_index in range(spec.agent_lo, spec.agent_hi)
    ]
    if spec.batch_size > 1:
        for agent in agents:
            agent.enable_vector_mode()
    inputs = {}
    for local, agent in enumerate(agents):
        inputs[local, ItemKind.EVENT] = agent.es
        inputs[local, ItemKind.GUARD] = agent.guard_q
        inputs[local, ItemKind.MATCH] = agent.ms
    hosts_last = spec.agent_hi == spec.num_agents
    stats = _WorkerStats()
    spans = _SpanLog(spec.trace, spec.epoch)
    matches: list[Match] = []
    clock = time.monotonic
    # Partials for the downstream worker, sent once per drain pass.
    outbox: list[PartialMatch] = []
    sent_floor = float("-inf")

    def dispatch(local: int, receipt) -> None:
        if not receipt.emitted_down:
            return
        global_index = spec.agent_lo + local
        if global_index == spec.num_agents - 1:
            for partial in receipt.emitted_down:
                matches.append(
                    Match.from_partial(partial, detected_at=partial.latest)
                )
        elif local + 1 < len(agents):
            for partial in receipt.emitted_down:
                agents[local + 1].ms.push(WorkItem(ItemKind.MATCH, partial))
        else:
            for partial in receipt.emitted_down:
                stats.match_ptrs_out[global_index] = (
                    stats.match_ptrs_out.get(global_index, 0)
                    + partial_size(partial)
                )
            outbox.extend(receipt.emitted_down)

    def send_downstream() -> None:
        nonlocal outbox, sent_floor
        if downstream is None:
            return
        current = floor()
        if outbox or current > sent_floor:
            downstream.put((_FWD, outbox, current))
            outbox = []
            sent_floor = current

    eos = False
    stop = False

    def handle(message) -> None:
        nonlocal eos, stop
        op = message[0]
        if op == _BATCH:
            _, items, wm = message
            for local, kind, payload in items:
                inputs[local, kind].push(WorkItem(kind, payload))
                if kind is ItemKind.MATCH:
                    stats.match_ptrs_in[spec.agent_lo] = (
                        stats.match_ptrs_in.get(spec.agent_lo, 0) + 1
                    )
                else:
                    global_index = spec.agent_lo + local
                    stats.events_in[global_index] = (
                        stats.events_in.get(global_index, 0) + 1
                    )
            if wm > watermark[0]:
                watermark[0] = wm
        elif op == _FWD:
            _, partials, upstream = message
            for partial in partials:
                stats.match_ptrs_in[spec.agent_lo] = (
                    stats.match_ptrs_in.get(spec.agent_lo, 0)
                    + partial_size(partial)
                )
                agents[0].ms.push(WorkItem(ItemKind.MATCH, partial))
            upstream_floor[0] = upstream
        elif op == _EOS:
            eos = True
            watermark[0] = float("inf")
        elif op == _STOP:
            stop = True
            upstream_floor[0] = float("inf")

    def drain_agent(local: int) -> bool:
        """Process everything queued at one agent; True if anything ran."""
        agent = agents[local]
        global_index = spec.agent_lo + local
        processed = False
        while True:
            item = agent.pop("event")
            role = "event"
            if item is None:
                item = agent.pop("match")
                role = "match"
            if item is None:
                return processed
            processed = True
            items = [item]
            if (
                spec.batch_size > 1
                and agent.vector_mode
                and item.kind is ItemKind.EVENT
                and not agent.guard_q.has_ready(float("inf"))
            ):
                while len(items) < spec.batch_size:
                    follow = agent.es.pop(float("inf"))
                    if follow is None:
                        break
                    items.append(follow)
            started = clock()
            if len(items) > 1:
                receipt = agent.process_batch(items, unit_id=global_index)
            else:
                receipt = agent.process(item, unit_id=global_index)
            ended = clock()
            stats.busy[global_index] = (
                stats.busy.get(global_index, 0.0) + (ended - started)
            )
            stats.comparisons += (
                receipt.comparisons + receipt.vector_comparisons
            )
            stats.items += len(items)
            spans.add(started, ended, global_index, role, item.kind.value)
            dispatch(local, receipt)
            if spec.crash_after is not None \
                    and stats.items >= spec.crash_after:
                os._exit(23)

    while True:
        # After _EOS (and, downstream, _STOP) nothing more can arrive, so
        # a finished worker never blocks on its inbox.
        done = eos and (spec.worker_index == 0 or stop)
        message = None
        if not done:
            try:
                message = inbox.get(timeout=_IDLE_POLL)
            except queue_mod.Empty:
                pass
        if message is not None:
            handle(message)
            # Transfer the whole pending inbox, then drain: one drain pass
            # and one forward message per backlog.  Each batch brings the
            # guard candidates its watermark has passed, so transferring
            # fewer batches would be sound too.
            while True:
                try:
                    pending = inbox.get_nowait()
                except queue_mod.Empty:
                    break
                handle(pending)
        processed = False
        for local in range(len(agents)):
            if drain_agent(local):
                processed = True
        done = eos and (spec.worker_index == 0 or stop)
        if not processed and message is None and not done:
            # Idle: release quarantines whose point the watermark passed.
            for local in range(len(agents)):
                dispatch(local, agents[local].maintenance())
        send_downstream()
        if done and not processed:
            break

    for local, agent in enumerate(agents):
        drain_agent(local)
        started = clock()
        receipt = agent.flush()
        ended = clock()
        global_index = spec.agent_lo + local
        stats.busy[global_index] = (
            stats.busy.get(global_index, 0.0) + (ended - started)
        )
        stats.comparisons += receipt.comparisons + receipt.vector_comparisons
        spans.add(started, ended, global_index, "event", "flush")
        dispatch(local, receipt)
        drain_agent(local)
    if downstream is not None:
        send_downstream()
        downstream.put((_STOP,))
    spans.close()
    results.put((
        "done", spec.worker_index, matches if hosts_last else None,
        spans.rows, stats,
    ))


# --------------------------------------------------------------------- #
# Parent-side engine                                                     #
# --------------------------------------------------------------------- #


class ProcsPipelineEngine:
    """One process per agent slice; real cores; exact match set.

    Usage::

        engine = ProcsPipelineEngine(pattern, procs=4)
        matches = engine.run(events)
        engine.result        # wall-clock SimResult (after run)

    ``tracer`` (any :class:`~repro.obs.Tracer`) receives the merged
    wall-clock trace: one ``ALLOC_PLAN`` with fittable feature rows, then
    every worker's ``UNIT_BUSY`` spans in start-time order — the same
    schema the simulators emit, so ``fit_from_trace`` and the calibration
    report replay it unchanged.
    """

    def __init__(
        self,
        pattern: Pattern,
        procs: int | None = None,
        queue_capacity: int = 1024,
        start_method: str | None = None,
        batch_size: int = 1,
        tracer: Tracer | None = None,
        costs: CostParameters | None = None,
        wm_interval: int = 64,
        sample_size: int = 2000,
        strategy_name: str = "procs",
        _crash_worker: tuple[int, int] | None = None,
    ) -> None:
        self.pattern = pattern
        self.nfa = compile_chain(pattern)
        if queue_capacity < 1:
            raise EngineError(
                f"queue_capacity must be >= 1, got {queue_capacity}"
            )
        if batch_size < 1:
            raise EngineError(f"batch_size must be >= 1, got {batch_size}")
        if wm_interval < 1:
            raise EngineError(f"wm_interval must be >= 1, got {wm_interval}")
        self.num_agents = self.nfa.num_stages - 1
        if procs is not None and procs < 1:
            raise EngineError(f"procs must be >= 1, got {procs}")
        self.procs = min(procs or self.num_agents, self.num_agents)
        self.queue_capacity = queue_capacity
        self.start_method = start_method
        self.batch_size = batch_size
        self.tracer = tracer if tracer is not None else Tracer()
        self.costs = costs if costs is not None else CostParameters()
        self.wm_interval = wm_interval
        self.sample_size = sample_size
        self.strategy_name = strategy_name
        self._crash_worker = _crash_worker
        self.result: SimResult | None = None
        self._ran = False

    # ------------------------------------------------------------------ #

    def run(self, events: Iterable[Event],
            timeout: float = 300.0) -> list[Match]:
        if self._ran:
            raise EngineError("run() may only be called once per engine")
        self._ran = True
        context = multiprocessing.get_context(self.start_method)
        method = context.get_start_method()
        if method != "fork":
            try:
                pickle.dumps(self.pattern)
            except Exception as error:
                raise EngineError(
                    f"pattern is not picklable under the {method!r} start "
                    "method (closure-based predicates?); use fork or a "
                    f"picklable condition: {error}"
                ) from None
        stream = list(validate_stream_order(events))
        slices = agent_slices(self.num_agents, self.procs)
        num_procs = len(slices)
        epoch = time.monotonic()
        self._record_plan(stream)

        # One batch message per wm_interval routed stream events: the
        # bound stays queue_capacity events, rounded up to whole batches.
        inbox_messages = -(-self.queue_capacity // self.wm_interval)
        inboxes = [
            context.Queue(maxsize=inbox_messages)
            for _ in range(num_procs)
        ]
        results = context.Queue()
        workers = []
        for index, (lo, hi) in enumerate(slices):
            crash_after = None
            if self._crash_worker is not None \
                    and self._crash_worker[0] == index:
                crash_after = self._crash_worker[1]
            spec = _WorkerSpec(
                worker_index=index,
                pattern=self.pattern,
                agent_lo=lo,
                agent_hi=hi,
                num_agents=self.num_agents,
                batch_size=self.batch_size,
                trace=self.tracer.enabled,
                epoch=epoch,
                crash_after=crash_after,
                parent_pid=None if method == "forkserver" else os.getpid(),
            )
            downstream = inboxes[index + 1] if index + 1 < num_procs else None
            workers.append(context.Process(
                target=_worker_main,
                args=(spec, inboxes[index], downstream, results),
                daemon=True,
                name=f"repro-procs-{index}",
            ))
        for worker in workers:
            worker.start()

        deadline = time.monotonic() + timeout
        try:
            self._route(stream, slices, inboxes, workers, deadline, results)
            collected = self._collect(workers, results, num_procs, deadline)
        except BaseException:
            self._shutdown(workers, inboxes, results)
            raise
        total_time = time.monotonic() - epoch
        self._shutdown(workers, inboxes, results)
        return self._assemble(stream, collected, total_time, method,
                              num_procs)

    # ------------------------------------------------------------------ #

    def _record_plan(self, stream: Sequence[Event]) -> None:
        """Record the ALLOC_PLAN (with fittable features) for the trace."""
        if not self.tracer.enabled:
            return
        from repro.costmodel.statistics import estimate_statistics

        stats = estimate_statistics(
            self.pattern, stream[: self.sample_size]
        )
        model = LoadModel.for_nfa(self.nfa, stats, self.costs)
        loads = [load.total for load in model.agent_loads(self.num_agents)]
        features = model.load_features(self.num_agents)
        self.tracer.alloc_plan(
            0.0, [1] * self.num_agents, loads, "procs", features=features,
        )

    def _route(self, stream, slices, inboxes, workers, deadline,
               results) -> None:
        batches = route_batches(self.nfa, slices, stream, self.wm_interval)
        for proc, items, watermark in batches:
            self._put(inboxes[proc], (_BATCH, items, watermark), workers,
                      deadline, results)
        # Broadcast end-of-stream *last worker first*: worker 0 is the only
        # one that can finish on EOS alone (the rest also need the upstream
        # _STOP), so giving it EOS last guarantees no worker exits while
        # this broadcast is still in flight — which keeps the premature-exit
        # check in _check_liveness free of false positives.
        for inbox in reversed(inboxes):
            self._put(inbox, (_EOS,), workers, deadline, results)

    def _put(self, inbox, message, workers, deadline,
             results=None) -> None:
        while True:
            try:
                inbox.put(message, timeout=0.2)
                return
            except queue_mod.Full:
                self._check_liveness(workers, results)
                if time.monotonic() > deadline:
                    raise EngineError(
                        "procs pipeline did not drain in time (a worker "
                        "queue stayed full past the timeout)"
                    )

    def _check_liveness(self, workers, results=None) -> None:
        """Raise a clean error if any worker exited while events are still
        being routed — no worker legitimately exits before end-of-stream."""
        for worker in workers:
            code = worker.exitcode
            if code is None:
                continue
            if results is not None:
                # The worker may have shipped its real failure before
                # exiting (error path exits 0); surface that over the
                # bare exit code.
                try:
                    message = results.get_nowait()
                except queue_mod.Empty:
                    message = None
                if message is not None and message[0] == "error":
                    raise EngineError(
                        f"worker process {message[1]} failed: {message[2]}"
                    )
            if code != 0:
                raise EngineError(
                    f"worker process {worker.name} died with exit code "
                    f"{code}; the run cannot complete"
                )
            raise EngineError(
                f"worker process {worker.name} exited before end of "
                "stream; the run cannot complete"
            )

    def _collect(self, workers, results, num_procs, deadline):
        pending = set(range(num_procs))
        matches: list[Match] = []
        rows: list[tuple] = []
        stats: list[_WorkerStats | None] = [None] * num_procs
        dead_since: dict[int, float] = {}
        while pending:
            try:
                message = results.get(timeout=0.2)
            except queue_mod.Empty:
                now = time.monotonic()
                if now > deadline:
                    raise EngineError(
                        "procs pipeline did not finish in time"
                    )
                for index in list(pending):
                    worker = workers[index]
                    if worker.exitcode is None:
                        continue
                    if worker.exitcode != 0:
                        raise EngineError(
                            f"worker process {worker.name} died with exit "
                            f"code {worker.exitcode}; the run cannot "
                            "complete"
                        )
                    # Exit code 0 with the result possibly still in the
                    # queue feeder: allow a short grace, then give up.
                    first_seen = dead_since.setdefault(index, now)
                    if now - first_seen > _RESULT_GRACE:
                        raise EngineError(
                            f"worker process {worker.name} exited without "
                            "reporting a result"
                        )
                continue
            kind = message[0]
            if kind == "error":
                _, index, detail = message
                raise EngineError(f"worker process {index} failed: {detail}")
            _, index, worker_matches, worker_rows, worker_stats = message
            pending.discard(index)
            if worker_matches:
                matches.extend(worker_matches)
            rows.extend(worker_rows)
            stats[index] = worker_stats
        return matches, rows, stats

    def _shutdown(self, workers, inboxes, results) -> None:
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
        for worker in workers:
            worker.join(timeout=5.0)
        for inbox in inboxes:
            inbox.close()
            # Unflushed routed events must not block interpreter exit once
            # the consumer is gone.
            inbox.cancel_join_thread()
        results.close()
        results.cancel_join_thread()

    # ------------------------------------------------------------------ #

    def _assemble(self, stream, collected, total_time, method,
                  num_procs) -> list[Match]:
        matches, rows, stats = collected
        # Arrival order across workers is racy; canonicalise before the
        # policy resolution so the returned list is deterministic.
        matches.sort(key=lambda m: (m.detected_at, match_key(m.binding)))
        resolved = resolve_matches(self.pattern, matches)

        busy = [0.0] * self.num_agents
        events_in = [0] * self.num_agents
        ptrs_in = [0] * self.num_agents
        ptrs_out = [0] * self.num_agents
        comparisons = 0
        items = 0
        for worker_stats in stats:
            if worker_stats is None:
                continue
            comparisons += worker_stats.comparisons
            items += worker_stats.items
            for agent, value in worker_stats.busy.items():
                busy[agent] += value
            for agent, value in worker_stats.events_in.items():
                events_in[agent] += value
            for agent, value in worker_stats.match_ptrs_in.items():
                ptrs_in[agent] += value
            for agent, value in worker_stats.match_ptrs_out.items():
                ptrs_out[agent] += value

        if self.tracer.enabled:
            for start, dur, unit, agent, role, kind in sorted(rows):
                self.tracer.unit_busy(start, dur, unit, agent, role, kind)

        elapsed = max(total_time, 1e-9)
        result = SimResult(
            strategy=self.strategy_name,
            num_units=self.num_agents,
            events=len(stream),
            matches=len(resolved),
            total_time=total_time,
            throughput=len(stream) / elapsed,
            avg_latency=0.0,
            p95_latency=0.0,
            max_latency=0.0,
            peak_memory_bytes=0,
            total_comparisons=comparisons,
            total_work=sum(busy),
            duplication_factor=1.0,
            unit_busy=list(busy),
            extra={
                "backend": "procs",
                "procs": num_procs,
                "start_method": method,
                "batch_size": self.batch_size,
                "items": items,
                "comm": {
                    "events_in": events_in,
                    "match_pointers_in": ptrs_in,
                    "match_pointers_out": ptrs_out,
                },
            },
        )
        if self.tracer.enabled:
            events = self.tracer.events
            if events is not None:
                from repro.obs.calibration import calibration_report
                from repro.obs.export import summarize

                obs = summarize(events, total_time, unit_busy=busy)
                calibration = calibration_report(
                    events, total_time=total_time
                )
                if calibration is not None:
                    obs["calibration"] = calibration
                obs["costs"] = self.costs.as_dict()
                result.extra["obs"] = obs
            self.tracer.frame_tick(total_time)
        self.result = result
        return resolved
