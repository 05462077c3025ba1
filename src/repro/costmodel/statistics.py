"""Workload statistics estimation (paper Section 5.1 preprocessing step).

The outer load balancer needs the average arrival rate of each pattern
event type (``e_i``) and the selectivity of each NFA state (``s_i``).  As
in the paper, both are measured on a small prefix of the input stream.
The rates are the sample's substream frequencies; the selectivities come
from a sampling join that counts, per stage, the condition evaluations and
successes of each arriving event against a capped pool of partial
matches.  :class:`_SamplingRun` defines that join event by event;
:func:`_sweep` computes the same counters one stage at a time over the
whole sample, wherever it can do so exactly (DESIGN §2m).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter
from typing import Any, Iterable, Sequence

from repro.core.conditions import pearson_correlation
from repro.core.events import Event, check_order
from repro.core.matches import PartialMatch
from repro.core.nfa import ChainNFA, Stage, compile_pattern, seq_candidates
from repro.core.patterns import Pattern
from repro.costmodel.model import WorkloadStatistics

__all__ = ["StageObservation", "estimate_statistics", "statistics_from_sample"]

_DEFAULT_SELECTIVITY = 0.5

# Relative cost of touching one buffered item during a scan versus one
# condition evaluation; matches the default CostParameters/CacheModel
# ratio (touch 0.05 : comparison 1.0).
_SCAN_WEIGHT = 0.05


@dataclass
class StageObservation:
    """Raw counters for one stage while sampling."""

    comparisons: int = 0
    successes: int = 0
    scanned: int = 0        # buffered items traversed while matching
    scan_sq: int = 0        # sum of squared buffer sizes (cache term)

    @property
    def selectivity(self) -> float:
        if self.comparisons == 0:
            return _DEFAULT_SELECTIVITY
        return self.successes / self.comparisons


#: Most partial matches a stage's pool holds.  Sampling needs selectivity
#: estimates, not the full match set, and unbounded pools would make
#: sampling as expensive as detection.  Later additions to a full pool are
#: dropped, so the pool order decides which partials are kept.
_POOL_CAP = 512


@dataclass
class _SamplingRun:
    """A sampling join that only counts, per stage.

    Each event of a stage's type is compared with every partial match in
    the stage's pool that passes the window and SEQ-order checks, pair by
    pair; the accepted ones extend into the next stage's pool.  There is
    no negation handling and no Kleene subset explosion (Kleene stages are
    sampled as plain stages for selectivity purposes — the closure's
    blow-up is applied analytically by the cost model's Theorem 4, so
    sampling it here would double-count).  This pair loop is the reference
    that :func:`_sweep` reproduces count for count.
    """

    nfa: ChainNFA
    observations: list[StageObservation] = field(default_factory=list)

    def __post_init__(self) -> None:
        stages = self.nfa.stages
        self.observations = [StageObservation() for _ in stages]
        self._pools: list[list[PartialMatch]] = [[] for _ in stages]

    def feed(self, event: Event) -> None:
        nfa = self.nfa
        window = nfa.window
        now = event.timestamp
        additions: list[tuple[int, PartialMatch]] = []
        for stage in nfa.stages:
            if stage.event_type_name != event.type.name:
                continue
            observation = self.observations[stage.index]
            if stage.index == 0:
                observation.comparisons += 1
                if stage.accepts(PartialMatch.empty(), event):
                    observation.successes += 1
                    additions.append((1, stage.bind(PartialMatch.empty(),
                                                    event)))
                continue
            pool = self._pools[stage.index]
            # Expire as the sequential engine does (DESIGN §2s).
            keep = [now - p.earliest <= window for p in pool]
            if not all(keep):
                pool[:] = compress(pool, keep)
            observation.scanned += len(pool)
            observation.scan_sq += len(pool) * len(pool)
            candidates = seq_candidates(pool, nfa.stages, stage.index, event,
                                        window)
            observation.comparisons += len(candidates)
            for partial in candidates:
                if stage.accepts(partial, event):
                    observation.successes += 1
                    additions.append((stage.index + 1,
                                      stage.bind(partial, event)))
        for level, partial in additions:
            if level < len(self._pools):
                pool = self._pools[level]
                if len(pool) < _POOL_CAP:
                    pool.append(partial)


#: Most cells (stage events by table entries) of one block of the sweep's
#: masks; it bounds the sweep's temporaries.
_BLOCK_CELLS = 1 << 13

#: Ints of at most this magnitude, and the difference of any two, are
#: exact as floats.
_EXACT_INT = 1 << 52


class _Inexact(Exception):
    """The sweep cannot reproduce the event loop on this sample."""


def _floats_exact(values: Sequence) -> bool:
    """Is float arithmetic on *values* Python's?  They are floats, or
    ints (and bools) that a float holds exactly together with their
    differences."""
    kinds = set(map(type, values))
    return kinds <= {float} or kinds <= {float, int, bool} and all(
        type(value) is float or abs(value) <= _EXACT_INT for value in values
    )


def _sweep(nfa: ChainNFA, sample: Sequence[Event]
           ) -> list[StageObservation] | None:
    """The counters of :class:`_SamplingRun` over *sample*, joined one
    stage at a time, or ``None`` where that join could not be exact.

    Stage 0's accepted events are the first table.  Stage ``k``'s table
    lists the partials its pool receives, in append order: the sample
    position bound at each earlier stage.  On a sample in timestamp
    order, an entry is in the pool at a stage-``k`` event ``j`` iff it
    was appended before ``j`` and ``T[j] - earliest <= W``, and then it
    also fits the window; so masks over blocks of stage events and
    entries give ``scanned`` and ``scan_sq``, the SEQ-order test on the
    entry's last event gives the candidate pairs and ``comparisons``,
    and the stage's kernel ops, run in order over the pairs, give the
    accepted ones, which are the next table (DESIGN §2m).
    """
    from repro.core import vectorized

    if vectorized.np is None or nfa.has_kleene():
        return None
    try:
        return _Sweep(nfa, sample, vectorized).run()
    except _Inexact:
        return None


class _Sweep:
    """The state of one :func:`_sweep`: the sample as arrays, and the
    columns its conjuncts read, each built once."""

    def __init__(self, nfa: ChainNFA, sample: Sequence[Event],
                 vectorized) -> None:
        self.np = np = vectorized.np
        self.vectorized = vectorized
        self.stages = stages = nfa.stages
        self.sample = sample
        self.window = nfa.window
        self.kernels = [None] + [
            vectorized.compile_stage_kernel(stage) for stage in stages[1:]
        ]
        if any(kernel is None for kernel in self.kernels[1:]):
            raise _Inexact
        stamps = list(map(attrgetter("timestamp"), sample))
        ids = list(map(attrgetter("event_id"), sample))
        if not (_floats_exact(stamps) and _floats_exact((self.window,))
                and set(map(type, ids)) <= {int}):
            raise _Inexact
        try:
            self.ids = np.array(ids, dtype=np.int64)
        except OverflowError:
            raise _Inexact from None
        self.stamps = np.array(stamps, dtype=float)
        if not np.isfinite(self.stamps).all() or (
                self.stamps[1:] < self.stamps[:-1]).any():
            raise _Inexact
        codes: dict[str, int] = {}
        for stage in stages:
            codes.setdefault(stage.event_type_name, len(codes))
        lookup = defaultdict(lambda: -1, codes)
        of_type = np.fromiter(
            map(lookup.__getitem__, map(attrgetter("type.name"), sample)),
            dtype=np.int64, count=len(sample),
        )
        #: Sample positions of each stage type, and each position's rank
        #: among them (the row of its type's columns).
        self.positions = {}
        self.rows = {}
        for name, code in codes.items():
            positions = np.flatnonzero(of_type == code)
            rows = np.zeros(len(sample), dtype=np.intp)
            rows[positions] = np.arange(len(positions))
            self.positions[name], self.rows[name] = positions, rows
        self.stage_of = {stage.item.name: stage.index for stage in stages}
        self.observations = [StageObservation() for _ in stages]
        self._values: dict[tuple[str, str], list] = {}
        self._columns: dict[tuple, Any] = {}

    def run(self) -> list[StageObservation]:
        # Every column first: then no conjunct after stage 0 can raise,
        # and a raising stage-0 check raises here at the event where the
        # event loop would raise it.
        for stage, kernel in zip(self.stages[1:], self.kernels[1:]):
            for op in kernel.ops:
                self._read(stage, op)
        first = self.stages[0]
        events = self.positions[first.event_type_name]
        seeds = events
        if first.checks:
            seeds = self.np.array([
                j for j in events.tolist()
                if first.accepts(PartialMatch.empty(), self.sample[j])
            ], dtype=self.np.intp)
        self.observations[0].comparisons = len(events)
        self.observations[0].successes = len(seeds)
        table = [seeds]
        for index in range(1, len(self.stages)):
            table = self._join(index, table)
        return self.observations

    def _join(self, index: int, table: list) -> list:
        """Join stage *index*'s events with its table; the next table."""
        np, stamps, ids, window = self.np, self.stamps, self.ids, self.window
        stage = self.stages[index]
        observation = self.observations[index]
        events = self.positions[stage.event_type_name]
        last = table[-1]
        entries = len(last)
        # Entries appended before each stage event: a prefix of the table.
        before = np.searchsorted(last, events)
        if (before[0] if len(events) else entries) > _POOL_CAP:
            raise _Inexact
        if not entries:
            return table + [last]
        growth = _POOL_CAP
        if index + 1 < len(self.stages):
            following = self.stages[index + 1].event_type_name
            growth *= len(self.positions[following]) + 1
        earliest = stamps[table[0]]
        latest = stamps[last]
        last_ids = ids[last]
        accepted: list = []
        total = lo = start = 0
        while start < len(events):
            top = int(before[start])
            # Entries before *lo* are out of the window for good.
            if lo < top:
                alive = stamps[events[start]] - earliest[lo:top] <= window
                first = int(alive.argmax())
                lo = lo + first if alive[first] else top
            widths = before[start:start + _BLOCK_CELLS] - lo
            cells = widths * np.arange(1, len(widths) + 1)
            stop = start + max(1, int(np.searchsorted(cells, _BLOCK_CELLS,
                                                      side="right")))
            hi = int(before[stop - 1])
            block = events[start:stop]
            now = stamps[block][:, None]
            mask = (np.arange(lo, hi) < before[start:stop, None]) & (
                now - earliest[lo:hi] <= window)
            counts = mask.sum(axis=1)
            observation.scanned += int(counts.sum())
            observation.scan_sq += int((counts * counts).sum())
            # The pool's length before each append of the entries
            # appended from this block's first event up to the next
            # block's: the entries before it, less those the last purge
            # (the last stage event up to the append) dropped.
            end = int(before[stop]) if stop < len(events) else entries
            if end > top:
                dropped = before[start:stop] - counts
                purge = np.searchsorted(block, last[top:end], side="right") - 1
                if (np.arange(top, end) - dropped[purge] >= _POOL_CAP).any():
                    raise _Inexact
            mask &= (latest[lo:hi] < now) | (
                (latest[lo:hi] == now) & (last_ids[lo:hi] < ids[block][:, None]))
            pairs, offsets = np.nonzero(mask)
            observation.comparisons += len(pairs)
            entry, event = offsets + lo, block[pairs]
            for op in self.kernels[index].ops:
                keep = self._verdicts(op, stage, table, entry, event)
                entry, event = entry[keep], event[keep]
            observation.successes += len(entry)
            if index + 1 < len(self.stages) and len(entry):
                accepted.append((entry, event))
                total += len(entry)
                if total > growth:
                    # Some gap between two of the next stage's purges
                    # would take more appends than the cap allows.
                    raise _Inexact
            start = stop
        if not accepted:
            entry = event = np.zeros(0, dtype=np.intp)
        else:
            entry = np.concatenate([pair[0] for pair in accepted])
            event = np.concatenate([pair[1] for pair in accepted])
        return [column[entry] for column in table] + [event]

    def _verdicts(self, op, stage: Stage, table: list, entry, event):
        """One kernel op's verdicts on the pairs (table *entry*, sample
        position *event*)."""
        bound_index, mine, theirs = self._read(stage, op)
        here = stage.event_type_name
        there = self.stages[bound_index].event_type_name
        rows = self.rows[here][event]
        bound_rows = self.rows[there][table[bound_index][entry]]
        vectorized = self.vectorized
        if isinstance(op, vectorized._CorrOp):
            (table, histories), (bound_table, bound_histories) = mine, theirs
            verdicts = vectorized.pairwise_pearson_above(
                table, bound_table, rows, bound_rows, op.threshold,
                lambda k: pearson_correlation(
                    histories[rows[k]], bound_histories[bound_rows[k]]
                ) > op.threshold,
            )
            if verdicts is None:
                raise _Inexact
            return verdicts
        left, right = mine[rows], theirs[bound_rows]
        if not op.event_is_left:
            left, right = right, left
        return vectorized._NP_OPERATORS[op.operator](left, right)

    def _read(self, stage: Stage, op):
        """The stage of *op*'s other position, and the two columns that
        *op* at *stage* compares: the event's and the bound event's."""
        bound_index = self.stage_of[op.other]
        here = stage.event_type_name
        there = self.stages[bound_index].event_type_name
        if isinstance(op, self.vectorized._CorrOp):
            mine = self._histories(here, op.attribute)
            theirs = self._histories(there, op.attribute)
            if mine[1] and theirs[1] and (
                    mine[0][0].shape[1] != theirs[0][0].shape[1]):
                raise _Inexact
            return bound_index, mine, theirs
        return (bound_index, *self._comparable(
            here, op.event_attribute, there, op.other_attribute))

    def _attribute(self, name: str, attribute: str) -> list:
        """*attribute* of each sample event of type *name*, in order."""
        key = (name, attribute)
        if key not in self._values:
            sample = self.sample
            try:
                self._values[key] = [
                    sample[j][attribute]
                    for j in self.positions[name].tolist()
                ]
            except KeyError:
                raise _Inexact from None
        return self._values[key]

    def _histories(self, name: str, attribute: str):
        """The :func:`~repro.core.vectorized.centered_rows` of a history
        attribute, and the histories."""
        key = ("rows", name, attribute)
        if key not in self._columns:
            histories = self._attribute(name, attribute)
            rows = self.vectorized.centered_rows(histories)
            if rows is None:
                raise _Inexact
            self._columns[key] = rows, histories
        return self._columns[key]

    def _comparable(self, name: str, attribute: str, other: str,
                    other_attribute: str):
        """Two value columns whose numpy comparisons are Python's: floats
        of numbers a float holds exactly, or the ranks of strings."""
        key = ("values", name, attribute, other, other_attribute)
        if key not in self._columns:
            np = self.np
            mine = self._attribute(name, attribute)
            theirs = self._attribute(other, other_attribute)
            if set(map(type, mine)) | set(map(type, theirs)) <= {str}:
                rank = {value: r for r, value in
                        enumerate(sorted(set(mine) | set(theirs)))}
                columns = tuple(np.array([rank[value] for value in values],
                                         dtype=np.int64)
                                for values in (mine, theirs))
            elif _floats_exact(mine) and _floats_exact(theirs):
                columns = tuple(np.array(values, dtype=float)
                                for values in (mine, theirs))
            else:
                raise _Inexact
            self._columns[key] = columns
        return self._columns[key]


def _census(sample: Sequence[Event]
            ) -> tuple[dict[str, int], dict[str, float]]:
    """One pass over *sample*: check its stream order
    (:func:`~repro.core.events.check_order`), and count each type's
    events and sum their payload sizes."""
    counts: dict[str, int] = {}
    payloads: dict[str, float] = {}
    last = float("-inf")
    for event in sample:
        last = check_order(event, last)
        name = event.type.name
        if name in counts:
            counts[name] += 1
            payloads[name] += float(event.payload_size)
        else:
            counts[name] = 1
            payloads[name] = float(event.payload_size)
    return counts, payloads


def estimate_statistics(
    pattern: Pattern,
    sample: Sequence[Event],
    event_sizes: Iterable[float] | None = None,
) -> WorkloadStatistics:
    """Measure ``e_i`` and ``s_i`` on *sample* for *pattern*.

    The sample should be a prefix of the production stream; a few thousand
    events usually stabilise both statistics (mirroring [41], which the
    paper cites for this step).  A sample out of timestamp order raises
    :class:`~repro.core.errors.StreamError`.
    """
    nfa = compile_pattern(pattern)
    counts, payloads = _census(sample)
    observations = _sweep(nfa, sample)
    if observations is None:
        run = _SamplingRun(nfa)
        for event in sample:
            run.feed(event)
        observations = run.observations
    # The sample's span: rates over it as substream_rates measures them.
    span = sample[-1].timestamp - sample[0].timestamp if sample else 0.0

    def rate(name: str) -> float:
        return 0.0 if span <= 0 else counts.get(name, 0) / span

    stage_rates = tuple(rate(stage.event_type_name) for stage in nfa.stages)
    selectivities = tuple(
        observation.selectivity for observation in observations
    )
    # Measured partial-match rates: agent j receives the successes of stage
    # j per time unit (stage 0 successes are the singleton seeds feeding the
    # first agent's match stream); the last entry is the full-match output
    # rate.  These feed the load model directly instead of Theorem 2's
    # full-window extrapolation — see WorkloadStatistics.match_rates.
    if span > 0:
        match_rates = tuple(
            observation.successes / span for observation in observations
        )
        stage_work = tuple(
            (observation.comparisons + _SCAN_WEIGHT * observation.scanned)
            / span
            for observation in observations
        )
    else:
        match_rates = ()
        stage_work = ()
    if event_sizes is not None:
        sizes = tuple(event_sizes)
    else:
        sizes = tuple(
            payloads[name] / counts[name] if name in counts else 64.0
            for name in (stage.event_type_name for stage in nfa.stages)
        )
    # Negation pricing: the arrival rate of each stage's guard event types
    # (they scan the stage's match buffer without binding it).
    guard_names_per_stage = [
        tuple(guard.item.event_type.name for guard in stage.guards_after)
        for stage in nfa.stages
    ]
    guard_rates: tuple[float, ...] = ()
    if any(guard_names_per_stage):
        guard_rates = tuple(
            sum(rate(name) for name in names)
            for names in guard_names_per_stage
        )
    return WorkloadStatistics(
        rates=stage_rates,
        selectivities=selectivities,
        event_sizes=sizes,
        match_rates=match_rates,
        stage_work=stage_work,
        guard_rates=guard_rates,
    )


def statistics_from_sample(
    pattern: Pattern, stream: Iterable[Event], sample_size: int = 5000
) -> tuple[WorkloadStatistics, list[Event]]:
    """Consume up to *sample_size* events for estimation.

    Returns the statistics and the consumed prefix so callers can replay it
    (the preprocessing step must not lose events).
    """
    prefix: list[Event] = []
    iterator = iter(stream)
    for event in iterator:
        prefix.append(event)
        if len(prefix) >= sample_size:
            break
    return estimate_statistics(pattern, prefix), prefix
