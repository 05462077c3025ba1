"""Workload statistics estimation (paper Section 5.1 preprocessing step).

The outer load balancer needs the average arrival rate of each pattern
event type (``e_i``) and the selectivity of each NFA state (``s_i``).  As
in the paper, both are measured on a small prefix of the input stream.
The rates are the sample's substream frequencies; the selectivities come
from a sampling join (:class:`_SamplingRun`) that counts, per stage, the
condition evaluations and successes of each arriving event against a
capped pool of partial matches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Iterable, Sequence

from repro.core.events import Event
from repro.core.joinkeys import KeyBuckets
from repro.core.matches import PartialMatch
from repro.core.nfa import (
    ChainNFA,
    Stage,
    compile_pattern,
    count_seq_candidates,
    seq_candidates,
)
from repro.core.patterns import Pattern
from repro.core.streams import substream_rates
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
    the stage's pool that passes the window and SEQ-order checks; the
    accepted ones extend into the next stage's pool.  There is no
    negation handling and no Kleene subset explosion (Kleene stages are
    sampled as plain stages for selectivity purposes — the closure's
    blow-up is applied analytically by the cost model's Theorem 4, so
    sampling it here would double-count).

    The pool of a stage with a join key is bucketed by it, and an event
    is compared only with its own key's bucket (:meth:`_scan_keyed`,
    DESIGN §2p).  The pool of any other stage whose conditions compile
    to a :class:`~repro.core.vectorized.StageKernel` carries a
    :class:`~repro.core.vectorized.MatchColumns` view, expired with the
    pool, and is scanned through the kernel (DESIGN §2m).  Stage 0,
    Kleene stages and stages with other conditions use the pair loop of
    :meth:`_scan_pairs`, the reference both paths reproduce count for
    count.
    """

    nfa: ChainNFA
    observations: list[StageObservation] = field(default_factory=list)

    def __post_init__(self) -> None:
        from repro.core.vectorized import MatchColumns, compile_stage_kernel

        stages = self.nfa.stages
        self.observations = [StageObservation() for _ in stages]
        self._pools: list[list[PartialMatch]] = [[] for _ in stages]
        self._keys = [
            KeyBuckets.of_partials(stage.key)
            if stage.index and stage.key is not None else None
            for stage in stages
        ]
        self._kernels = [None] + [
            None if stage.key is not None else compile_stage_kernel(stage)
            for stage in stages[1:]
        ]
        self._views = [
            None if kernel is None
            else MatchColumns(kernel, stages, stage.index)
            for stage, kernel in zip(stages, self._kernels)
        ]
        # The pools are in ``latest`` order while the sample is in stream
        # order, which the keyed scans' charge relies on.
        self._in_order = True
        self._last_timestamp = float("-inf")

    def feed(self, event: Event) -> None:
        nfa = self.nfa
        window = nfa.window
        if event.timestamp < self._last_timestamp:
            self._in_order = False
        self._last_timestamp = max(self._last_timestamp, event.timestamp)
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
                    seed = (
                        PartialMatch(
                            binding={stage.item.name: (event,)},
                            earliest=event.timestamp,
                            latest=event.timestamp,
                        )
                        if stage.is_kleene
                        else PartialMatch.of(stage.item.name, event)
                    )
                    additions.append((1, seed))
                continue
            pool = self._pools[stage.index]
            view = self._views[stage.index]
            buckets = self._keys[stage.index]
            # Expire as the sequential engine does (DESIGN §2s).
            keep = [now - p.earliest <= window for p in pool]
            if not all(keep):
                if buckets is not None:
                    buckets.remove(p for p, kept in zip(pool, keep) if not kept)
                pool[:] = compress(pool, keep)
                if view is not None:
                    view.retain(keep)
            observation.scanned += len(pool)
            observation.scan_sq += len(pool) * len(pool)
            if buckets is not None:
                accepted = self._scan_keyed(stage, pool, buckets, event,
                                            observation)
            elif view is None:
                accepted = self._scan_pairs(stage, pool, event, observation)
            else:
                accepted = self._scan_kernel(stage, pool, view, event,
                                             observation)
            for partial in accepted:
                if stage.is_kleene:
                    base = dict(partial.binding)
                    base[stage.item.name] = (event,)
                    extended = PartialMatch(
                        binding=base,
                        earliest=min(partial.earliest, event.timestamp),
                        latest=max(partial.latest, event.timestamp),
                    )
                else:
                    extended = partial.extended(stage.item.name, event)
                additions.append((stage.index + 1, extended))
        for level, partial in additions:
            if level < len(self._pools):
                pool = self._pools[level]
                if len(pool) < _POOL_CAP:
                    pool.append(partial)
                    if self._keys[level] is not None:
                        self._keys[level].add(partial)

    def _scan_pairs(self, stage: Stage, pool: list[PartialMatch],
                    event: Event, observation: StageObservation
                    ) -> list[PartialMatch]:
        """The partials of *pool* accepting *event*, pair by pair."""
        candidates = seq_candidates(pool, self.nfa.stages, stage.index,
                                    event, self.nfa.window)
        observation.comparisons += len(candidates)
        accepted = []
        for partial in candidates:
            if stage.accepts(partial, event):
                observation.successes += 1
                accepted.append(partial)
        return accepted

    def _scan_keyed(self, stage: Stage, pool: list[PartialMatch],
                    buckets: KeyBuckets, event: Event,
                    observation: StageObservation) -> list[PartialMatch]:
        """:meth:`_scan_pairs` over the event's own key's bucket: only its
        partials can pass the key conjunct.  ``comparisons`` still counts
        every candidate of the pool, as the pair loop does."""
        group = buckets.matching(event) if self._in_order else None
        if group is None:
            return self._scan_pairs(stage, pool, event, observation)
        comparisons = observation.comparisons + count_seq_candidates(
            pool, self.nfa.stages, stage.index, event, self.nfa.window
        )
        accepted = self._scan_pairs(stage, group, event, observation)
        observation.comparisons = comparisons
        return accepted

    def _scan_kernel(self, stage: Stage, pool: list[PartialMatch], view,
                     event: Event, observation: StageObservation
                     ) -> list[PartialMatch]:
        """:meth:`_scan_pairs` through the stage's kernel: the same
        candidates, counted before any condition runs, and the same
        verdicts, in pool order."""
        view.sync(pool)
        candidates = view.candidate_indices(event, self.nfa.window)
        observation.comparisons += len(candidates)
        if not candidates:
            return []
        accepted = self._kernels[stage.index].accepts_over_matches(
            event, view, candidates,
            scalar=lambda i: stage.accepts(pool[i], event),
        )
        observation.successes += len(accepted)
        return [pool[i] for i in accepted]


def estimate_statistics(
    pattern: Pattern,
    sample: Sequence[Event],
    event_sizes: Iterable[float] | None = None,
) -> WorkloadStatistics:
    """Measure ``e_i`` and ``s_i`` on *sample* for *pattern*.

    The sample should be a prefix of the production stream; a few thousand
    events usually stabilise both statistics (mirroring [41], which the
    paper cites for this step).
    """
    nfa = compile_pattern(pattern)
    run = _SamplingRun(nfa)
    for event in sample:
        run.feed(event)
    rates = substream_rates(
        sample, [stage.event_type_name for stage in nfa.stages]
    )
    stage_rates = tuple(
        rates.get(stage.event_type_name, 0.0) for stage in nfa.stages
    )
    selectivities = tuple(
        observation.selectivity for observation in run.observations
    )
    # Measured partial-match rates: agent j receives the successes of stage
    # j per time unit (stage 0 successes are the singleton seeds feeding the
    # first agent's match stream); the last entry is the full-match output
    # rate.  These feed the load model directly instead of Theorem 2's
    # full-window extrapolation — see WorkloadStatistics.match_rates.
    span = (
        sample[-1].timestamp - sample[0].timestamp if len(sample) > 1 else 0.0
    )
    if span > 0:
        match_rates = tuple(
            observation.successes / span for observation in run.observations
        )
        stage_work = tuple(
            (observation.comparisons + _SCAN_WEIGHT * observation.scanned)
            / span
            for observation in run.observations
        )
    else:
        match_rates = ()
        stage_work = ()
    sizes: tuple[float, ...] = ()
    if event_sizes is not None:
        sizes = tuple(event_sizes)
    else:
        totals: dict[str, list[float]] = {}
        for event in sample:
            totals.setdefault(event.type.name, []).append(
                float(event.payload_size)
            )
        sizes = tuple(
            (
                sum(totals[stage.event_type_name])
                / len(totals[stage.event_type_name])
                if stage.event_type_name in totals
                else 64.0
            )
            for stage in nfa.stages
        )
    # Negation pricing: the arrival rate of each stage's guard event types
    # (they scan the stage's match buffer without binding it).
    guard_names_per_stage = [
        tuple(guard.item.event_type.name for guard in stage.guards_after)
        for stage in nfa.stages
    ]
    guard_rates: tuple[float, ...] = ()
    if any(guard_names_per_stage):
        guard_rate_map = substream_rates(
            sample,
            sorted({
                name
                for names in guard_names_per_stage
                for name in names
            }),
        )
        guard_rates = tuple(
            sum(guard_rate_map.get(name, 0.0) for name in names)
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
