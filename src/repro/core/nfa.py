"""Chain-NFA compilation of flat patterns (paper Section 2.2, Figure 2).

Any non-nested CEP pattern translates into a *chain automaton*: a linear
sequence of states, each consuming events of one type and extending the
partial matches produced by its predecessor.  This module compiles a
:class:`~repro.core.patterns.Pattern` into a :class:`ChainNFA` whose *stages*
are consumed one-to-one by the sequential engine, by the HYPERSONIC agents,
and by the cost model.

Stage semantics
---------------
Stage ``i`` binds the pattern's ``i``-th *positive* (non-negated) item:

* **Primary item** — binds exactly one event of the stage's type, strictly
  after the previously bound event (SEQ order uses ``(timestamp, event_id)``
  so simultaneous events keep their stream order).
* **Kleene item** (Figure 2(b)) — binds a non-empty, stream-ordered tuple of
  events of the type.  Each appended event must individually satisfy the
  stage conditions (self-loop edge condition), with the Kleene position bound
  to that single event during evaluation.  Under skip-till-any-match every
  non-empty subsequence of qualifying events yields a distinct match, which
  is the exponential blow-up the paper highlights.
* **Negation guard** (Figure 2(c)) — a negated item does not get a stage of
  its own; it becomes a :class:`NegationGuard` hanging off the preceding
  positive stage.  A match is invalidated by any event of the negated type
  occurring strictly between the guard's two neighbouring positive events
  (or, for a trailing guard, between the last positive event and the end of
  the window) that satisfies the guard's conditions.

Condition placement
-------------------
Each conjunct of the pattern condition is attached to the earliest stage at
which all positions it reads are bound — the standard "verify as early as
possible" placement the paper's state selectivity ``s_i`` refers to.
Conjuncts involving a negated position move into that position's guard.
Each stage and guard compiles its conditions once, into checks that read
the event being bound directly (:meth:`Condition.compile_check`), and
keeps its own table of centered histories
(:class:`~repro.core.conditions.CenteredHistories`) for its correlation
checks.  When its first conjunct is an equality between the bound item
and an earlier position, it also keeps that conjunct's join key
(:func:`~repro.core.joinkeys.join_key`), which the engines' buffers are
bucketed by (DESIGN §2p).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter
from typing import Any, Iterable, Mapping, Sequence

from repro.core.conditions import CenteredHistories, Check, Condition
from repro.core.errors import PatternError
from repro.core.events import Event
from repro.core.joinkeys import JoinKey, join_key
from repro.core.matches import PartialMatch
from repro.core.patterns import ItemKind, Operator, Pattern, PatternItem

__all__ = ["NegationGuard", "Stage", "ChainNFA", "compile_pattern"]

_latest = attrgetter("latest")


@dataclass(frozen=True)
class NegationGuard:
    """A negated pattern item attached after a positive stage.

    Attributes
    ----------
    item:
        The negated pattern item (type + position name).
    conditions:
        Conjuncts that read the negated position (and possibly earlier
        positions).  A candidate negating event must satisfy **all** of them
        to invalidate a match.
    after_position:
        Position name of the positive item immediately preceding the guard.
    before_position:
        Position name of the positive item immediately following, or ``None``
        for a trailing guard (negation at the end of the pattern).
    histories:
        The table of centered histories its correlation checks share
        (keyword-only).
    checks:
        One compiled check per condition, in order
        (:meth:`~repro.core.conditions.Condition.compile_check`).
    key:
        The join key of the first condition, or ``None``
        (:func:`~repro.core.joinkeys.join_key`).
    """

    item: PatternItem
    conditions: tuple[Condition, ...]
    after_position: str
    before_position: str | None
    histories: CenteredHistories = field(kw_only=True, repr=False,
                                         compare=False)
    checks: tuple[Check, ...] = field(init=False, repr=False, compare=False)
    key: JoinKey | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _compile(self)

    @property
    def trailing(self) -> bool:
        return self.before_position is None

    def last_strike_time(self, binding: Mapping[str, Any], window: float,
                         earliest: float) -> float:
        """The latest timestamp an event that violates *binding* can have:
        the following item's for an internal guard, ``earliest + window``
        for a trailing one.  :meth:`violates` rejects every later event."""
        if self.before_position is None:
            return earliest + window
        before = binding[self.before_position]
        if isinstance(before, tuple):
            before = before[0]
        return before.timestamp

    def violates(self, binding: Mapping[str, Any], candidate: Event,
                 window: float, earliest: float) -> bool:
        """Does *candidate* invalidate a match with the given binding?

        *earliest* is the earliest timestamp in the match (for the trailing
        guard's window bound).
        """
        after = binding[self.after_position]
        if isinstance(after, tuple):
            after = after[-1]
        if candidate.timestamp < after.timestamp or (
            candidate.timestamp == after.timestamp
            and candidate.event_id <= after.event_id
        ):
            return False
        if self.before_position is not None:
            before = binding[self.before_position]
            if isinstance(before, tuple):
                before = before[0]
            if candidate.timestamp > before.timestamp or (
                candidate.timestamp == before.timestamp
                and candidate.event_id >= before.event_id
            ):
                return False
        else:
            if candidate.timestamp > earliest + window:
                return False
        for check in self.checks:
            if not check(binding, candidate):
                return False
        return True


@dataclass(frozen=True)
class Stage:
    """One chain-NFA state: binds one positive item and checks guards.

    ``histories``, ``checks`` and ``key`` are as for
    :class:`NegationGuard`.
    """

    index: int
    item: PatternItem
    conditions: tuple[Condition, ...]
    guards_after: tuple[NegationGuard, ...] = field(default=())
    histories: CenteredHistories = field(kw_only=True, repr=False,
                                         compare=False)
    checks: tuple[Check, ...] = field(init=False, repr=False, compare=False)
    key: JoinKey | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _compile(self)

    @property
    def is_kleene(self) -> bool:
        return self.item.is_kleene

    @property
    def event_type_name(self) -> str:
        return self.item.event_type.name

    def accepts(self, partial: PartialMatch, event: Event) -> bool:
        """Would binding *event* here satisfy this stage's conditions?

        Does *not* check SEQ order or the window — engines check those first
        because they are cheap; condition evaluation is the modelled
        comparison cost ``c_i``.
        """
        binding = partial.binding
        for check in self.checks:
            if not check(binding, event):
                return False
        return True

    def bind(self, partial: PartialMatch, event: Event) -> PartialMatch:
        """*partial*, which does not bind this stage yet, with *event*
        bound here: a Kleene stage starts its tuple with it, which
        :meth:`PartialMatch.extended_kleene` then grows; any other stage
        binds it alone."""
        name = self.item.name
        if not self.item.is_kleene:
            return partial.extended(name, event)
        binding = dict(partial.binding)
        binding[name] = (event,)
        return PartialMatch(
            binding=binding,
            earliest=min(partial.earliest, event.timestamp),
            latest=max(partial.latest, event.timestamp),
        )


def _compile(node: "Stage | NegationGuard") -> None:
    """Compile the checks and derive the join key of a stage or guard."""
    position = node.item.name
    object.__setattr__(node, "checks", tuple(
        condition.compile_check(position, node.histories)
        for condition in node.conditions
    ))
    object.__setattr__(node, "key", join_key(node.conditions, position))


@dataclass(frozen=True)
class ChainNFA:
    """A compiled chain automaton for a SEQ pattern.

    ``stages`` has one entry per positive item, in temporal order.  The
    accepting state is reached after the last stage binds (and its trailing
    guards, if any, are cleared).
    """

    pattern: Pattern
    stages: tuple[Stage, ...]

    @property
    def window(self) -> float:
        return self.pattern.window

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def has_negation(self) -> bool:
        return any(stage.guards_after for stage in self.stages)

    def has_kleene(self) -> bool:
        return any(stage.is_kleene for stage in self.stages)

    def stage_for_type(self, type_name: str) -> tuple[Stage, ...]:
        """All stages consuming events of *type_name* (usually one)."""
        return tuple(
            stage for stage in self.stages if stage.event_type_name == type_name
        )

    def guarded_type_names(self) -> frozenset[str]:
        """Event types consumed by negation guards."""
        names = set()
        for stage in self.stages:
            for guard in stage.guards_after:
                names.add(guard.item.event_type.name)
        return frozenset(names)

    def consumed_type_names(self) -> frozenset[str]:
        """Every event type the automaton reads (positive + negated)."""
        names = {stage.event_type_name for stage in self.stages}
        return frozenset(names) | self.guarded_type_names()


def _order_ok(previous: Event | None, event: Event) -> bool:
    """SEQ stream order: strictly after the previously bound event."""
    if previous is None:
        return True
    return (previous.timestamp, previous.event_id) < (
        event.timestamp,
        event.event_id,
    )


def last_bound_event(partial: PartialMatch, stages: tuple[Stage, ...],
                     upto: int) -> Event | None:
    """The latest event bound by stages ``[0, upto)`` of a SEQ match."""
    if upto <= 0:
        return None
    bound = partial.binding[stages[upto - 1].item.name]
    if isinstance(bound, tuple):
        return bound[-1]
    return bound


def seq_order_allows(partial: PartialMatch, stages: tuple[Stage, ...],
                     stage_index: int, event: Event) -> bool:
    """Check SEQ temporal order for binding *event* at *stage_index*."""
    return _order_ok(last_bound_event(partial, stages, stage_index), event)


def seq_candidates(partials: Iterable[PartialMatch], stages: tuple[Stage, ...],
                   stage_index: int, event: Event, window: float
                   ) -> list[PartialMatch]:
    """The partials that may take *event* at *stage_index* (at least 1),
    in order: those that ``fits_with`` the event within *window* and
    pass :func:`seq_order_allows`.  A partial that already binds the
    stage's position is a Kleene loop-back: on a Kleene stage its tuple's
    last event must precede the event, and on any other stage it is no
    candidate.

    This is the one candidate test of the sequential engine, the
    planner's sampler and the agents, and it runs for every partial they
    scan, so both tests are written out.  ``max`` and ``min`` become the
    conditional expressions CPython's two-argument forms evaluate, with
    the same comparisons in the same argument order, and SEQ order the
    tuple comparison's steps: the timestamps decide unless they are the
    same object or equal, and then the ids do.  So ties, infinities and
    NaN come out as in ``fits_with`` and ``seq_order_allows``.
    """
    stage = stages[stage_index]
    position = stage.item.name
    previous = stages[stage_index - 1].item.name
    kleene = stage.is_kleene
    now = event.timestamp
    event_id = event.event_id
    candidates = []
    for partial in partials:
        latest = partial.latest
        earliest = partial.earliest
        if not ((now if now > latest else latest)
                - (now if now < earliest else earliest) <= window):
            continue
        binding = partial.binding
        if position in binding:
            if not kleene:
                continue
            last = binding[position]
        else:
            last = binding[previous]
        if isinstance(last, tuple):
            last = last[-1]
        last_ts = last.timestamp
        if last_ts < now or (
            (last_ts is now or last_ts == now) and last.event_id < event_id
        ):
            candidates.append(partial)
    return candidates


def count_seq_candidates(pool: Sequence[PartialMatch], stages: tuple[Stage, ...],
                         stage_index: int, event: Event, window: float) -> int:
    """``len(seq_candidates(pool, stages, stage_index, event, window))``:
    the pairs a full scan of the pool compares, and charges.

    *pool* must be a pool of the sequential engine or the planner's
    sampler while its events come in stream order, just purged of the
    partials with ``event.timestamp - earliest > window``.  Every partial
    in it was created by binding its last bound event, so the pool is in
    ``latest`` order and each partial's last bound event is at
    ``latest``.  The partials before the event's timestamp then pass SEQ
    order, those after it fail, and those tied with it are settled by
    event id.  Each partial up to the event fits the window, since
    ``fits_with`` computes the purge's own difference for it.
    """
    timestamp = event.timestamp
    count = bisect_left(pool, timestamp, key=_latest)
    tied = bisect_right(pool, timestamp, lo=count, key=_latest)
    if tied > count:
        count += len(seq_candidates(
            islice(pool, count, tied), stages, stage_index, event, window
        ))
    return count


def compile_pattern(pattern: Pattern) -> ChainNFA:
    """Compile a SEQ pattern into a :class:`ChainNFA`.

    Raises :class:`PatternError` for non-SEQ operators — AND/OR patterns are
    evaluated directly by the sequential engine, while the parallel engines
    (like the paper's system) operate on chain automata.
    """
    if pattern.operator is not Operator.SEQ:
        raise PatternError(
            f"chain NFA requires a SEQ pattern, got {pattern.operator.value}"
        )

    # Closure-time conjuncts (aggregates over a Kleene tuple) stay off the
    # stages; repro.core.policies.resolve_matches applies them to completed
    # matches instead.
    conjuncts = list(pattern.stage_conjuncts())
    negated_names = {item.name for item in pattern.negated_items()}

    # Split conjuncts into per-guard conditions (those reading a negated
    # position) and regular per-stage conditions.
    guard_conditions: dict[str, list[Condition]] = {name: [] for name in negated_names}
    stage_conjuncts: list[Condition] = []
    for conjunct in conjuncts:
        deps = conjunct.depends_on()
        negated_deps = deps & negated_names
        if len(negated_deps) > 1:
            raise PatternError(
                "a condition may reference at most one negated position; "
                f"got {sorted(negated_deps)}"
            )
        if negated_deps:
            guard_conditions[next(iter(negated_deps))].append(conjunct)
        else:
            stage_conjuncts.append(conjunct)

    # Walk the items, creating a stage per positive item and attaching
    # negation guards to the preceding positive stage.
    bound_names: set[str] = set()
    pending_specs: list[dict] = []
    previous_positive: PatternItem | None = None
    pending_guard_items: list[PatternItem] = []

    def flush_guards(next_positive: PatternItem | None) -> tuple[NegationGuard, ...]:
        nonlocal pending_guard_items
        guards = []
        for neg_item in pending_guard_items:
            assert previous_positive is not None  # pattern cannot start negated
            guards.append(
                NegationGuard(
                    item=neg_item,
                    conditions=tuple(guard_conditions[neg_item.name]),
                    after_position=previous_positive.name,
                    before_position=(
                        next_positive.name if next_positive is not None else None
                    ),
                    histories=CenteredHistories(pattern.window),
                )
            )
        pending_guard_items = []
        return tuple(guards)

    for item in pattern.items:
        if item.kind is ItemKind.NEGATED:
            pending_guard_items.append(item)
            continue
        guards_for_previous = flush_guards(item)
        if pending_specs:
            pending_specs[-1]["guards"] = guards_for_previous
        bound_names.add(item.name)
        # Attach each not-yet-placed conjunct whose dependencies are now all
        # bound.
        placed: list[Condition] = []
        remaining: list[Condition] = []
        for conjunct in stage_conjuncts:
            if conjunct.depends_on() <= bound_names:
                placed.append(conjunct)
            else:
                remaining.append(conjunct)
        stage_conjuncts = remaining
        pending_specs.append(
            {"item": item, "conditions": tuple(placed), "guards": ()}
        )
        previous_positive = item

    trailing_guards = flush_guards(None)
    if pending_specs:
        if pending_specs[-1]["guards"]:
            raise PatternError("internal error: trailing guards clobbered")
        pending_specs[-1]["guards"] = trailing_guards

    if stage_conjuncts:
        unplaced = [repr(cond) for cond in stage_conjuncts]
        raise PatternError(
            f"conditions could not be placed on any stage: {unplaced}"
        )

    final_stages = tuple(
        Stage(
            index=index,
            item=spec["item"],
            conditions=spec["conditions"],
            guards_after=spec["guards"],
            histories=CenteredHistories(pattern.window),
        )
        for index, spec in enumerate(pending_specs)
    )
    # Re-distribute internal guards: a guard between positive items i and
    # i+1 was attached to stage i by the walk above, which is what the
    # engines expect (the guard fires once stage i+1's event is bound).
    return ChainNFA(pattern=pattern, stages=final_stages)
