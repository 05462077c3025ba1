"""Boolean conditions over events participating in a pattern.

A condition constrains the events bound to pattern positions.  Conditions
are the ``C = {C_1..C_k}`` component of a pattern (paper Section 2.1) and
are verified at NFA states; the fraction of comparisons a condition accepts
is the *state selectivity* ``s_i`` in the cost model.

The public classes form a small algebra:

* :class:`AttributeCondition` — binary predicate over attributes of two
  pattern positions (the common case in the paper's queries, e.g.
  ``Corr(S_{i-1}.history, S_i.history) > T``).
* :class:`UnaryCondition` — predicate over a single position.
* :class:`AndCondition` / :class:`OrCondition` / :class:`NotCondition` —
  combinators.
* :class:`TrueCondition` — always accepts (useful in tests and as a default).

Each condition reports which pattern positions it ``depends_on`` so the NFA
compiler can attach it to the earliest state at which all of its positions
are bound — conditions are thus verified as early as possible, exactly like
the per-state predicate placement the paper assumes.  The compiler then
turns each placed condition into a *check* (:meth:`Condition.compile_check`)
that reads the event being bound directly, so a stage never copies its
binding to evaluate a candidate.
"""

from __future__ import annotations

import abc
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from repro.core.errors import ConditionError
from repro.core.events import Event

__all__ = [
    "Condition",
    "TrueCondition",
    "UnaryCondition",
    "AttributeCondition",
    "PairwiseCondition",
    "AggregateCondition",
    "AndCondition",
    "OrCondition",
    "NotCondition",
    "CorrelationCondition",
    "CenteredHistories",
    "KLEENE_REDUCTIONS",
    "kleene_representative",
    "center_history",
    "centered_pearson",
    "history_sketch",
    "is_plain",
    "pearson_correlation",
]

# A binding maps pattern position name -> the event(s) bound there.  Kleene
# positions bind a tuple of events; plain positions bind a single event.
Binding = Mapping[str, Any]

#: A compiled condition: ``check(binding, event)`` judges binding *event*
#: at the position the check was compiled for (Condition.compile_check).
Check = Callable[[Binding, Event], bool]


class Condition(abc.ABC):
    """Base class for all pattern conditions."""

    @abc.abstractmethod
    def depends_on(self) -> frozenset[str]:
        """Names of pattern positions this condition reads."""

    @abc.abstractmethod
    def evaluate(self, binding: Binding) -> bool:
        """Evaluate against a (possibly partial) binding.

        All positions in :meth:`depends_on` are guaranteed present when an
        engine calls this; evaluating with missing positions raises
        ``KeyError`` by design.
        """

    def compile_check(self, position: str,
                      histories: "CenteredHistories") -> Check:
        """Compile this condition for the stage that binds *position*.

        The result, ``check(binding, event)``, returns what
        ``evaluate({**binding, position: event})`` returns, or raises the
        same exception; *event* is the single event being bound.  This
        implementation does exactly that, so user-defined conditions work
        unchanged.  :class:`AttributeCondition` and
        :class:`CorrelationCondition` override it to read *event* directly
        and reduce a Kleene tuple only where one is bound; a subclass of
        either that overrides ``evaluate`` gets this generic check, so its
        ``evaluate`` is still the one called.  *histories* is the stage's
        table of centered histories, which its correlation checks share.
        """
        evaluate = self.evaluate

        def check(binding: Binding, event: Event) -> bool:
            return evaluate({**binding, position: event})

        return check

    def __and__(self, other: "Condition") -> "AndCondition":
        return AndCondition((self, other))

    def __or__(self, other: "Condition") -> "OrCondition":
        return OrCondition((self, other))

    def __invert__(self) -> "NotCondition":
        return NotCondition(self)


@dataclass(frozen=True)
class TrueCondition(Condition):
    """A condition that accepts every binding."""

    def depends_on(self) -> frozenset[str]:
        return frozenset()

    def evaluate(self, binding: Binding) -> bool:
        return True


#: Valid per-condition Kleene reductions.  ``"last"`` is the historical
#: default (and what the self-loop edge evaluation produces naturally:
#: while a Kleene tuple grows, each appended event is checked with the
#: position bound to that event alone, so the completed tuple's *last*
#: element is the representative the stage conditions already agreed on).
#: ``"strict"`` declares the condition ambiguous over tuples: binding a
#: Kleene position to it is a pattern error.
KLEENE_REDUCTIONS = ("first", "last", "strict")


def kleene_representative(bound: Any, reduce: str = "last") -> Event:
    """Reduce a Kleene tuple binding to its representative event.

    Single-event bindings pass through.  ``reduce`` picks the tuple
    element: ``"first"`` or ``"last"``; ``"strict"`` refuses tuples with a
    clear error — use it on predicates whose meaning over a tuple is
    genuinely ambiguous (an :class:`AggregateCondition` is the explicit
    alternative).
    """
    _check_reduce(reduce)
    if isinstance(bound, tuple):
        if not bound:
            raise ConditionError("empty Kleene binding reached a condition")
        if reduce == "first":
            return bound[0]
        if reduce == "last":
            return bound[-1]
        raise ConditionError(
            "condition is ambiguous over a Kleene tuple binding "
            f"(reduce={reduce!r}); pick reduce='first' or 'last', or "
            "aggregate over the tuple with an AggregateCondition"
        )
    return bound


def _check_reduce(reduce: str) -> None:
    if reduce not in KLEENE_REDUCTIONS:
        raise ConditionError(
            f"unknown Kleene reduction {reduce!r}; expected one of "
            f"{KLEENE_REDUCTIONS}"
        )


@dataclass(frozen=True)
class UnaryCondition(Condition):
    """Predicate over the attributes of a single position.

    ``predicate`` receives the bound :class:`Event`.  ``name`` is used in
    ``repr`` and error messages only.  ``reduce`` picks the representative
    of a Kleene tuple binding (see :func:`kleene_representative`).
    """

    position: str
    predicate: Callable[[Event], bool]
    name: str = "unary"
    reduce: str = "last"

    def __post_init__(self) -> None:
        _check_reduce(self.reduce)

    def depends_on(self) -> frozenset[str]:
        return frozenset({self.position})

    def evaluate(self, binding: Binding) -> bool:
        return bool(
            self.predicate(
                kleene_representative(binding[self.position], self.reduce)
            )
        )

    def __repr__(self) -> str:
        return f"UnaryCondition({self.name}:{self.position})"


@dataclass(frozen=True)
class PairwiseCondition(Condition):
    """Predicate over two bound events.

    The general two-position condition; :class:`AttributeCondition` and
    :class:`CorrelationCondition` are convenience specialisations.
    ``reduce`` picks the representative of a Kleene tuple binding on either
    side (see :func:`kleene_representative`).
    """

    left: str
    right: str
    predicate: Callable[[Event, Event], bool]
    name: str = "pairwise"
    reduce: str = "last"

    def __post_init__(self) -> None:
        _check_reduce(self.reduce)

    def depends_on(self) -> frozenset[str]:
        return frozenset({self.left, self.right})

    def evaluate(self, binding: Binding) -> bool:
        return bool(
            self.predicate(
                kleene_representative(binding[self.left], self.reduce),
                kleene_representative(binding[self.right], self.reduce),
            )
        )

    def __repr__(self) -> str:
        return f"PairwiseCondition({self.name}:{self.left},{self.right})"


def is_plain(condition: Condition, base: type) -> bool:
    """Is *condition* a *base* that judges as *base* itself does?

    A subclass that overrides ``evaluate`` or ``compile_check`` is not:
    a check, a kernel or a join key built from *base*'s fields, or a
    split into the parts of a conjunction, would bypass the override.
    Every class test that decides how a conjunct is flattened
    (:meth:`AndCondition.flattened`), dropped
    (:meth:`~repro.core.patterns.Pattern.conjuncts`), compiled, kernelized
    (:func:`~repro.core.vectorized.compile_stage_kernel`) or keyed
    (:func:`~repro.core.joinkeys.join_key`) is this one.
    """
    cls = type(condition)
    return (isinstance(condition, base) and cls.evaluate is base.evaluate
            and cls.compile_check is base.compile_check)


def _bound_side(condition: Condition, base: type,
                position: str) -> str | None:
    """The bound side of *condition*, of built-in class *base*, at the
    stage binding *position*: the other position it reads.  ``None``
    (compile to the generic check, build no kernel op and no join key)
    unless exactly one side is *position*, or when the condition is not
    :func:`is_plain`."""
    if not is_plain(condition, base):
        return None
    left, right = condition.left, condition.right
    if left == position and right != position:
        return right
    if right == position and left != position:
        return left
    return None


_OPERATORS: dict[str, Callable[[Any, Any], bool]] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


@dataclass(frozen=True)
class AttributeCondition(Condition):
    """``left.attr <op> right.attr`` — the sensor-query predicate form.

    Example: the paper's sensor queries use
    ``S_i.distance > S_{i-1}.distance``; that is
    ``AttributeCondition("s_i", "distance", ">", "s_im1", "distance")``.
    """

    left: str
    left_attribute: str
    operator: str
    right: str
    right_attribute: str
    reduce: str = "last"

    def __post_init__(self) -> None:
        if self.operator not in _OPERATORS:
            raise ConditionError(
                f"unknown operator {self.operator!r}; "
                f"expected one of {sorted(_OPERATORS)}"
            )
        _check_reduce(self.reduce)

    def depends_on(self) -> frozenset[str]:
        return frozenset({self.left, self.right})

    def evaluate(self, binding: Binding) -> bool:
        left_event = kleene_representative(binding[self.left], self.reduce)
        right_event = kleene_representative(binding[self.right], self.reduce)
        try:
            lhs = left_event[self.left_attribute]
            rhs = right_event[self.right_attribute]
        except KeyError as exc:
            raise self._missing(exc) from exc
        return _OPERATORS[self.operator](lhs, rhs)

    def compile_check(self, position: str,
                      histories: "CenteredHistories") -> Check:
        other = _bound_side(self, AttributeCondition, position)
        if other is None:
            return super().compile_check(position, histories)
        event_is_left = other == self.right
        compare = _OPERATORS[self.operator]
        left_attribute, right_attribute = self.left_attribute, self.right_attribute
        reduce, missing = self.reduce, self._missing

        def check(binding: Binding, event: Event) -> bool:
            bound = binding[other]
            if isinstance(bound, tuple):
                bound = kleene_representative(bound, reduce)
            if event_is_left:
                left_event, right_event = event, bound
            else:
                left_event, right_event = bound, event
            # Left first, as in evaluate, so a binding missing both
            # attributes names the same one.
            try:
                lhs = left_event[left_attribute]
                rhs = right_event[right_attribute]
            except KeyError as exc:
                raise missing(exc) from exc
            return compare(lhs, rhs)

        return check

    def _missing(self, exc: KeyError) -> ConditionError:
        return ConditionError(
            f"missing attribute {exc} on event while evaluating "
            f"{self.left}.{self.left_attribute} {self.operator} "
            f"{self.right}.{self.right_attribute}"
        )

    def __repr__(self) -> str:
        return (
            f"({self.left}.{self.left_attribute} {self.operator} "
            f"{self.right}.{self.right_attribute})"
        )


_AGGREGATES: dict[str, Callable[[Sequence[Any]], Any]] = {
    "min": min,
    "max": max,
    "sum": sum,
    "avg": lambda values: sum(values) / len(values),
    "first": lambda values: values[0],
    "last": lambda values: values[-1],
}


@dataclass(frozen=True)
class AggregateCondition(Condition):
    """``agg(position.attribute) <op> value`` over a (Kleene) binding.

    The explicit alternative to reducing a Kleene tuple to one
    representative: the aggregate ranges over **all** events bound at
    ``position``.  ``aggregate`` is one of ``min``/``max``/``sum``/``avg``/
    ``first``/``last``/``count`` (``count`` ignores ``attribute`` and
    compares the tuple length).  Over a single-event binding the aggregate
    degenerates to that event's attribute (count = 1).

    Over a Kleene position the aggregate is only meaningful on the
    *completed* tuple, so such conditions are evaluated at match closure
    (``Pattern.closure_conjuncts``), never on the growing self-loop — the
    NFA compiler excludes them from stage placement and the match
    resolution step (:mod:`repro.core.policies`) applies them.
    """

    position: str
    aggregate: str
    operator: str
    value: float
    attribute: str = ""

    #: Marks the condition for closure-time evaluation when it reads a
    #: Kleene position (see Pattern.closure_conjuncts).
    evaluate_on_closure = True

    def __post_init__(self) -> None:
        if self.operator not in _OPERATORS:
            raise ConditionError(
                f"unknown operator {self.operator!r}; "
                f"expected one of {sorted(_OPERATORS)}"
            )
        if self.aggregate != "count" and self.aggregate not in _AGGREGATES:
            raise ConditionError(
                f"unknown aggregate {self.aggregate!r}; expected one of "
                f"{sorted(_AGGREGATES) + ['count']}"
            )
        if self.aggregate != "count" and not self.attribute:
            raise ConditionError(
                f"aggregate {self.aggregate!r} needs an attribute"
            )

    def depends_on(self) -> frozenset[str]:
        return frozenset({self.position})

    def evaluate(self, binding: Binding) -> bool:
        bound = binding[self.position]
        events = bound if isinstance(bound, tuple) else (bound,)
        if not events:
            raise ConditionError("empty Kleene binding reached a condition")
        if self.aggregate == "count":
            aggregated: Any = len(events)
        else:
            try:
                values = [event[self.attribute] for event in events]
            except KeyError as exc:
                raise ConditionError(
                    f"missing attribute {exc} on event while evaluating "
                    f"{self.aggregate}({self.position}.{self.attribute})"
                ) from exc
            aggregated = _AGGREGATES[self.aggregate](values)
        return _OPERATORS[self.operator](aggregated, self.value)

    def __repr__(self) -> str:
        target = self.attribute if self.aggregate != "count" else "*"
        return (
            f"({self.aggregate}({self.position}.{target}) "
            f"{self.operator} {self.value:g})"
        )


def pearson_correlation(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Pearson's correlation coefficient of two equal-length sequences.

    Pure-Python implementation (no numpy dependency in the core library).
    Returns 0.0 when either sequence is constant, mirroring the convention
    used for the stock-history predicate: a flat price history correlates
    with nothing.

    :func:`center_history` and :func:`centered_pearson` split this into
    one pass per history and one per pair, with the same operations in
    the same order, so ``centered_pearson(center_history(xs),
    center_history(ys))`` is bit-identical to it.  It stays one fused pass
    because it is the cheaper form when each pair is seen once.
    """
    n = len(xs)
    if n != len(ys):
        raise _length_mismatch(xs, ys)
    if n < 2:
        return 0.0
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sxx = syy = 0.0
    for x, y in zip(xs, ys):
        dx = x - mean_x
        dy = y - mean_y
        cov += dx * dy
        sxx += dx * dx
        syy += dy * dy
    if sxx == 0.0 or syy == 0.0:
        return 0.0
    # sqrt each factor separately: for tiny deviations the product
    # sxx * syy underflows to 0.0 while both factors are nonzero.  Clamp
    # the quotient: with denormal deviations the separate roundings can
    # push it a hair past the mathematical bound of +/-1.
    value = cov / (math.sqrt(sxx) * math.sqrt(syy))
    return max(-1.0, min(1.0, value))


def _length_mismatch(xs: Sequence[float], ys: Sequence[float]) -> ConditionError:
    return ConditionError(
        f"correlation needs equal-length sequences, got {len(xs)} and {len(ys)}"
    )


def center_history(seq: Sequence[float]) -> tuple[list[float], float] | None:
    """Center *seq* as :func:`pearson_correlation` does: its deviations
    from the mean and the root of their sum of squares.  ``None`` when a
    correlation with *seq* is degenerate (shorter than two, or constant),
    which :func:`pearson_correlation` reports as 0.0.
    """
    n = len(seq)
    if n < 2:
        return None
    mean = sum(seq) / n
    centered = [x - mean for x in seq]
    sxx = 0.0
    for d in centered:
        sxx += d * d
    if sxx == 0.0:
        return None
    return centered, math.sqrt(sxx)


def centered_pearson(left: tuple[list[float], float],
                     right: tuple[list[float], float]) -> float:
    """:func:`pearson_correlation` of two equal-length histories given as
    :func:`center_history` returned them (neither ``None``), bit for bit.

    The compiled correlation check and the batched kernel's pure-Python
    fallback both correlate through this function.
    """
    xs, x_norm = left
    ys, y_norm = right
    cov = 0.0
    for dx, dy in zip(xs, ys):
        cov += dx * dy
    value = cov / (x_norm * y_norm)
    return max(-1.0, min(1.0, value))


#: The allowance under the leftover's square root (δ) and the margin
#: between a bound and the threshold.  Each is more than 30 times the
#: rounding error it covers at 4,096 elements (DESIGN §2t).
_LEFTOVER_ALLOWANCE = 1e-10
_MARGIN = 1e-10
#: The sketch of a history that has none: it decides no pair.
_UNBOUNDED = (0.0, 0.0, math.inf)


@functools.lru_cache(maxsize=64)
def _cosine_pair(n: int) -> tuple[tuple[float, ...], ...]:
    """The orthonormal DCT-II cosines k = 1 and 2 of length *n*."""
    scale = math.sqrt(2.0 / n)
    return tuple(tuple(scale * math.cos(math.pi * k * (2 * i + 1) / (2 * n))
                       for i in range(n)) for k in (1, 2))


def history_sketch(centered: tuple[list[float], float]
                   ) -> tuple[float, float, float] | None:
    """``(a1, a2, t)`` of a history as :func:`center_history` returned it:
    the coefficients of its unit deviations on the first two orthonormal
    DCT-II cosines, and an upper bound on the norm of the rest.

    By Cauchy–Schwarz on the rest, the Pearson coefficient of two
    sketched histories lies within ``a1*b1 + a2*b2 +/- t_a*t_b``, to
    within rounding that :data:`_MARGIN` covers.  ``None`` (no sketch)
    unless the deviations are floats, between 3 and 4,096 of them, with a
    norm that keeps the sketch and :func:`centered_pearson` clear of
    underflow and overflow, and the coefficients are finite.
    """
    deviations, norm = centered
    n = len(deviations)
    # What the rounding bound of DESIGN §2t covers.
    if not (3 <= n <= 4096 and 1e-100 < norm < 1e100
            and all(type(d) is float for d in deviations)):
        return None
    first, second = _cosine_pair(n)
    a1 = sum(map(operator.mul, deviations, first)) / norm
    a2 = sum(map(operator.mul, deviations, second)) / norm
    if not (math.isfinite(a1) and math.isfinite(a2)):
        return None
    # The allowance goes under the root: near the cosines' plane the
    # difference cancels to about 0 and rounding could leave it below the
    # true leftover.
    leftover = max(0.0, 1.0 - a1 * a1 - a2 * a2) + _LEFTOVER_ALLOWANCE
    return a1, a2, math.sqrt(leftover)


def _decision_bounds(threshold: Any) -> tuple[float, float]:
    """``(below, above)``: a correlation whose upper bound is below
    *below* fails ``> threshold``, and one whose lower bound is above
    *above* passes.  Only a float or int threshold is bounded (a huge int
    one as an infinite float); any other decides nothing, so its
    comparisons happen where they always did."""
    if type(threshold) not in (float, int):
        return -math.inf, math.inf
    try:
        value = float(threshold)
    except OverflowError:
        value = math.inf if threshold > 0 else -math.inf
    return value - _MARGIN, value + _MARGIN


class CenteredHistories:
    """Centered histories of recently bound events, keyed by ``id(history)``.

    A compiled correlation check centers each side's history once and finds
    it here afterwards.  :func:`~repro.core.nfa.compile_pattern` gives each
    stage and each negation guard a table of its own: in the agent engines
    a stage is one agent's, and agents can run windows apart, so a shared
    table would expire what a lagging agent still reads.  Histories are
    treated as immutable, like the events that carry them.

    An entry holds the history itself, so its id stays unique while the
    entry lives, and a lookup also checks identity.  It also holds the
    timestamp of the event that carried the history, and the history's
    :func:`history_sketch` (:data:`_UNBOUNDED` when it has none, or when
    the history is degenerate).  Entries live about
    one *window*: once the newest centered event is more than two windows
    past :attr:`floor`, the floor moves to one window behind it and older
    entries are dropped, and a history older than the floor is centered
    but not kept.  So no entry is ever more than two windows older than
    the newest centered event (:attr:`newest`).
    """

    __slots__ = ("window", "entries", "newest", "floor")

    def __init__(self, window: float) -> None:
        self.window = window
        #: id(history) -> (history, center_history(history), timestamp,
        #: a1, a2, t)
        self.entries: dict[int, tuple] = {}
        self.newest = -math.inf
        self.floor = -math.inf

    def entry(self, history: Sequence[float], timestamp: float) -> tuple:
        """The entry of *history*, carried by an event at *timestamp*:
        centered and sketched at most once while it lives."""
        entry = self.entries.get(id(history))
        if entry is not None and entry[0] is history:
            return entry
        centered = center_history(history)
        sketch = history_sketch(centered) if centered is not None else None
        entry = (history, centered, timestamp, *(sketch or _UNBOUNDED))
        if timestamp > self.newest:
            self.newest = timestamp
            if timestamp - self.floor > 2 * self.window:
                self._expire()
        if timestamp >= self.floor:
            self.entries[id(history)] = entry
        return entry

    def _expire(self) -> None:
        self.floor = floor = self.newest - self.window
        entries = self.entries
        for key in [key for key, entry in entries.items() if entry[2] < floor]:
            del entries[key]


@dataclass(frozen=True)
class CorrelationCondition(Condition):
    """``Corr(left.attr, right.attr) > threshold`` — the stock-query form.

    The paper augments every stock event with a ``history`` attribute holding
    the last 20 recorded prices and accepts pairs whose Pearson correlation
    exceeds a threshold ``T`` (Section 5.1).
    """

    left: str
    right: str
    threshold: float
    attribute: str = "history"
    reduce: str = "last"

    def __post_init__(self) -> None:
        _check_reduce(self.reduce)

    def depends_on(self) -> frozenset[str]:
        return frozenset({self.left, self.right})

    def evaluate(self, binding: Binding) -> bool:
        left_event = kleene_representative(binding[self.left], self.reduce)
        right_event = kleene_representative(binding[self.right], self.reduce)
        try:
            xs = left_event[self.attribute]
            ys = right_event[self.attribute]
        except KeyError as exc:
            raise self._missing(exc) from exc
        self._require_sequences(xs, ys)
        return pearson_correlation(xs, ys) > self.threshold

    def compile_check(self, position: str,
                      histories: CenteredHistories) -> Check:
        """The check centers and sketches each history once in
        *histories*.  When the two sketches bound the pair's coefficient
        clear of the threshold, that decides; otherwise it correlates the
        pair with :func:`centered_pearson`, the arithmetic of
        :func:`pearson_correlation`.  Either way the verdict is
        ``centered_pearson(...) > threshold`` (DESIGN §2t)."""
        other = _bound_side(self, CorrelationCondition, position)
        if other is None:
            return super().compile_check(position, histories)
        event_is_left = other == self.right
        attribute, threshold = self.attribute, self.threshold
        below, above = _decision_bounds(threshold)
        reduce, missing = self.reduce, self._missing
        require_sequences = self._require_sequences
        # The hit path reads the table inline: it is most calls.
        lookup, add = histories.entries.get, histories.entry

        def check(binding: Binding, event: Event) -> bool:
            bound = binding[other]
            if isinstance(bound, tuple):
                bound = kleene_representative(bound, reduce)
            if event_is_left:
                left_event, right_event = event, bound
            else:
                left_event, right_event = bound, event
            try:
                xs = left_event[attribute]
                ys = right_event[attribute]
            except KeyError as exc:
                raise missing(exc) from exc
            try:
                mismatch = len(xs) != len(ys)
            except TypeError:
                require_sequences(xs, ys)
                raise
            if mismatch:
                raise _length_mismatch(xs, ys)
            # Left before right, as pearson_correlation centers them.
            entry = lookup(id(xs))
            if entry is None or entry[0] is not xs:
                entry = add(xs, left_event.timestamp)
            _, left, _, a1, a2, left_rest = entry
            entry = lookup(id(ys))
            if entry is None or entry[0] is not ys:
                entry = add(ys, right_event.timestamp)
            _, right, _, b1, b2, right_rest = entry
            if left is None or right is None:
                return 0.0 > threshold
            near = a1 * b1 + a2 * b2
            rest = left_rest * right_rest
            if near + rest < below:
                return False
            if near - rest > above:
                return True
            return centered_pearson(left, right) > threshold

        return check

    def _missing(self, exc: KeyError) -> ConditionError:
        return ConditionError(
            f"missing attribute {exc} on event while evaluating {self!r}"
        )

    def _require_sequences(self, xs: Any, ys: Any) -> None:
        """Raise the ``ConditionError`` naming this condition when a
        history has no length, left first, as ``len`` would fail."""
        for history in (xs, ys):
            try:
                len(history)
            except TypeError as exc:
                raise ConditionError(
                    f"attribute {self.attribute!r} is {history!r}, not a "
                    f"sequence, while evaluating {self!r}"
                ) from exc

    def __repr__(self) -> str:
        return f"(Corr({self.left},{self.right}) > {self.threshold:g})"


@dataclass(frozen=True)
class AndCondition(Condition):
    """Conjunction of sub-conditions (short-circuiting)."""

    parts: tuple[Condition, ...] = field(default=())

    def depends_on(self) -> frozenset[str]:
        deps: frozenset[str] = frozenset()
        for part in self.parts:
            deps |= part.depends_on()
        return deps

    def evaluate(self, binding: Binding) -> bool:
        return all(part.evaluate(binding) for part in self.parts)

    def flattened(self) -> tuple[Condition, ...]:
        """Flatten nested conjunctions into a single tuple of conjuncts.

        The NFA compiler uses this so each conjunct can be attached to the
        earliest state where its dependencies are bound.  Only a plain
        conjunction is split (:func:`is_plain`): a subclass that judges
        for itself stays one conjunct, evaluated whole.
        """
        parts: list[Condition] = []
        for part in self.parts:
            if is_plain(part, AndCondition):
                parts.extend(part.flattened())
            else:
                parts.append(part)
        return tuple(parts)


@dataclass(frozen=True)
class OrCondition(Condition):
    """Disjunction of sub-conditions (short-circuiting)."""

    parts: tuple[Condition, ...] = field(default=())

    def depends_on(self) -> frozenset[str]:
        deps: frozenset[str] = frozenset()
        for part in self.parts:
            deps |= part.depends_on()
        return deps

    def evaluate(self, binding: Binding) -> bool:
        return any(part.evaluate(binding) for part in self.parts)


@dataclass(frozen=True)
class NotCondition(Condition):
    """Negation of a sub-condition."""

    inner: Condition

    def depends_on(self) -> frozenset[str]:
        return self.inner.depends_on()

    def evaluate(self, binding: Binding) -> bool:
        return not self.inner.evaluate(binding)
