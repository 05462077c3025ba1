"""Pattern model (paper Section 2.1).

A pattern combines

* a *structure*: an expression over the operators SEQ, AND, OR, NOT and
  Kleene closure (KL) applied to event types,
* a set of Boolean *conditions* over the participating events, and
* a *time window* ``W`` bounding the timestamp spread of a match.

This reproduction follows the paper's scope: flat patterns — a single
top-level operator over event types, where individual positions may carry a
``KLEENE`` or ``NEGATED`` modifier (Figure 2 shows exactly these three NFA
shapes).  The skip-till-any-match selection strategy is assumed throughout,
as in the paper (Section 2.1), which makes it the hardest case to support.

Positions
---------
Every operand of the structure is a :class:`PatternItem` with a unique
*position name* used by conditions to refer to the event bound there.  By
default positions are named ``p1, p2, ...`` in declaration order.

Example
-------
The warehouse pattern "a sequence of an order, a removal and a delivery of
the same item within one hour"::

    pattern = Pattern.sequence(
        ["O", "R", "D"],
        window=3600.0,
        condition=AndCondition((
            AttributeCondition("p1", "item", "==", "p2", "item"),
            AttributeCondition("p2", "item", "==", "p3", "item"),
        )),
    )
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.conditions import (
    AndCondition,
    Condition,
    TrueCondition,
    is_plain,
)
from repro.core.errors import PatternError
from repro.core.events import EventType

__all__ = [
    "Operator",
    "ItemKind",
    "PatternItem",
    "Pattern",
    "SelectionPolicy",
    "ConsumptionPolicy",
]


class Operator(enum.Enum):
    """Top-level pattern operators."""

    SEQ = "SEQ"
    AND = "AND"
    OR = "OR"


class SelectionPolicy(enum.Enum):
    """Which qualifying event combinations become matches (SASE/SPECTRE
    terminology).

    ``SKIP_TILL_ANY`` — every qualifying in-window combination matches; the
    paper's assumption throughout and the default here.  ``SKIP_TILL_NEXT``
    — of all skip-till-any matches sharing the same seed event (the event
    bound first, at stage 0), only the earliest continuation survives: the
    match whose per-stage binding sequence is lexicographically smallest in
    ``(timestamp, event_id)`` order.  Defined as a deterministic refinement
    of the skip-till-any match set, so every engine resolves it identically
    (see :mod:`repro.core.policies`).
    """

    SKIP_TILL_ANY = "skip-till-any-match"
    SKIP_TILL_NEXT = "skip-till-next-match"


class ConsumptionPolicy(enum.Enum):
    """Whether a matched event remains available for further matches.

    ``REUSE`` — events participate in arbitrarily many matches (the
    default, and the paper's implicit policy).  ``CONSUME`` — consume-on-
    match: accepted matches retire their positive events, so later matches
    reusing any of those events are discarded.  Acceptance runs in
    canonical detection order — ascending ``(timestamp, event_id)`` of the
    match's latest positive event, ties broken by the binding order key —
    making the surviving set engine-independent.
    """

    REUSE = "reuse"
    CONSUME = "consume"


def _coerce_selection(value: "SelectionPolicy | str") -> "SelectionPolicy":
    if isinstance(value, SelectionPolicy):
        return value
    for policy in SelectionPolicy:
        if value in (policy.value, policy.name, policy.name.lower()):
            return policy
    raise PatternError(
        f"unknown selection policy {value!r}; expected one of "
        f"{[p.value for p in SelectionPolicy]}"
    )


def _coerce_consumption(value: "ConsumptionPolicy | str") -> "ConsumptionPolicy":
    if isinstance(value, ConsumptionPolicy):
        return value
    for policy in ConsumptionPolicy:
        if value in (policy.value, policy.name, policy.name.lower()):
            return policy
    raise PatternError(
        f"unknown consumption policy {value!r}; expected one of "
        f"{[p.value for p in ConsumptionPolicy]}"
    )


class ItemKind(enum.Enum):
    """Per-position modifiers."""

    PRIMARY = "primary"
    KLEENE = "kleene"
    NEGATED = "negated"


@dataclass(frozen=True)
class PatternItem:
    """One operand of a pattern structure.

    ``name`` is the position name conditions use.  ``kind`` marks Kleene
    closure / negation positions.
    """

    name: str
    event_type: EventType
    kind: ItemKind = ItemKind.PRIMARY

    def __post_init__(self) -> None:
        if not self.name:
            raise PatternError("pattern position name must be non-empty")

    @property
    def is_kleene(self) -> bool:
        return self.kind is ItemKind.KLEENE

    @property
    def is_negated(self) -> bool:
        return self.kind is ItemKind.NEGATED

    def __repr__(self) -> str:
        marker = {"primary": "", "kleene": "+", "negated": "!"}[self.kind.value]
        return f"{marker}{self.event_type.name}:{self.name}"


def _coerce_type(value: EventType | str) -> EventType:
    return value if isinstance(value, EventType) else EventType(value)


@dataclass(frozen=True)
class Pattern:
    """A flat CEP pattern ``FP = {E, O, W, C}``.

    Attributes
    ----------
    operator:
        The top-level operator combining the items.
    items:
        The operand positions in declaration order.  For ``SEQ`` the order
        is the required temporal order of the *positive* positions; negated
        positions express "no such event occurs between its neighbours".
    window:
        The time window ``W``: a match's events' timestamps may span at most
        this much.
    condition:
        The conjunction of the user's conditions.  ``TrueCondition`` if the
        pattern is unconditioned.
    name:
        Optional human-readable name used in reports.
    selection:
        Which qualifying combinations become matches; defaults to
        skip-till-any-match as assumed throughout the paper.
    consumption:
        Whether matched events stay available for further matches; defaults
        to reuse.
    """

    operator: Operator
    items: tuple[PatternItem, ...]
    window: float
    condition: Condition = field(default_factory=TrueCondition)
    name: str = ""
    selection: SelectionPolicy = SelectionPolicy.SKIP_TILL_ANY
    consumption: ConsumptionPolicy = ConsumptionPolicy.REUSE

    def __post_init__(self) -> None:
        # Accept the string spellings (CLI flags, snapshots) transparently.
        object.__setattr__(
            self, "selection", _coerce_selection(self.selection)
        )
        object.__setattr__(
            self, "consumption", _coerce_consumption(self.consumption)
        )
        if self.window <= 0:
            raise PatternError(f"window must be positive, got {self.window}")
        if not self.items:
            raise PatternError("pattern needs at least one item")
        names = [item.name for item in self.items]
        if len(set(names)) != len(names):
            raise PatternError(f"duplicate position names in pattern: {names}")
        positives = self.positive_items()
        if not positives:
            raise PatternError("pattern needs at least one non-negated item")
        if self.items[0].is_negated or self.items[-1].is_negated:
            # The paper's chain NFA expresses negation as "no C between/after
            # specific neighbours" (Fig. 2(c)); leading negation has no left
            # neighbour and is equivalent to a shorter pattern, so reject it
            # to keep semantics unambiguous.  Trailing negation is allowed in
            # the paper's Fig. 2(c) shape; we support it.
            if self.items[0].is_negated:
                raise PatternError("pattern must not start with a negated item")
        if self.operator is not Operator.SEQ:
            for item in self.items:
                if item.kind is not ItemKind.PRIMARY:
                    raise PatternError(
                        f"{self.operator.value} patterns support only primary "
                        f"items; got {item!r}"
                    )
            if not self.has_default_policies:
                # Selection/consumption resolution orders bindings by SEQ
                # stage position; AND/OR have no such order.
                raise PatternError(
                    f"{self.operator.value} patterns support only the default "
                    "skip-till-any-match/reuse policies"
                )
        unknown = self.condition.depends_on() - set(names)
        if unknown:
            raise PatternError(
                f"condition references unknown positions: {sorted(unknown)}"
            )
        kleene_names = {item.name for item in self.items if item.is_kleene}
        if kleene_names:
            for conjunct in self.conjuncts():
                strict_deps = (
                    conjunct.depends_on() & kleene_names
                    if getattr(conjunct, "reduce", None) == "strict"
                    else frozenset()
                )
                if strict_deps:
                    raise PatternError(
                        f"condition {conjunct!r} is ambiguous over the Kleene "
                        f"position(s) {sorted(strict_deps)}: a strict "
                        "condition refuses to reduce a tuple binding to one "
                        "representative.  Pick reduce='first' or "
                        "reduce='last', or aggregate over the whole tuple "
                        "with an AggregateCondition."
                    )

    # ------------------------------------------------------------------ #
    # Constructors                                                       #
    # ------------------------------------------------------------------ #

    @staticmethod
    def _build_items(
        types: Sequence[EventType | str],
        kleene: Iterable[int] = (),
        negated: Iterable[int] = (),
        names: Sequence[str] | None = None,
    ) -> tuple[PatternItem, ...]:
        kleene_set = set(kleene)
        negated_set = set(negated)
        overlap = kleene_set & negated_set
        if overlap:
            raise PatternError(
                f"positions {sorted(overlap)} cannot be both Kleene and negated"
            )
        items = []
        for index, type_spec in enumerate(types):
            if names is not None:
                name = names[index]
            else:
                name = f"p{index + 1}"
            if index in kleene_set:
                kind = ItemKind.KLEENE
            elif index in negated_set:
                kind = ItemKind.NEGATED
            else:
                kind = ItemKind.PRIMARY
            items.append(PatternItem(name, _coerce_type(type_spec), kind))
        return tuple(items)

    @classmethod
    def sequence(
        cls,
        types: Sequence[EventType | str],
        window: float,
        condition: Condition | None = None,
        kleene: Iterable[int] = (),
        negated: Iterable[int] = (),
        names: Sequence[str] | None = None,
        name: str = "",
        selection: "SelectionPolicy | str" = SelectionPolicy.SKIP_TILL_ANY,
        consumption: "ConsumptionPolicy | str" = ConsumptionPolicy.REUSE,
    ) -> "Pattern":
        """Build a SEQ pattern.

        *kleene* and *negated* are 0-based indexes into *types* marking which
        positions carry the respective modifier.  *selection* and
        *consumption* accept the enum members or their string spellings
        (e.g. ``"skip-till-next-match"``, ``"consume"``).
        """
        return cls(
            operator=Operator.SEQ,
            items=cls._build_items(types, kleene, negated, names),
            window=window,
            condition=condition if condition is not None else TrueCondition(),
            name=name,
            selection=selection,
            consumption=consumption,
        )

    @classmethod
    def conjunction(
        cls,
        types: Sequence[EventType | str],
        window: float,
        condition: Condition | None = None,
        names: Sequence[str] | None = None,
        name: str = "",
    ) -> "Pattern":
        """Build an AND pattern (any temporal order, all types present)."""
        return cls(
            operator=Operator.AND,
            items=cls._build_items(types, names=names),
            window=window,
            condition=condition if condition is not None else TrueCondition(),
            name=name,
        )

    @classmethod
    def disjunction(
        cls,
        types: Sequence[EventType | str],
        window: float,
        condition: Condition | None = None,
        names: Sequence[str] | None = None,
        name: str = "",
    ) -> "Pattern":
        """Build an OR pattern (any single listed type forms a match)."""
        return cls(
            operator=Operator.OR,
            items=cls._build_items(types, names=names),
            window=window,
            condition=condition if condition is not None else TrueCondition(),
            name=name,
        )

    # ------------------------------------------------------------------ #
    # Introspection                                                      #
    # ------------------------------------------------------------------ #

    def positive_items(self) -> tuple[PatternItem, ...]:
        """Items that contribute events to a match (non-negated)."""
        return tuple(item for item in self.items if not item.is_negated)

    def negated_items(self) -> tuple[PatternItem, ...]:
        return tuple(item for item in self.items if item.is_negated)

    def kleene_items(self) -> tuple[PatternItem, ...]:
        return tuple(item for item in self.items if item.is_kleene)

    @property
    def has_default_policies(self) -> bool:
        """True when match resolution is the identity (skip-till-any +
        reuse) — the fast path every pre-policy golden is pinned on."""
        return (
            self.selection is SelectionPolicy.SKIP_TILL_ANY
            and self.consumption is ConsumptionPolicy.REUSE
        )

    @property
    def length(self) -> int:
        """Pattern length in the paper's sense: number of event types."""
        return len(self.items)

    def event_types(self) -> tuple[EventType, ...]:
        return tuple(item.event_type for item in self.items)

    def item_by_name(self, name: str) -> PatternItem:
        for item in self.items:
            if item.name == name:
                return item
        raise PatternError(f"no position named {name!r} in pattern")

    def conjuncts(self) -> tuple[Condition, ...]:
        """The flattened list of conjunct conditions.

        A plain ``TrueCondition`` yields an empty tuple, a plain
        ``AndCondition`` its :meth:`~AndCondition.flattened` parts, and any
        other condition, a subclass of either that judges for itself
        included (:func:`~repro.core.conditions.is_plain`), is a single
        conjunct.
        """
        if is_plain(self.condition, TrueCondition):
            return ()
        if is_plain(self.condition, AndCondition):
            return self.condition.flattened()
        return (self.condition,)

    def closure_conjuncts(self) -> tuple[Condition, ...]:
        """Conjuncts evaluated on the *completed* match only.

        A condition marked ``evaluate_on_closure`` (currently
        ``AggregateCondition``) that reads a Kleene position is only
        meaningful once the tuple stops growing, so the NFA compiler keeps
        it off the stages and the match-resolution step
        (:func:`repro.core.policies.resolve_matches`) applies it as a
        post-filter.  Over non-Kleene positions such conditions degenerate
        to ordinary single-event checks and stay on their stage.
        """
        kleene_names = {item.name for item in self.items if item.is_kleene}
        if not kleene_names:
            return ()
        return tuple(
            conjunct
            for conjunct in self.conjuncts()
            if getattr(conjunct, "evaluate_on_closure", False)
            and conjunct.depends_on() & kleene_names
        )

    def stage_conjuncts(self) -> tuple[Condition, ...]:
        """``conjuncts()`` minus ``closure_conjuncts()`` — what the NFA
        compiler places onto stages and guards."""
        closure = self.closure_conjuncts()
        if not closure:
            return self.conjuncts()
        closure_ids = {id(conjunct) for conjunct in closure}
        return tuple(
            conjunct
            for conjunct in self.conjuncts()
            if id(conjunct) not in closure_ids
        )

    def describe(self) -> str:
        """Human-readable one-line description used by the bench reports."""
        body = ", ".join(repr(item) for item in self.items)
        label = self.name or "pattern"
        text = f"{label}: {self.operator.value}({body}) within {self.window:g}"
        if self.selection is not SelectionPolicy.SKIP_TILL_ANY:
            text += f" [{self.selection.value}]"
        if self.consumption is not ConsumptionPolicy.REUSE:
            text += f" [{self.consumption.value}]"
        return text
