"""Equality-keyed join buckets (DESIGN §2p).

A stage or negation guard whose *first* conjunct is a plain
:class:`~repro.core.conditions.AttributeCondition` ``bound.attr ==
new.attr`` only ever pairs items with equal keys: when the two keys
differ, that conjunct is ``False``, so ``Stage.accepts`` and
``NegationGuard.violates`` return ``False`` before any later conjunct
runs, and nothing raises.  :func:`join_key` derives that key once per
stage and guard (:func:`~repro.core.nfa.compile_pattern` stores it as
``Stage.key`` and ``NegationGuard.key``), and a :class:`KeyBuckets`
groups one buffer's entries by it, so a scan visits only the entries
whose key equals the new item's.  Each scan still charges every pair a
full scan would have compared; the engines count the skipped ones.

Keys hash and compare as dictionary keys do, which agrees with ``==``
for every type whose hash is consistent with its equality (``1``,
``1.0`` and ``True`` share a group).  A NaN key shares a group only with
the same NaN object, which ``==`` rejects anyway.  An item whose key
attribute is missing, whose Kleene tuple the conjunct cannot reduce, or
whose key is unhashable has no key (:data:`UNKEYED`): it would raise or
compare in the conjunct, so it is scanned in full.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.conditions import (
    AttributeCondition,
    Condition,
    _bound_side,
    kleene_representative,
)
from repro.core.errors import ConditionError
from repro.core.events import Event

__all__ = ["UNKEYED", "JoinKey", "KeyBuckets", "join_key", "position_of"]

#: The key of an item that has none: a missing attribute, an irreducible
#: Kleene tuple, or an unhashable value.
UNKEYED = object()

_timestamp = attrgetter("timestamp")


@dataclass(frozen=True)
class JoinKey:
    """Both sides of a stage's or guard's equality conjunct.

    The event the stage or guard binds supplies ``event_attribute``; the
    event bound at ``bound_position`` supplies ``bound_attribute``, after
    the conjunct's Kleene reduction, exactly as its compiled check reads
    them.
    """

    event_attribute: str
    bound_position: str
    bound_attribute: str
    reduce: str

    def of_event(self, event: Event) -> Any:
        """The key of an event the stage or guard would bind."""
        try:
            return event[self.event_attribute]
        except KeyError:
            return UNKEYED

    def of_binding(self, binding: Mapping[str, Any]) -> Any:
        """The key of a partial match's binding."""
        try:
            bound = binding[self.bound_position]
            if isinstance(bound, tuple):
                bound = kleene_representative(bound, self.reduce)
            return bound[self.bound_attribute]
        except (KeyError, ConditionError):
            return UNKEYED

    def of_partial(self, partial) -> Any:
        """The key of a partial match."""
        return self.of_binding(partial.binding)


def join_key(conditions: Sequence[Condition], position: str) -> JoinKey | None:
    """The key of the stage or guard binding *position*, whose conjuncts
    are *conditions* in evaluation order: ``None`` unless the first one is
    a plain ``AttributeCondition`` (:func:`~repro.core.conditions.is_plain`)
    with ``==`` between *position* and another position, the bound side
    its compiled check reads."""
    if not conditions:
        return None
    first = conditions[0]
    bound = _bound_side(first, AttributeCondition, position)
    if bound is None or first.operator != "==":
        return None
    if bound == first.left:
        return JoinKey(first.right_attribute, bound, first.left_attribute,
                       first.reduce)
    return JoinKey(first.left_attribute, bound, first.right_attribute,
                   first.reduce)


class KeyBuckets:
    """The entries of one buffer, grouped by key, each group in buffer
    order.

    Every entry sits in exactly one group, those without a key in the
    :data:`UNKEYED` one, so the groups hold exactly the buffer's entries.
    The owner adds each entry the buffer stores and removes each entry it
    purges; a group goes when its last entry does.  *entry_key* reads a
    buffered entry's key, and *item_key* the key of a new item that
    scans the buffer (:meth:`matching`).
    """

    __slots__ = ("entry_key", "item_key", "groups")

    def __init__(self, entry_key: Callable[[Any], Any],
                 item_key: Callable[[Any], Any]) -> None:
        self.entry_key = entry_key
        self.item_key = item_key
        self.groups: dict[Any, list] = {}

    @classmethod
    def of_partials(cls, key: JoinKey) -> "KeyBuckets":
        """Buckets of a buffer of partial matches, which events scan."""
        return cls(key.of_partial, key.of_event)

    @classmethod
    def of_events(cls, key: JoinKey) -> "KeyBuckets":
        """Buckets of a buffer of events, which partial matches scan."""
        return cls(key.of_event, key.of_partial)

    def _slot(self, item: Any) -> Any:
        key = self.entry_key(item)
        try:
            hash(key)
        except TypeError:
            return UNKEYED
        return key

    def add(self, item: Any) -> None:
        slot = self._slot(item)
        group = self.groups.get(slot)
        if group is None:
            self.groups[slot] = [item]
        else:
            group.append(item)

    def remove(self, items: Iterable[Any]) -> None:
        """Drop *items*, entries the buffer has purged.  Entries are found
        by identity, from the front of their group: a purge takes the
        oldest entries first."""
        groups = self.groups
        for item in items:
            slot = self._slot(item)
            group = groups[slot]
            for index, entry in enumerate(group):
                if entry is item:
                    del group[index]
                    break
            if not group:
                del groups[slot]

    def group(self, key: Any) -> Sequence[Any] | None:
        """The entries whose key equals *key*, in buffer order.

        ``None`` when the whole buffer must be scanned instead: *key* is
        :data:`UNKEYED` or unhashable, or some entry has no key.
        """
        groups = self.groups
        if key is UNKEYED or UNKEYED in groups:
            return None
        try:
            return groups.get(key, ())
        except TypeError:
            return None

    def matching(self, item: Any) -> Sequence[Any] | None:
        """:meth:`group` of the key of *item*, a new item that scans the
        buffer."""
        return self.group(self.item_key(item))

    def __len__(self) -> int:
        return sum(len(group) for group in self.groups.values())


def position_of(events: Sequence[Event], event: Event) -> int:
    """The index of *event* (by identity) in *events*, which is in
    timestamp order."""
    index = bisect_left(events, event.timestamp, key=_timestamp)
    while events[index] is not event:
        index += 1
    return index
