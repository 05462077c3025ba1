"""Vectorized predicate kernels and columnar fragment views.

The batched execution mode (``batch_size > 1``) evaluates a stage's
conditions over a whole buffer fragment at once instead of pair by pair,
and the planner's sampler over a whole sample.  This module supplies the
pieces they need:

* **Batched Pearson correlation.**  Histories are centered *once per
  event* in pure Python by :func:`repro.core.conditions.center_history`,
  the centering :func:`~repro.core.conditions.pearson_correlation` itself
  uses, so the per-row norms are bit-identical to the scalar path.  Each
  candidate pair then costs a single dot product over the pre-centered
  rows.  Because only numpy's summation order differs from the scalar
  accumulation, the batched coefficient is within ``n * eps`` (≈ 4.5e-15
  for 20-deep histories) of the scalar one — far inside the 1e-12
  contract the property suite pins.

* **Exact threshold verdicts.**  Correlation *verdicts* must match the
  scalar oracle exactly, not approximately: one flipped pair changes the
  match set.  Any pair whose batched coefficient lands within
  :data:`CORR_BAND` of the threshold is re-checked with the scalar
  :func:`pearson_correlation`; outside the band the (≤ 1e-12) error cannot
  flip the sign of ``corr - threshold``.  The same argument makes verdicts
  identical whether numpy is importable or not.

* **Pairwise dots for the planner's sampler.**  :func:`centered_rows`
  centers a table of histories with numpy, bit for bit as
  :func:`~repro.core.conditions.center_history` does, and
  :func:`pairwise_pearson_above` judges a list of row pairs with one dot
  each and the same recheck band; the sampler's stage-at-a-time join
  (:mod:`repro.costmodel.statistics`) reads them with the stage kernels'
  ops.  They need numpy; without it the sampler runs its event loop.

* **Columnar fragment views.**  :class:`EventColumns` /
  :class:`MatchColumns` maintain contiguous per-attribute arrays
  (timestamps, ids, window bounds, plain attributes, centered history
  matrices) over one :class:`~repro.hypersonic.buffers.FragmentedBuffer`
  fragment.  Views follow their fragment in place: appends extend the
  columns (``sync``) and a purge drops the same rows from every column
  (``retain``), so each buffered history is centered once however many
  purges it survives.

numpy is used when importable; a hand-rolled fallback keeps the core
dependency-free.  The fallback correlates through
:func:`~repro.core.conditions.centered_pearson`, which repeats the scalar
oracle's arithmetic step for step, so its correlations are
*bit-identical* to the oracle's; the numpy path differs only inside the
recheck band, which is resolved scalar — either way every verdict equals
the scalar verdict, and batched runs are reproducible across
environments.

Attribute comparisons (``AttributeCondition``) involve no arithmetic, only
comparisons, so the batched path is exact by construction; values that are
not plain floats (ints keep Python's arbitrary precision) are compared with
the scalar operator table.
"""

from __future__ import annotations

from itertools import chain, compress
from typing import Any, Callable, Sequence

from repro.core.conditions import (
    AttributeCondition,
    CorrelationCondition,
    _OPERATORS,
    _bound_side,
    center_history,
    centered_pearson,
    pearson_correlation,
)
from repro.core.nfa import Stage, last_bound_event

try:  # pragma: no cover - exercised via the no-numpy CI job
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None

#: Module-level backend handle.  Tests (and the no-numpy CI job) force the
#: fallback path by monkeypatching this to ``None``.
np = _numpy

__all__ = [
    "CORR_BAND",
    "have_numpy",
    "batched_pearson",
    "centered_rows",
    "pairwise_pearson_above",
    "batched_compare",
    "HistoryColumn",
    "ValueColumn",
    "EventColumns",
    "MatchColumns",
    "StageKernel",
    "compile_stage_kernel",
]

#: Half-width of the scalar-recheck band around a correlation threshold.
#: The batched coefficient is within ~1e-14 of the scalar one (see module
#: docstring); 1e-9 leaves five orders of magnitude of margin while
#: rechecking a vanishing fraction of pairs.
CORR_BAND = 1e-9

_MISSING = object()


def have_numpy() -> bool:
    return np is not None


def _kept(values: list, keep) -> list:
    """The entries of *values* that a purge keeps.

    *keep* is a slice (a prefix cut) or a boolean mask over the fragment.
    A view may lag its fragment until the next ``sync``, so the mask can
    run past the end of *values*.
    """
    if isinstance(keep, slice):
        return values[keep]
    return list(compress(values, keep))


def _kept_rows(matrix, keep):
    """:func:`_kept` for a cached matrix mirroring the first rows of a
    column; the result mirrors the first rows of the kept column.
    ``None`` (drop the cache) when there is nothing left to mirror or the
    backend is gone."""
    if matrix is None or np is None:
        return None
    if isinstance(keep, slice):
        kept = matrix[keep]
    else:
        kept = matrix[np.asarray(keep[:len(matrix)], dtype=bool)]
    return kept if len(kept) else None


# --------------------------------------------------------------------- #
# Batched Pearson correlation                                            #
# --------------------------------------------------------------------- #


def batched_pearson(
    query: Sequence[float], histories: Sequence[Sequence[float]]
) -> list[float]:
    """Pearson coefficient of *query* against each row of *histories*.

    Each value is within 1e-12 of ``pearson_correlation(query, row)``; the
    fallback path is bit-identical to it.  Raises
    :class:`~repro.core.errors.ConditionError` on a length mismatch, like
    the scalar function.
    """
    column = HistoryColumn()
    for row in histories:
        column.append(row)
    return column.correlations(query, range(len(histories)))


#: Longest history :func:`centered_rows` takes.  Two dots of n terms,
#: summed in any orders, differ by at most about ``2 * n * 1.1e-16`` times
#: the product of the rows' norms, so their coefficients differ by at most
#: that much: below :data:`CORR_BAND` up to a few million terms.
MAX_HISTORY = 10**6

#: Most pairs :func:`pairwise_pearson_above` gathers at once; it bounds
#: the two row matrices the gather builds.
_PAIR_CHUNK = 256


def centered_rows(histories: Sequence[Any]):
    """``(rows, norms)`` for :func:`pairwise_pearson_above`: the matrix of
    each history's :func:`center_history` deviations and the vector of
    their norms, a zero row and norm for a degenerate history.

    The histories must be lists or tuples of one length (at most
    :data:`MAX_HISTORY`) of floats that center to finite values, or the
    result is ``None``.  Then every value is ``center_history``'s bit for
    bit: the mean is Python's ``sum`` over the length, each deviation one
    subtraction, and the sum of squares accumulates column by column in
    the scalar loop's order.
    """
    if not all(isinstance(history, (list, tuple)) for history in histories):
        return None
    width = len(histories[0]) if len(histories) else 0
    if width > MAX_HISTORY or any(len(history) != width
                                  for history in histories):
        return None
    if not set(map(type, chain.from_iterable(histories))) <= {float}:
        return None
    rows = np.array(histories, dtype=float).reshape(len(histories), width)
    if width < 2:
        return np.zeros_like(rows), np.zeros(len(histories))
    squares = np.zeros(len(histories))
    with np.errstate(all="ignore"):  # non-finite values are refused below
        rows -= np.array([sum(history) for history in histories]
                         )[:, None] / width
        for column in rows.T:
            squares += column * column
    if not (np.isfinite(rows).all() and np.isfinite(squares).all()):
        return None
    rows[squares == 0.0] = 0.0
    return rows, np.sqrt(squares)


def pairwise_pearson_above(left, right, left_index, right_index,
                           threshold: float,
                           recheck: Callable[[int], bool]):
    """``pearson_correlation(x, y) > threshold`` for each pair k of left
    row ``left_index[k]`` and right row ``right_index[k]`` of two
    :func:`centered_rows` tables, as a bool array.

    Each pair costs one row dot.  A coefficient within :data:`CORR_BAND`
    of *threshold* is decided by ``recheck(k)`` instead, and a degenerate
    row correlates 0.0 exactly, so every verdict is the scalar one.
    ``None`` when a coefficient is not finite (the product of two norms
    underflowed or overflowed), where the scalar division would raise or
    its clamp would see a NaN.
    """
    left_rows, left_norms = left
    right_rows, right_norms = right
    first, second = left_norms[left_index], right_norms[right_index]
    covs = np.empty(len(left_index))
    for start in range(0, len(left_index), _PAIR_CHUNK):
        stop = start + _PAIR_CHUNK
        covs[start:stop] = np.einsum(
            "ij,ij->i", left_rows[left_index[start:stop]],
            right_rows[right_index[start:stop]])
    with np.errstate(all="ignore"):
        corrs = covs / (first * second)
    degenerate = (first == 0.0) | (second == 0.0)
    corrs[degenerate] = 0.0
    if not np.isfinite(corrs).all():
        return None
    # The scalar function's clamp, on finite values.
    np.clip(corrs, -1.0, 1.0, out=corrs)
    verdicts = corrs > threshold
    near = ~degenerate & (np.abs(corrs - threshold) <= CORR_BAND)
    for k in np.flatnonzero(near).tolist():
        verdicts[k] = recheck(k)
    return verdicts


def batched_compare(operator: str, lhs: Any, rhs: Any) -> list[bool]:
    """Elementwise ``lhs <operator> rhs`` where either side may be a scalar.

    Comparisons involve no arithmetic, so numpy (used for float inputs) and
    the fallback loop agree exactly with ``_OPERATORS``.
    """
    op = _OPERATORS[operator]
    lhs_seq = isinstance(lhs, (list, tuple))
    rhs_seq = isinstance(rhs, (list, tuple))
    if np is not None and (lhs_seq or rhs_seq):
        values = lhs if lhs_seq else rhs
        if all(type(v) is float for v in values):
            try:
                left = np.asarray(lhs, dtype=float) if lhs_seq else lhs
                right = np.asarray(rhs, dtype=float) if rhs_seq else rhs
                return _NP_OPERATORS[operator](left, right).tolist()
            except (TypeError, ValueError):
                pass
    if lhs_seq and rhs_seq:
        return [op(a, b) for a, b in zip(lhs, rhs)]
    if lhs_seq:
        return [op(a, rhs) for a in lhs]
    if rhs_seq:
        return [op(lhs, b) for b in rhs]
    return [op(lhs, rhs)]


_NP_OPERATORS: dict[str, Callable[[Any, Any], Any]] = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


# --------------------------------------------------------------------- #
# Columns                                                                #
# --------------------------------------------------------------------- #


class HistoryColumn:
    """Pre-centered history rows of one fragment, ready for batched dots.

    ``raw[i] is None`` marks a row whose value was missing or not a
    sequence — those pairs are resolved by the scalar path so error
    semantics match.  ``norms[i] == 0.0`` marks a degenerate row (constant
    or short history → correlation 0.0 by the scalar convention).
    """

    __slots__ = ("raw", "rows", "norms", "_matrix", "_matrix_rows", "_width")

    def __init__(self) -> None:
        self.raw: list[Sequence[float] | None] = []
        self.rows: list[list[float] | None] = []
        self.norms: list[float] = []
        self._matrix = None
        self._matrix_rows = 0
        self._width: int | None = None

    def __len__(self) -> int:
        return len(self.raw)

    def retain(self, keep) -> None:
        """Drop the rows a purge removes (see :func:`_kept`); the kept
        rows stay centered, and the matrix keeps the rows it has."""
        self.raw = _kept(self.raw, keep)
        self.rows = _kept(self.rows, keep)
        self.norms = _kept(self.norms, keep)
        # The purge may have removed the rows that made the column ragged,
        # or every row of its width; a matrix of another width is dropped.
        widths = {len(raw) for raw in self.raw if raw is not None}
        width = widths.pop() if len(widths) == 1 else (-1 if widths else None)
        if width == self._width:
            self._matrix = _kept_rows(self._matrix, keep)
        else:
            self._width = width
            self._matrix = None
        self._matrix_rows = 0 if self._matrix is None else len(self._matrix)

    def append(self, value: Any) -> None:
        if not isinstance(value, (list, tuple)):
            self.raw.append(None)
            self.rows.append(None)
            self.norms.append(0.0)
            return
        self.raw.append(value)
        if self._width is None:
            self._width = len(value)
        elif len(value) != self._width:
            self._width = -1  # ragged: no shared matrix
        centered = center_history(value)
        if centered is None:
            self.rows.append(None)
            self.norms.append(0.0)
        else:
            self.rows.append(centered[0])
            self.norms.append(centered[1])

    def correlations(self, query: Sequence[float], indices) -> list[float]:
        """Coefficients of *query* against the rows at *indices* (aligned
        with *indices*).  Length-mismatched pairs go through the scalar
        function so they raise exactly as the scalar path would."""
        indices = list(indices)
        if not indices:
            return []
        qlen = len(query)
        centered = center_history(query)
        out: list[float] = [0.0] * len(indices)
        dense: list[int] = []  # positions in `out` taking the batched dot
        for pos, i in enumerate(indices):
            raw = self.raw[i]
            if raw is None or len(raw) != qlen:
                # Scalar call: raises on mismatch, exactly like the oracle.
                out[pos] = pearson_correlation(query, raw if raw is not None else ())
            elif centered is None or self.norms[i] == 0.0:
                out[pos] = 0.0
            else:
                dense.append(pos)
        if not dense or centered is None:
            return out
        qc, qnorm = centered
        if np is not None and self._width == qlen:
            matrix = self._dense_matrix()
            if matrix is not None:
                idx = np.asarray([indices[pos] for pos in dense], dtype=np.intp)
                covs = matrix[idx] @ np.asarray(qc, dtype=float)
                norms = np.asarray(
                    [self.norms[indices[pos]] for pos in dense], dtype=float
                )
                corrs = covs / (norms * qnorm)
                # Same quotient clamp as the scalar function: separate
                # roundings can land a hair past the mathematical bound.
                for pos, corr in zip(dense, corrs.tolist()):
                    out[pos] = max(-1.0, min(1.0, corr))
                return out
        for pos in dense:
            i = indices[pos]
            out[pos] = centered_pearson(centered, (self.rows[i], self.norms[i]))
        return out

    def _dense_matrix(self):
        """Cache a matrix of centered rows; degenerate rows become zeros
        (their coefficients are fixed before the dot, so the row content
        is irrelevant — zeros keep the matrix rectangular).  Rows appended
        since the last call are stacked under the cached ones."""
        if self._width is None or self._width < 0:
            return None
        if self._matrix_rows != len(self.rows):
            zeros = [0.0] * self._width
            fresh = np.asarray(
                [row if row is not None else zeros
                 for row in self.rows[self._matrix_rows:]],
                dtype=float,
            )
            self._matrix = fresh if self._matrix is None else np.concatenate(
                (self._matrix, fresh)
            )
            self._matrix_rows = len(self.rows)
        return self._matrix


class ValueColumn:
    """Plain attribute values of one fragment, with a float-array cache."""

    __slots__ = ("values", "_floats", "_array", "_array_rows")

    def __init__(self) -> None:
        self.values: list[Any] = []
        self._floats = True
        self._array = None
        self._array_rows = 0

    def __len__(self) -> int:
        return len(self.values)

    def retain(self, keep) -> None:
        """Drop the values a purge removes (see :func:`_kept`)."""
        self.values = _kept(self.values, keep)
        self._array = None
        self._array_rows = 0
        if not self._floats:
            self._floats = all(type(value) is float for value in self.values)

    def append(self, value: Any) -> None:
        self.values.append(value)
        if type(value) is not float:
            self._floats = False

    def compare(self, operator: str, other: Any, indices,
                value_is_left: bool) -> list[bool]:
        """``values[i] <op> other`` (or flipped) for each index."""
        op = _OPERATORS[operator]
        if (
            np is not None
            and self._floats
            and type(other) is float
            and len(indices) > 1
        ):
            if self._array_rows != len(self.values):
                self._array = np.asarray(self.values, dtype=float)
                self._array_rows = len(self.values)
            picked = self._array[np.asarray(list(indices), dtype=np.intp)]
            fn = _NP_OPERATORS[operator]
            result = fn(picked, other) if value_is_left else fn(other, picked)
            return result.tolist()
        if value_is_left:
            return [op(self.values[i], other) for i in indices]
        return [op(other, self.values[i]) for i in indices]


def _bound_event(bound: Any):
    """Kleene positions bind tuples; reduce to the representative event."""
    if isinstance(bound, tuple):
        return bound[-1] if bound else None
    return bound


def _extract(event, attribute: str) -> Any:
    if event is None:
        return _MISSING
    return event.attributes.get(attribute, _MISSING)


# --------------------------------------------------------------------- #
# Stage kernels                                                          #
# --------------------------------------------------------------------- #


class _CorrOp:
    """``Corr(event.attr, other.attr) > threshold`` at one stage."""

    __slots__ = ("other", "attribute", "threshold")

    def __init__(self, other: str, attribute: str, threshold: float) -> None:
        self.other = other
        self.attribute = attribute
        self.threshold = threshold


class _AttrOp:
    """``event.attr <op> other.attr`` (or flipped) at one stage."""

    __slots__ = ("operator", "event_attribute", "other", "other_attribute",
                 "event_is_left")

    def __init__(self, operator: str, event_attribute: str, other: str,
                 other_attribute: str, event_is_left: bool) -> None:
        self.operator = operator
        self.event_attribute = event_attribute
        self.other = other
        self.other_attribute = other_attribute
        self.event_is_left = event_is_left


class StageKernel:
    """Vectorized evaluation of one stage's conditions over a fragment.

    Evaluation preserves the scalar semantics of :meth:`Stage.accepts`
    exactly: conditions run in declaration order with short-circuiting
    (rows failing an earlier condition never see a later one), correlation
    verdicts inside :data:`CORR_BAND` of the threshold are resolved by the
    scalar oracle, and rows the kernel cannot evaluate (missing attributes,
    unexpected value shapes) are delegated to a scalar callback for the
    identical verdict or exception.
    """

    __slots__ = ("stage", "position", "ops")

    def __init__(self, stage: Stage, ops: list) -> None:
        self.stage = stage
        self.position = stage.item.name
        self.ops = ops

    # -- event arrives, scan buffered partial matches -------------------- #

    def accepts_over_matches(self, event, columns: "MatchColumns",
                             indices: list[int],
                             scalar: Callable[[int], bool]) -> list[int]:
        """Indices of the partials at *indices* accepting *event*."""
        alive = indices
        resolved: list[int] = []
        for op_index, op in enumerate(self.ops):
            if not alive:
                break
            column = columns.op_column(op_index)
            if isinstance(op, _CorrOp):
                query = _extract(event, op.attribute)
                if query is _MISSING or not isinstance(query, (list, tuple)):
                    resolved.extend(i for i in alive if scalar(i))
                    alive = []
                    break
                alive = self._filter_corr(op, column, query, alive,
                                          scalar, resolved)
            else:
                value = _extract(event, op.event_attribute)
                if value is _MISSING:
                    resolved.extend(i for i in alive if scalar(i))
                    alive = []
                    break
                # Column holds the *match*-side attribute here, so the
                # column is the left operand iff the event is not.
                alive = self._filter_attr(op, column, value, alive,
                                          not op.event_is_left, scalar,
                                          resolved)
        if resolved:
            alive = sorted(alive + resolved)
        return alive

    # -- match arrives, scan buffered events ----------------------------- #

    def accepts_over_events(self, partial, columns: "EventColumns",
                            indices: list[int],
                            scalar: Callable[[int], bool]) -> list[int]:
        """Indices of the events at *indices* accepted for *partial*."""
        alive = indices
        resolved: list[int] = []
        for op_index, op in enumerate(self.ops):
            if not alive:
                break
            column = columns.op_column(op_index)
            other = _bound_event(partial.binding.get(op.other))
            if isinstance(op, _CorrOp):
                query = _extract(other, op.attribute)
                if query is _MISSING or not isinstance(query, (list, tuple)):
                    resolved.extend(i for i in alive if scalar(i))
                    alive = []
                    break
                alive = self._filter_corr(op, column, query, alive,
                                          scalar, resolved)
            else:
                value = _extract(other, op.other_attribute)
                if value is _MISSING:
                    resolved.extend(i for i in alive if scalar(i))
                    alive = []
                    break
                # Column holds the *event*-side attribute here, so the
                # column is the left operand iff the event is.
                alive = self._filter_attr(op, column, value, alive,
                                          op.event_is_left, scalar, resolved)
        if resolved:
            alive = sorted(alive + resolved)
        return alive

    # -- shared filters --------------------------------------------------- #

    def _filter_corr(self, op: _CorrOp, column: HistoryColumn,
                     query: Sequence[float], alive: list[int],
                     scalar: Callable[[int], bool],
                     resolved: list[int]) -> list[int]:
        # Rows without a usable history go through the full scalar check
        # (and drop out of later vector ops — scalar() decides them fully).
        vector_rows = [i for i in alive if column.raw[i] is not None]
        for i in alive:
            if column.raw[i] is None and scalar(i):
                resolved.append(i)
        corrs = column.correlations(query, vector_rows)
        threshold = op.threshold
        survivors = []
        for i, corr in zip(vector_rows, corrs):
            if abs(corr - threshold) <= CORR_BAND:
                verdict = pearson_correlation(query, column.raw[i]) > threshold
            else:
                verdict = corr > threshold
            if verdict:
                survivors.append(i)
        return survivors

    def _filter_attr(self, op: _AttrOp, column: ValueColumn, other: Any,
                     alive: list[int], column_is_left: bool,
                     scalar: Callable[[int], bool],
                     resolved: list[int]) -> list[int]:
        vector_rows = [i for i in alive if column.values[i] is not _MISSING]
        for i in alive:
            if column.values[i] is _MISSING and scalar(i):
                resolved.append(i)
        verdicts = column.compare(op.operator, other, vector_rows,
                                  column_is_left)
        return [i for i, ok in zip(vector_rows, verdicts) if ok]

    # -- column specs ----------------------------------------------------- #

    def event_column_factories(self):
        """Per-op extractors over buffered *events* (the EB side)."""
        specs = []
        for op in self.ops:
            if isinstance(op, _CorrOp):
                specs.append((HistoryColumn, op.attribute))
            else:
                specs.append((ValueColumn, op.event_attribute))
        return specs

    def match_column_factories(self):
        """Per-op extractors over buffered *partials* (the MB side)."""
        specs = []
        for op in self.ops:
            if isinstance(op, _CorrOp):
                specs.append((HistoryColumn, op.other, op.attribute))
            else:
                specs.append((ValueColumn, op.other, op.other_attribute))
        return specs


def compile_stage_kernel(stage: Stage) -> StageKernel | None:
    """Build a vectorized kernel for *stage*, or ``None`` when any of its
    conditions falls outside the vectorizable forms (Kleene stages, unary
    or arbitrary pairwise predicates, disjunctions, reductions of a Kleene
    tuple other than its last event, and subclasses that are not
    :func:`~repro.core.conditions.is_plain`, whose own ``evaluate`` or
    ``compile_check`` a kernel would bypass).  Each op reads the bound
    side the compiled check reads (``conditions._bound_side``)."""
    if stage.is_kleene:
        return None
    position = stage.item.name
    ops: list = []
    for condition in stage.conditions:
        if getattr(condition, "reduce", "last") != "last":
            # The columns read a Kleene tuple's last event (_bound_event).
            return None
        other = _bound_side(condition, CorrelationCondition, position)
        if other is not None:
            ops.append(_CorrOp(other, condition.attribute, condition.threshold))
            continue
        other = _bound_side(condition, AttributeCondition, position)
        if other is None:
            return None
        if other == condition.right:
            ops.append(_AttrOp(condition.operator, condition.left_attribute,
                               other, condition.right_attribute,
                               event_is_left=True))
        else:
            ops.append(_AttrOp(condition.operator, condition.right_attribute,
                               other, condition.left_attribute,
                               event_is_left=False))
    return StageKernel(stage, ops)


# --------------------------------------------------------------------- #
# Fragment views                                                         #
# --------------------------------------------------------------------- #


class EventColumns:
    """Columnar view over one event-buffer fragment.

    It follows the fragment in place: :meth:`sync` appends rows for the
    fragment's tail, and the owner applies each purge of the fragment to
    the view with :meth:`retain`.
    """

    __slots__ = ("count", "ts", "ids", "op_columns", "_arrays",
                 "_array_rows")

    def __init__(self, kernel: StageKernel) -> None:
        self.count = 0
        self.ts: list[float] = []
        self.ids: list[int] = []
        self.op_columns = []
        for factory, attribute in kernel.event_column_factories():
            self.op_columns.append((factory(), attribute))
        self._arrays = None
        self._array_rows = 0

    def sync(self, fragment: list) -> None:
        for event in fragment[self.count:]:
            self.ts.append(event.timestamp)
            self.ids.append(event.event_id)
            for column, attribute in self.op_columns:
                column.append(_extract(event, attribute))
        self.count = len(fragment)

    def retain(self, keep) -> None:
        """Apply a purge of the fragment: *keep* is a slice (a prefix
        cut) or a boolean mask over the fragment."""
        self.ts = _kept(self.ts, keep)
        self.ids = _kept(self.ids, keep)
        for column, _attribute in self.op_columns:
            column.retain(keep)
        self.count = len(self.ts)
        self._arrays = None
        self._array_rows = 0

    def op_column(self, op_index: int):
        return self.op_columns[op_index][0]

    def candidate_indices(self, earliest: float, latest: float,
                          last_ts: float, last_id: int,
                          window: float) -> list[int]:
        """Rows passing the window and SEQ-order pre-checks for a partial
        with the given bounds — exact comparisons, backend-independent."""
        if np is not None and self.count > 1:
            self._refresh_arrays()
            ts, ids = self._arrays
            fits = (np.maximum(ts, latest) - np.minimum(ts, earliest)) <= window
            order = (ts > last_ts) | ((ts == last_ts) & (ids > last_id))
            return np.nonzero(fits & order)[0].tolist()
        out = []
        for i in range(self.count):
            ts = self.ts[i]
            if max(ts, latest) - min(ts, earliest) > window:
                continue
            if (last_ts, last_id) >= (ts, self.ids[i]):
                continue
            out.append(i)
        return out

    def _refresh_arrays(self) -> None:
        if self._array_rows != self.count:
            self._arrays = (
                np.asarray(self.ts, dtype=float),
                np.asarray(self.ids, dtype=np.int64),
            )
            self._array_rows = self.count


class MatchColumns:
    """Columnar view over one match-buffer fragment; it follows the
    fragment like :class:`EventColumns`."""

    __slots__ = ("count", "earliest", "latest", "last_ts",
                 "last_id", "bound", "op_columns", "_stages", "_stage_index",
                 "_position", "_arrays", "_array_rows")

    def __init__(self, kernel: StageKernel,
                 stages: tuple[Stage, ...], stage_index: int) -> None:
        self.count = 0
        self.earliest: list[float] = []
        self.latest: list[float] = []
        self.last_ts: list[float] = []
        self.last_id: list[int] = []
        self.bound: list[bool] = []
        self.op_columns = []
        for spec in kernel.match_column_factories():
            factory, other, attribute = spec
            self.op_columns.append((factory(), other, attribute))
        self._stages = stages
        self._stage_index = stage_index
        self._position = kernel.position
        self._arrays = None
        self._array_rows = 0

    def sync(self, fragment: list) -> None:
        for partial in fragment[self.count:]:
            self.earliest.append(partial.earliest)
            self.latest.append(partial.latest)
            last = last_bound_event(partial, self._stages, self._stage_index)
            if last is None:
                self.last_ts.append(float("-inf"))
                self.last_id.append(-1)
            else:
                self.last_ts.append(last.timestamp)
                self.last_id.append(last.event_id)
            self.bound.append(self._position in partial.binding)
            for column, other, attribute in self.op_columns:
                column.append(_extract(
                    _bound_event(partial.binding.get(other)), attribute
                ))
        self.count = len(fragment)

    def retain(self, keep) -> None:
        """Apply a purge of the fragment (see :meth:`EventColumns.retain`)."""
        self.earliest = _kept(self.earliest, keep)
        self.latest = _kept(self.latest, keep)
        self.last_ts = _kept(self.last_ts, keep)
        self.last_id = _kept(self.last_id, keep)
        self.bound = _kept(self.bound, keep)
        for column, _other, _attribute in self.op_columns:
            column.retain(keep)
        self.count = len(self.earliest)
        self._arrays = None
        self._array_rows = 0

    def op_column(self, op_index: int):
        return self.op_columns[op_index][0]

    def candidate_indices(self, event, window: float) -> list[int]:
        """Rows passing the window, unbound and SEQ-order pre-checks for
        an arriving event — exact comparisons, backend-independent."""
        ts = event.timestamp
        eid = event.event_id
        if np is not None and self.count > 1:
            self._refresh_arrays()
            earliest, latest, last_ts, last_id, bound = self._arrays
            fits = (np.maximum(latest, ts) - np.minimum(earliest, ts)) <= window
            order = (last_ts < ts) | ((last_ts == ts) & (last_id < eid))
            return np.nonzero(fits & order & ~bound)[0].tolist()
        out = []
        for i in range(self.count):
            if self.bound[i]:
                continue
            if max(self.latest[i], ts) - min(self.earliest[i], ts) > window:
                continue
            if (self.last_ts[i], self.last_id[i]) >= (ts, eid):
                continue
            out.append(i)
        return out

    def _refresh_arrays(self) -> None:
        if self._array_rows != self.count:
            self._arrays = (
                np.asarray(self.earliest, dtype=float),
                np.asarray(self.latest, dtype=float),
                np.asarray(self.last_ts, dtype=float),
                np.asarray(self.last_id, dtype=np.int64),
                np.asarray(self.bound, dtype=bool),
            )
            self._array_rows = self.count
