"""Property tests: the vectorized kernels agree with the scalar oracles.

The batched execution mode is only sound if its kernels reproduce the
scalar predicates: :func:`repro.core.vectorized.batched_pearson` must
stay within 1e-12 of :func:`repro.core.conditions.pearson_correlation`
(bit-identical on the fallback path), and
:func:`repro.core.vectorized.batched_compare` must agree exactly with
the ``_OPERATORS`` table.  Hypothesis drives both kernels with
adversarial inputs — near-constant sequences, mixed magnitudes, tiny
deviations, NaN-free float corners — under both backends (numpy and the
pure-Python fallback, forced by nulling the module's ``np`` handle).

The columnar views must follow their fragment through purges: after any
interleaving of appends, prefix cuts and keep-mask purges, a view cut in
place equals one built from scratch over the surviving fragment.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.vectorized as vec
from repro.core import (
    AndCondition,
    AttributeCondition,
    CorrelationCondition,
    Event,
    EventType,
    Pattern,
    TrueCondition,
)
from repro.core.conditions import (
    _OPERATORS,
    CenteredHistories,
    center_history,
    pearson_correlation,
)
from repro.core.errors import ConditionError
from repro.core.matches import PartialMatch
from repro.core.nfa import compile_pattern
from repro.core.vectorized import batched_compare, batched_pearson
from repro.datasets.stocks import StockConfig, generate_stock_stream
from repro.engine.sequential import detect
from repro.simulator import simulate

TOLERANCE = 1e-12

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e9, max_value=1e9
)

#: Adversarial history values: wide magnitudes plus clustered values that
#: produce near-zero variance after centering.
history_values = st.one_of(
    finite_floats,
    st.floats(min_value=99.999999, max_value=100.000001),
    st.sampled_from([0.0, -0.0, 1.0, 1e-15, -1e-15, 1e9, -1e9]),
)


def histories_of(length: int):
    return st.lists(
        st.lists(history_values, min_size=length, max_size=length),
        min_size=0,
        max_size=8,
    )


@st.composite
def pearson_case(draw):
    length = draw(st.integers(min_value=2, max_value=24))
    query = draw(st.lists(history_values, min_size=length, max_size=length))
    rows = draw(histories_of(length))
    return query, rows


def compiled_accepts(query, row, threshold: float,
                     table: CenteredHistories) -> bool:
    """The verdict of a compiled ``Corr(p1, p2) > threshold`` check that
    binds *row*'s event against *query*'s."""
    condition = CorrelationCondition("p1", "p2", threshold)
    check = condition.compile_check("p2", table)
    return check({"p1": Event(EventType("A"), 0.0, {"history": query})},
                 Event(EventType("B"), 0.5, {"history": row}))


class TestBatchedPearson:
    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=pearson_case())
    def test_matches_scalar_within_tolerance(self, backend, case):
        query, rows = case
        batched = batched_pearson(query, rows)
        assert len(batched) == len(rows)
        for value, row in zip(batched, rows):
            expected = pearson_correlation(query, row)
            assert math.isfinite(value)
            assert abs(value - expected) <= TOLERANCE, (query, row)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(case=pearson_case())
    def test_fallback_is_bit_identical(self, monkeypatch, case):
        monkeypatch.setattr(vec, "np", None)
        query, rows = case
        batched = batched_pearson(query, rows)
        scalar = [pearson_correlation(query, row) for row in rows]
        assert batched == scalar
        # The compiled check (centering through a table) computes the
        # scalar coefficient bit for bit: its verdict flips exactly
        # between that coefficient and the next float below it.
        table = CenteredHistories(window=1.0)
        for row, expected in zip(rows, scalar):
            below = math.nextafter(expected, -math.inf)
            assert not compiled_accepts(query, row, expected, table)
            assert compiled_accepts(query, row, below, table)

    def test_degenerate_rows_are_zero(self, backend):
        query = [1.0, 2.0, 3.0]
        rows = [[5.0, 5.0, 5.0], [1.0, 2.0, 3.0]]
        batched = batched_pearson(query, rows)
        assert batched[0] == 0.0
        assert batched[1] == pytest.approx(1.0)

    def test_length_mismatch_raises_like_scalar(self, backend):
        with pytest.raises(ConditionError):
            batched_pearson([1.0, 2.0, 3.0], [[1.0, 2.0]])


class TestBatchedCompare:
    operators = sorted(_OPERATORS)

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        values=st.lists(finite_floats, max_size=16),
        pivot=finite_floats,
        operator=st.sampled_from(operators),
        value_side=st.sampled_from(["left", "right"]),
    )
    def test_matches_operator_table(
        self, backend, values, pivot, operator, value_side
    ):
        scalar_op = _OPERATORS[operator]
        if value_side == "left":
            batched = batched_compare(operator, values, pivot)
            expected = [bool(scalar_op(v, pivot)) for v in values]
        else:
            batched = batched_compare(operator, pivot, values)
            expected = [bool(scalar_op(pivot, v)) for v in values]
        assert batched == expected

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        values=st.lists(st.integers(min_value=-10**30, max_value=10**30),
                        max_size=12),
        pivot=st.integers(min_value=-10**30, max_value=10**30),
        operator=st.sampled_from(operators),
    )
    def test_huge_ints_keep_exact_semantics(self, backend, values, pivot,
                                            operator):
        # Ints beyond float precision must not be coerced through numpy:
        # the kernel only vectorizes all-float batches.
        scalar_op = _OPERATORS[operator]
        batched = batched_compare(operator, values, pivot)
        assert batched == [bool(scalar_op(v, pivot)) for v in values]


@st.composite
def pairwise_case(draw):
    """Two tables of histories of one length, pairs of their rows, and a
    threshold on, or one float either side of, a pair's coefficient."""
    length = draw(st.integers(min_value=2, max_value=24))
    left = draw(histories_of(length).filter(bool))
    right = draw(histories_of(length).filter(bool))
    pairs = draw(st.lists(st.tuples(st.integers(0, len(left) - 1),
                                    st.integers(0, len(right) - 1)),
                          min_size=1, max_size=12))
    anchor = pearson_correlation(left[pairs[0][0]], right[pairs[0][1]])
    threshold = draw(st.sampled_from([
        anchor, math.nextafter(anchor, -math.inf),
        math.nextafter(anchor, math.inf), 0.0,
    ]))
    return left, right, pairs, threshold


class TestPairwisePearson:
    """The sampler's sweep correlates its candidate pairs through
    :func:`~repro.core.vectorized.pairwise_pearson_above`; each verdict
    must be the scalar one."""

    @settings(max_examples=150, deadline=None)
    @given(case=pairwise_case())
    def test_verdicts_are_the_scalar_ones(self, case):
        np = pytest.importorskip("numpy")
        left, right, pairs, threshold = case
        rows = np.array([i for i, _ in pairs], dtype=np.intp)
        bound = np.array([j for _, j in pairs], dtype=np.intp)
        rechecked = []

        def recheck(k):
            rechecked.append(k)
            return pearson_correlation(left[rows[k]],
                                       right[bound[k]]) > threshold

        verdicts = vec.pairwise_pearson_above(
            vec.centered_rows(left), vec.centered_rows(right), rows, bound,
            threshold, recheck)
        assert verdicts.tolist() == [
            pearson_correlation(left[i], right[j]) > threshold
            for i, j in pairs
        ]
        assert len(rechecked) <= len(pairs)

    @settings(max_examples=150, deadline=None)
    @given(case=pearson_case())
    def test_rows_are_center_history_bit_for_bit(self, case):
        pytest.importorskip("numpy")
        query, histories = case
        histories = [query] + histories
        rows, norms = vec.centered_rows(histories)
        for history, row, norm in zip(histories, rows.tolist(),
                                      norms.tolist()):
            centered = center_history(history)
            if centered is None:
                assert norm == 0.0 and not any(row)
            else:
                assert (row, norm) == (centered[0], centered[1])

    def test_rows_it_cannot_dot_are_refused(self):
        pytest.importorskip("numpy")
        assert vec.centered_rows([[1.0, 2.0], [1.0]]) is None
        assert vec.centered_rows([[1.0, 2.0], "ab"]) is None
        assert vec.centered_rows([[1.0, math.inf]]) is None
        assert vec.centered_rows([[0.0, 1e200]]) is None  # norm overflows
        rows, norms = vec.centered_rows([[3.0, 3.0], [1.0, 2.0]])
        assert norms[0] == 0.0 and norms[1] > 0.0

    def test_a_coefficient_that_is_not_finite_is_refused(self):
        np = pytest.importorskip("numpy")
        # Norms whose product underflows to zero: the scalar division
        # would raise.
        tiny = (np.array([[1.0, -1.0]]), np.array([1e-200]))
        index = np.zeros(1, dtype=np.intp)
        assert vec.pairwise_pearson_above(
            tiny, tiny, index, index, 0.0, lambda k: True) is None


def test_have_numpy_reflects_handle(monkeypatch):
    if vec.np is not None:
        assert vec.have_numpy()
    monkeypatch.setattr(vec, "np", None)
    assert not vec.have_numpy()


# --------------------------------------------------------------------- #
# Views purged in place against views built fresh                        #
# --------------------------------------------------------------------- #

#: Stage 1 of ``SEQ(A, B, C)``: an attribute compare, then a correlation.
VIEW_STAGES = compile_pattern(Pattern.sequence(
    ["A", "B", "C"], window=2.0,
    condition=AndCondition((
        AttributeCondition("p2", "x", "<=", "p1", "x"),
        CorrelationCondition("p1", "p2", threshold=0.2),
    )),
)).stages
VIEW_STAGE = VIEW_STAGES[1]
VIEW_KERNEL = vec.compile_stage_kernel(VIEW_STAGE)
VIEW_TYPES = {name: EventType(name) for name in ("A", "B")}


@st.composite
def view_history(draw):
    """Mostly four-deep histories; now and then a scalar in place of a
    list, a ragged one, or a constant (degenerate) one."""
    shape = draw(st.integers(min_value=0, max_value=24))
    if shape == 0:
        return 7.0
    if shape == 1:
        return [1.0, 1.0, 1.0, 1.0]
    length = 3 if shape == 2 else 4
    return draw(st.lists(st.sampled_from([0.0, 1.0, 2.5, -1.0]),
                         min_size=length, max_size=length))


#: Mostly floats, which the columns compare through numpy; an int turns
#: that off until a purge removes it.
view_values = st.sampled_from([-1.0, 0.0, 0.5, 2.0, 1])


@st.composite
def view_event(draw, type_name: str, stamps=(0.0, 0.5, 1.0, 1.5, 2.5)):
    return Event(
        VIEW_TYPES[type_name],
        draw(st.sampled_from(stamps)),
        {"history": draw(view_history()), "x": draw(view_values)},
    )


@st.composite
def view_row(draw, kind: str):
    """A buffered item: a B event for an event view, else a partial with
    an A event bound (sometimes B too, which the candidates exclude)."""
    if kind == "events":
        return draw(view_event("B"))
    partial = PartialMatch.of("p1", draw(view_event("A")))
    if draw(st.integers(min_value=0, max_value=4)) == 0:
        partial = partial.extended("p2", draw(view_event("B")))
    return partial


def view_steps(kind: str):
    return st.lists(st.one_of(
        st.tuples(st.just("append"), st.lists(view_row(kind), min_size=1,
                                              max_size=4)),
        st.tuples(st.just("cut"), st.integers(min_value=0, max_value=6)),
        st.tuples(st.just("mask"), st.lists(st.booleans(), max_size=12)),
        st.tuples(st.just("sync"), st.none()),
    ), max_size=24)


def new_view(kind: str):
    if kind == "events":
        return vec.EventColumns(VIEW_KERNEL)
    return vec.MatchColumns(VIEW_KERNEL, VIEW_STAGES, 1)


def outcome(call):
    try:
        return call()
    except Exception as exc:  # both views must fail alike
        return type(exc).__name__


def scan(kind: str, view, fragment: list, probe) -> tuple:
    """Candidates and kernel verdicts of one probe over *view*."""
    if kind == "events":
        last = probe.binding["p1"]
        candidates = view.candidate_indices(
            probe.earliest, probe.latest, last.timestamp, last.event_id, 2.0
        )
        verdicts = outcome(lambda: VIEW_KERNEL.accepts_over_events(
            probe, view, candidates,
            scalar=lambda i: VIEW_STAGE.accepts(probe, fragment[i]),
        ))
    else:
        candidates = view.candidate_indices(probe, 2.0)
        verdicts = outcome(lambda: VIEW_KERNEL.accepts_over_matches(
            probe, view, candidates,
            scalar=lambda i: VIEW_STAGE.accepts(fragment[i], probe),
        ))
    return candidates, verdicts


def view_columns(view) -> tuple:
    """Every column of *view*, with the flags that pick a column's numpy
    path (one shared history width; all values floats)."""
    columns = []
    for column, *_ in view.op_columns:
        if isinstance(column, vec.HistoryColumn):
            columns.append((column.raw, column.rows, column.norms,
                            column._width))
        else:
            columns.append((column.values, column._floats))
    if isinstance(view, vec.EventColumns):
        rows = (view.ts, view.ids)
    else:
        rows = (view.earliest, view.latest, view.last_ts, view.last_id,
                view.bound)
    return view.count, rows, columns


def assert_caches_mirror(view) -> None:
    """Each cached numpy array holds the first rows of its column.  A
    purge cuts the history matrix with its column and drops the other
    arrays, which are rebuilt when next needed."""
    count, rows, columns = view_columns(view)
    if view._arrays is not None:
        assert len(view._arrays[0]) == view._array_rows
        for array, values in zip(view._arrays, rows):
            assert array.tolist() == values[:len(array)]
    for (column, *_), values in zip(view.op_columns, columns):
        if isinstance(column, vec.HistoryColumn) and column._matrix is not None:
            assert len(column._matrix) == column._matrix_rows
            for cached, row in zip(column._matrix.tolist(), values[1]):
                assert cached == (row if row is not None else [0.0] * len(cached))
        elif isinstance(column, vec.ValueColumn) and column._array is not None:
            assert column._array.tolist() == values[0][:len(column._array)]


def assert_fresh(kind: str, view, fragment: list, probes: list) -> None:
    fresh = new_view(kind)
    fresh.sync(fragment)
    assert view_columns(view) == view_columns(fresh)
    assert_caches_mirror(view)
    for probe in probes:
        assert scan(kind, view, fragment, probe) == scan(
            kind, fresh, fragment, probe
        )


def test_purge_that_ends_raggedness_rebuilds_the_matrix(backend):
    """Four-deep rows and a scalar (a zero row of the cached matrix),
    then a three-deep row makes the column ragged; a purge that keeps
    only the scalar and the short row makes it three wide."""
    column = vec.HistoryColumn()
    column.append([1.0, 2.0, 3.0, 5.0])
    column.append(7.0)
    column.correlations([1.0, 2.0, 4.0, 3.0], [0])
    column.append([1.0, 2.0, 4.0])
    column.retain([False, True, True])
    query = [3.0, 1.0, 2.0]
    [value] = column.correlations(query, [1])
    assert value == pytest.approx(pearson_correlation(query, [1.0, 2.0, 4.0]),
                                  abs=TOLERANCE)


class TestViewsPurgedInPlace:
    """``retain`` must leave a view equal to one built from scratch over
    the surviving fragment.  One view follows every step; a lazy one is
    synced only now and then, so purges also hit a view that lags its
    fragment."""

    @pytest.mark.parametrize("kind", ["events", "matches"])
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_equals_fresh_view(self, backend, kind, data):
        steps = data.draw(view_steps(kind))
        # Probes early (partials) or late (events) enough that most rows
        # pass the SEQ-order check and reach the kernel.
        if kind == "events":
            probes = [PartialMatch.of("p1", data.draw(view_event("A",
                                                                (0.0, 0.5))))
                      for _ in range(3)]
        else:
            probes = [data.draw(view_event("B", (1.0, 1.5)))
                      for _ in range(3)]
        fragment: list = []
        eager, lazy = new_view(kind), new_view(kind)
        for step, arg in steps:
            if step == "append":
                fragment.extend(arg)
            elif step == "sync":
                lazy.sync(fragment)
                assert_fresh(kind, lazy, fragment, probes)
            else:
                if step == "cut":
                    keep = slice(min(arg, len(fragment)), None)
                    fragment = fragment[keep]
                else:
                    keep = (arg + [True] * len(fragment))[:len(fragment)]
                    fragment = [row for row, kept in zip(fragment, keep)
                                if kept]
                eager.retain(keep)
                lazy.retain(keep)
            eager.sync(fragment)
            assert_fresh(kind, eager, fragment, probes)
        lazy.sync(fragment)
        assert_fresh(kind, lazy, fragment, probes)


# --------------------------------------------------------------------- #
# Subclasses that judge for themselves get no kernel                     #
# --------------------------------------------------------------------- #


class Never(CorrelationCondition):
    def evaluate(self, binding):
        return False


class Inverted(AttributeCondition):
    def evaluate(self, binding):
        return not super().evaluate(binding)


class Recompiled(AttributeCondition):
    def compile_check(self, position, histories):
        return lambda binding, event: False


class Refusing(TrueCondition):
    def evaluate(self, binding):
        return False


class Either(AndCondition):
    def evaluate(self, binding):
        return any(part.evaluate(binding) for part in self.parts)


class TestKernelClassRule:
    """``compile_stage_kernel`` applies :func:`is_plain`, the rule of the
    compiled checks: a kernel built from a condition's fields would
    bypass an overridden ``evaluate`` or ``compile_check``."""

    @pytest.mark.parametrize("condition", [
        Never("p1", "p2", -1.0),
        Inverted("p1", "x", "<", "p2", "x"),
        Recompiled("p1", "x", "<", "p2", "x"),
        AndCondition((Refusing(), AttributeCondition("p1", "x", "<",
                                                     "p2", "x"))),
        AndCondition((AndCondition(()), Either((
            AttributeCondition("p1", "x", "<", "p2", "x"),
            AttributeCondition("p1", "x", ">", "p2", "x"),
        )))),
    ], ids=["correlation", "attribute", "compile_check", "true", "and"])
    def test_no_kernel_for_a_subclass(self, condition):
        # The stage is built with the condition as given: the pattern
        # compiler would flatten the conjunctions first.
        stage = compile_pattern(Pattern.sequence(["A", "B"], window=2.0)
                                ).stages[1]
        stage = dataclasses.replace(stage, conditions=(condition,))
        assert vec.compile_stage_kernel(stage) is None

    def test_plain_conditions_still_compile(self):
        stage = compile_pattern(Pattern.sequence(
            ["A", "B"], window=2.0, condition=AndCondition((
                TrueCondition(),
                AndCondition((AttributeCondition("p1", "x", "<", "p2", "x"),
                              CorrelationCondition("p1", "p2", 0.5))),
            )))).stages[1]
        kernel = vec.compile_stage_kernel(stage)
        assert kernel is not None and len(kernel.ops) == 2

    @pytest.mark.parametrize("batch_size", [1, 64])
    def test_batched_simulator_calls_an_overridden_evaluate(self, backend,
                                                            batch_size):
        """Stage 1's condition rejects every pair through its own
        ``evaluate``; at batch 64 the kernel used to accept them."""
        events = generate_stock_stream(StockConfig(num_events=600, seed=3))
        pattern = Pattern.sequence(["S0", "S1", "S2"], window=20.0,
                                   condition=Never("p1", "p2", -1.0))
        assert detect(pattern, events) == []
        result = simulate("hypersonic", pattern, events, 8,
                          batch_size=batch_size)
        assert result.matches == 0
