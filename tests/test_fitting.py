"""Tests for closed-loop cost-model fitting (`repro.costmodel.fitting`).

Three layers:

* unit tests of the NNLS fit and its trace-replay entry points;
* hypothesis properties — planted-parameter recovery, finite/non-negative
  outputs, and the never-regress guarantee on arbitrary inputs;
* the pinned-seed end-to-end loop: a deliberately mis-costed deployment
  (lock cost x20) whose calibration error `autotune` strictly reduces
  without changing the match set.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Pattern
from repro.costmodel import (
    CostParameters,
    LOAD_FEATURE_NAMES,
    autotune,
    fit_cost_parameters,
    fit_from_trace,
    share_error,
)
from repro.costmodel.fitting import (
    DEFAULT_RIDGE,
    observed_shares,
    plan_features,
    predicted_shares,
)
from repro.obs import TraceRecorder, read_jsonl, write_jsonl
from repro.simulator import simulate

from tests.conftest import make_stream


def coefficients(params: CostParameters) -> list[float]:
    return [
        params.comparison,
        params.lock,
        params.queue_push,
        params.comparison * params.cache_penalty,
        params.sync_overhead,
    ]


def traced_run(pattern, events, *, costs=None, model_costs=None, cores=4,
               seed=7):
    recorder = TraceRecorder()
    result = simulate(
        "hypersonic", pattern, events, num_cores=cores, costs=costs,
        model_costs=model_costs, seed=seed, tracer=recorder,
    )
    return result, recorder


# --------------------------------------------------------------------- #
# Unit: the fit itself                                                   #
# --------------------------------------------------------------------- #


class TestFitCostParameters:
    def test_exact_recovery_two_agents(self):
        planted = CostParameters(comparison=2.0, lock=0.5, queue_push=0.1)
        rows = [(10.0, 4.0, 2.0, 0.0, 1.0), (30.0, 1.0, 5.0, 0.0, 1.0)]
        observed = predicted_shares(rows, coefficients(planted))
        fit = fit_cost_parameters(rows, observed, ridge=0.0)
        assert fit.error_after <= fit.error_before
        assert fit.error_after < 1e-3
        for pred, obs in zip(fit.predicted_after, observed):
            assert pred == pytest.approx(obs, abs=1e-3)

    def test_incumbent_wins_when_already_optimal(self):
        planted = CostParameters(comparison=1.0, lock=0.12, queue_push=0.05)
        rows = [(10.0, 4.0, 2.0, 0.0, 1.0), (30.0, 1.0, 5.0, 0.0, 1.0)]
        observed = predicted_shares(rows, coefficients(planted))
        fit = fit_cost_parameters(rows, observed, base=planted)
        assert fit.parameters == planted
        assert fit.error_after == fit.error_before

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="feature rows"):
            fit_cost_parameters([(1.0,) * 5], [0.5, 0.5])

    def test_negative_ridge_raises(self):
        with pytest.raises(ValueError, match="ridge"):
            fit_cost_parameters([(1.0,) * 5], [1.0], ridge=-1.0)

    def test_preserves_memory_constants(self):
        base = CostParameters(pointer_size=16, match_overhead=64)
        rows = [(10.0, 4.0, 2.0, 0.0, 1.0), (30.0, 1.0, 5.0, 0.0, 1.0)]
        fit = fit_cost_parameters(rows, [0.2, 0.8], base=base, ridge=0.0)
        assert fit.parameters.pointer_size == 16
        assert fit.parameters.match_overhead == 64

    def test_feature_names_match_model(self):
        rows = [(10.0, 4.0, 2.0, 0.0, 1.0), (30.0, 1.0, 5.0, 0.0, 1.0)]
        fit = fit_cost_parameters(rows, [0.5, 0.5])
        assert fit.feature_names == LOAD_FEATURE_NAMES

    def test_as_dict_round_trips_to_json_types(self):
        rows = [(10.0, 4.0, 2.0, 0.0, 1.0), (30.0, 1.0, 5.0, 0.0, 1.0)]
        payload = fit_cost_parameters(rows, [0.3, 0.7]).as_dict()
        assert set(payload) >= {
            "parameters", "observed_shares", "error_before", "error_after",
            "improved",
        }
        assert isinstance(payload["improved"], bool)

    def test_unrepresentable_cache_vertex_is_resolved(self):
        """Regression: the underdetermined NNLS can land on an exact
        solution with comparison == 0 but a positive cache coefficient —
        unrepresentable as ``comparison * cache_penalty``, so the mapped
        parameters used to silently forfeit that column and miss the
        observed shares.  The fit must re-solve without the cache column
        and recover the shares exactly."""
        rows = [
            (1.0, 1.0, 0.0, 0.0, 1.0),
            (0.5, 1.0, 5.0, 0.0, 1.0),
            (2.0, 1.0, 0.0, 2.0, 1.0),
        ]
        planted = CostParameters(
            comparison=1.0, lock=0.0, queue_push=1.0,
            cache_penalty=0.0, sync_overhead=0.0,
        )
        observed = predicted_shares(rows, [
            planted.comparison, planted.lock, planted.queue_push,
            planted.comparison * planted.cache_penalty,
            planted.sync_overhead,
        ])
        fit = fit_cost_parameters(rows, observed, ridge=0.0)
        for pred, obs in zip(fit.predicted_after, observed):
            assert abs(pred - obs) < 1e-9


class TestShareError:
    def test_zero_for_perfect_prediction(self):
        assert share_error([0.25, 0.75], [0.25, 0.75]) == 0.0

    def test_relative_to_observed(self):
        assert share_error([0.2, 0.8], [0.4, 0.6]) == pytest.approx(
            (0.2 / 0.4 + 0.2 / 0.6) / 2
        )

    def test_infinite_penalty_for_phantom_load(self):
        assert math.isinf(share_error([0.5, 0.5], [1.0, 0.0]))

    def test_empty_observed(self):
        assert share_error([], []) == 0.0


# --------------------------------------------------------------------- #
# Unit: trace-replay entry points                                        #
# --------------------------------------------------------------------- #


class TestTraceReplay:
    def test_fit_from_recorder(self, seq_pattern):
        events = make_stream(num_events=300, seed=5)
        _result, recorder = traced_run(seq_pattern, events)
        fit = fit_from_trace(recorder)
        assert fit is not None
        assert fit.error_after <= fit.error_before
        assert len(fit.observed_shares) == len(fit.features)

    def test_fit_from_jsonl_round_trip(self, seq_pattern, tmp_path):
        events = make_stream(num_events=300, seed=5)
        _result, recorder = traced_run(seq_pattern, events)
        path = tmp_path / "trace.jsonl"
        write_jsonl(str(path), recorder)
        direct = fit_from_trace(recorder)
        replayed = fit_from_trace(read_jsonl(str(path)))
        assert replayed is not None
        assert replayed.parameters.as_dict() == pytest.approx(
            direct.parameters.as_dict()
        )
        assert replayed.error_after == pytest.approx(direct.error_after)

    def test_partition_trace_not_fittable(self, seq_pattern):
        events = make_stream(num_events=200, seed=5)
        recorder = TraceRecorder()
        simulate("rip", seq_pattern, events, num_cores=4, tracer=recorder)
        assert fit_from_trace(recorder) is None

    def test_plan_features_absent_on_empty_trace(self):
        assert plan_features([]) is None

    def test_observed_shares_queue_weight_validation(self, seq_pattern):
        events = make_stream(num_events=200, seed=5)
        _result, recorder = traced_run(seq_pattern, events)
        fit = fit_from_trace(recorder, queue_weight=0.3)
        assert fit is not None
        with pytest.raises(ValueError, match="queue_weight"):
            observed_shares({"per_agent": []}, queue_weight=1.5)


# --------------------------------------------------------------------- #
# Hypothesis properties                                                  #
# --------------------------------------------------------------------- #


@st.composite
def feature_matrices(draw):
    """Per-agent design matrices in the regime LoadModel emits: rows
    ``(comparisons, accesses, outputs, comparisons*m*W, 1.0)``."""
    agents = draw(st.integers(min_value=2, max_value=6))
    rows = []
    for _ in range(agents):
        comp = draw(st.floats(min_value=0.5, max_value=40.0))
        acc = draw(st.floats(min_value=0.1, max_value=20.0))
        out = draw(st.floats(min_value=0.0, max_value=10.0))
        cache = comp * draw(st.floats(min_value=0.0, max_value=5.0))
        rows.append((comp, acc, out, cache, 1.0))
    return rows


@st.composite
def planted_parameters(draw):
    return CostParameters(
        comparison=draw(st.floats(min_value=0.05, max_value=5.0)),
        lock=draw(st.floats(min_value=0.0, max_value=3.0)),
        queue_push=draw(st.floats(min_value=0.0, max_value=2.0)),
        cache_penalty=draw(st.floats(min_value=0.0, max_value=0.5)),
        sync_overhead=draw(st.floats(min_value=0.0, max_value=2.0)),
    )


@st.composite
def arbitrary_shares(draw, size):
    raw = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=size, max_size=size,
        )
    )
    total = sum(raw)
    if total <= 0:
        return [1.0 / size] * size
    return [value / total for value in raw]


class TestFitProperties:
    @given(features=feature_matrices(), planted=planted_parameters())
    @settings(max_examples=60, deadline=None)
    def test_recovers_planted_load_shares(self, features, planted):
        """Observing shares generated by *planted* constants, the fit gets
        back within tolerance of those shares (the constants themselves are
        only identifiable up to the share-preserving directions)."""
        observed = predicted_shares(features, coefficients(planted))
        fit = fit_cost_parameters(features, observed, ridge=0.0)
        assert fit.error_after <= fit.error_before
        for pred, obs in zip(fit.predicted_after, observed):
            assert abs(pred - obs) < 0.05

    @given(
        features=feature_matrices(),
        data=st.data(),
        ridge=st.sampled_from([0.0, DEFAULT_RIDGE, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_fitted_constants_finite_and_non_negative(
        self, features, data, ridge
    ):
        observed = data.draw(arbitrary_shares(len(features)))
        fit = fit_cost_parameters(features, observed, ridge=ridge)
        for value in fit.parameters.as_dict().values():
            assert math.isfinite(value)
            assert value >= 0

    @given(features=feature_matrices(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_fit_never_regresses_on_its_own_data(self, features, data):
        """error_after <= error_before for arbitrary observed shares; when
        least squares cannot win, the incumbent comes back untouched."""
        observed = data.draw(arbitrary_shares(len(features)))
        base = CostParameters(comparison=2.0, lock=0.3, queue_push=0.2)
        fit = fit_cost_parameters(features, observed, base=base)
        assert fit.error_after <= fit.error_before
        if fit.error_after == fit.error_before:
            assert fit.parameters == base

    @given(seed=st.integers(min_value=0, max_value=2 ** 16),
           lock=st.floats(min_value=0.0, max_value=2.0))
    @settings(max_examples=5, deadline=None)
    def test_autotune_never_increases_error(self, seed, lock):
        """The tuned model is never worse than the starting one on the
        measured trajectory, for arbitrary worlds and streams."""
        pattern = Pattern.sequence(["A", "B", "C"], window=6.0)
        events = make_stream(num_events=150, seed=seed)
        result = autotune(
            pattern, events, num_cores=4, max_rounds=2,
            costs=CostParameters(lock=lock), seed=7,
        )
        assert result.final_error <= result.initial_error
        assert len({r.matches for r in result.rounds}) == 1


# --------------------------------------------------------------------- #
# The pinned-seed closed loop                                            #
# --------------------------------------------------------------------- #


class TestAutotuneEndToEnd:
    #: A deployment whose lock cost is 20x the model default (0.12): the
    #: planner's Theorem-1 shares are visibly wrong until tuned.
    WORLD = CostParameters(lock=2.4)

    def test_miscosted_world_strictly_improves(self, seq_pattern):
        events = make_stream(num_events=400, seed=11)
        baseline, _ = traced_run(seq_pattern, events, costs=self.WORLD,
                                 cores=6)
        result = autotune(
            seq_pattern, events, num_cores=6, costs=self.WORLD, seed=7,
            max_rounds=4,
        )
        assert result.improved
        assert result.final_error < result.initial_error
        # Tuning re-plans but never changes which matches are found.
        assert result.best_round.matches == baseline.matches
        assert result.tuned != self.WORLD

    def test_round_zero_measures_the_initial_model(self, seq_pattern):
        events = make_stream(num_events=400, seed=11)
        result = autotune(
            seq_pattern, events, num_cores=4, costs=self.WORLD, seed=7,
        )
        assert result.rounds[0].round == 0
        assert result.rounds[0].parameters == self.WORLD

    def test_deterministic_across_invocations(self, seq_pattern):
        events = make_stream(num_events=300, seed=11)
        first = autotune(
            seq_pattern, events, num_cores=4, costs=self.WORLD, seed=7,
        )
        second = autotune(
            seq_pattern, events, num_cores=4, costs=self.WORLD, seed=7,
        )
        assert first.as_dict() == second.as_dict()

    def test_healthy_world_converges_quietly(self, seq_pattern):
        events = make_stream(num_events=300, seed=11)
        result = autotune(seq_pattern, events, num_cores=4, seed=7,
                          max_rounds=3)
        assert result.final_error <= result.initial_error
        assert result.rounds

    def test_fit_within_tolerance_stops_after_one_round(self, seq_pattern):
        events = make_stream(num_events=300, seed=11)
        result = autotune(
            seq_pattern, events, num_cores=4, costs=self.WORLD, seed=7,
            tol=float("inf"),
        )
        # No fit can promise more than an infinite tolerance, so the
        # loop stops after measuring the starting model.
        assert result.converged
        assert len(result.rounds) == 1
        assert result.tuned == self.WORLD

    def test_explicit_model_start(self, seq_pattern):
        events = make_stream(num_events=300, seed=11)
        result = autotune(
            seq_pattern, events, num_cores=4, costs=self.WORLD,
            model=CostParameters(lock=2.4), seed=7, max_rounds=2,
        )
        # Starting from the true world costs, round 0 is already healthy.
        assert result.rounds[0].parameters == CostParameters(lock=2.4)

    def test_max_rounds_validation(self, seq_pattern):
        with pytest.raises(ValueError, match="max_rounds"):
            autotune(seq_pattern, [], num_cores=2, max_rounds=0)
