"""Closed-loop calibration: fit cost constants to an observed trace.

The Theorem-1 allocation is only as good as the cost constants it is fed
(paper Table 1: ``c_i``, ``b_i``, ``q_i``).  PR 3's
:func:`repro.obs.calibration.calibration_report` measures how far a plan
drifted from the observed per-agent busy shares; this module closes the
loop the paper leaves open between the closed-form model and measured
behaviour (the adaptive re-planning strategy of Xiao & Aritsugi, see
PAPERS.md, reproduced on the simulator):

* :func:`fit_cost_parameters` — given observed per-agent load shares and
  the plan's feature decomposition
  (:meth:`~repro.costmodel.model.LoadModel.load_features`), solve a tiny
  non-negative least-squares problem for the constants
  ``(comparison, lock, queue_push, cache_penalty, sync_overhead,
  comm_event, comm_match)`` that
  minimise predicted-vs-observed share error.  The two ``comm_*``
  constants price IPC volume (window-based model of Mayer et al.,
  arXiv:1705.05824); their feature columns are all-zero on in-process
  traces and carry real communication volume on multiprocessing
  (``--backend procs``) traces, so the same fitter calibrates both.  Loads are *linear* in the
  fitted coefficients, so the fit is deterministic coordinate descent on
  the normal equations — no randomness, no wall clock, no dependencies.
* :func:`fit_from_trace` — the replayable entry point: consume a recorded
  trace (a :class:`~repro.obs.TraceRecorder` or events read back via
  :func:`~repro.obs.read_jsonl`), pull the observed busy / queue-integral
  shares out of :func:`calibration_report` and the feature rows out of
  the recorded ``ALLOC_PLAN`` event, and fit.
* :func:`autotune` — the closed loop: run a traced simulation with the
  current :class:`CostParameters`, fit, re-plan the Theorem-1 allocation
  with the fitted model, re-run, and repeat until the calibration error
  converges or a round cap is hit.

Guarantees (property-tested in ``tests/test_fitting.py``):

* fitted constants are always finite and non-negative
  (:class:`CostParameters.__post_init__` re-validates them);
* the fit never *increases* the share error on the trace it was fitted
  to — when least squares cannot beat the incumbent parameters, the
  incumbent is returned unchanged;
* cost constants never change *which* matches are found, only the
  virtual clock (``tests/test_differential.py``), so re-planning is
  always safe for correctness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.costmodel.model import (
    LOAD_FEATURE_NAMES,
    CostParameters,
)
from repro.obs.analysis import _events_of
from repro.obs.calibration import calibration_report
from repro.obs.tracer import TraceEvent, TraceKind

__all__ = [
    "FitResult",
    "AutotuneRound",
    "AutotuneResult",
    "share_error",
    "predicted_shares",
    "fit_cost_parameters",
    "plan_features",
    "observed_shares",
    "fit_from_trace",
    "autotune",
]

#: Coordinate-descent sweep cap; the problem has <= 7 unknowns, so this is
#: far past convergence for any realistic conditioning.
_MAX_SWEEPS = 400

#: Relative per-sweep change below which the solver stops early.
_SOLVE_TOL = 1e-12


def _coefficients(params: CostParameters) -> list[float]:
    """The linear coefficients of :meth:`LoadModel.load_features` rows
    corresponding to *params* (the fit's starting point)."""
    return [
        params.comparison,
        params.lock,
        params.queue_push,
        params.comparison * params.cache_penalty,
        params.sync_overhead,
        params.comm_event,
        params.comm_match,
    ]


def _parameters_from(coeffs: Sequence[float],
                     base: CostParameters) -> CostParameters:
    """Map fitted linear coefficients back onto :class:`CostParameters`.

    Shares are invariant under a common rescaling of the coefficient
    vector, so the result is normalised to keep ``comparison`` at the
    incumbent's value whenever both are positive — fitted parameters then
    stay on the customary work-unit scale and remain usable as simulator
    costs (where absolute magnitudes set the virtual clock).
    """
    c, b, q, cg, s, ce, cm = (max(0.0, float(value)) for value in coeffs)
    if c > 0.0 and base.comparison > 0.0:
        scale = base.comparison / c
        c, b, q, cg, s, ce, cm = (
            c * scale, b * scale, q * scale, cg * scale, s * scale,
            ce * scale, cm * scale,
        )
    return CostParameters(
        comparison=c,
        lock=b,
        queue_push=q,
        pointer_size=base.pointer_size,
        match_overhead=base.match_overhead,
        cache_penalty=cg / c if c > 0.0 else 0.0,
        sync_overhead=s,
        comm_event=ce,
        comm_match=cm,
    )


def predicted_shares(features: Sequence[Sequence[float]],
                     coeffs: Sequence[float]) -> list[float]:
    """Normalised load shares implied by *coeffs* on *features* rows."""
    loads = [
        sum(f * x for f, x in zip(row, coeffs)) for row in features
    ]
    total = sum(loads)
    if total <= 0.0:
        return [1.0 / len(loads)] * len(loads) if loads else []
    return [load / total for load in loads]


def share_error(predicted: Sequence[float],
                observed: Sequence[float]) -> float:
    """Mean absolute relative share error, observed as the reference.

    Matches the semantics of ``calibration_report``'s
    ``mean_abs_relative_error`` row aggregation (including the infinite
    penalty for predicting load where none was observed).
    """
    if not observed:
        return 0.0
    errors = []
    for pred, obs in zip(predicted, observed):
        if obs > 0:
            errors.append(abs(pred - obs) / obs)
        else:
            errors.append(0.0 if pred == 0 else float("inf"))
    return sum(errors) / len(errors)


def _solve_nnls(features: Sequence[Sequence[float]],
                targets: Sequence[float],
                start: Sequence[float],
                ridge: float = 0.0) -> list[float]:
    """min ||F x - t||^2 + ridge ||D (x - start)||^2 s.t. x >= 0.

    Solved by deterministic cyclic coordinate descent on the normal
    equations.  Feature columns are scaled to unit norm first so wildly
    different magnitudes (rates vs. the constant column) do not stall the
    descent; ``D`` is that same column scaling, so the anchor penalty
    measures deviation from *start* in prediction-impact units.  The
    problem is typically underdetermined (a handful of agents, five
    coefficients); the anchor pins the unidentifiable directions at the
    incumbent parameters instead of letting them collapse to zero.
    """
    num_rows = len(features)
    num_cols = len(features[0]) if num_rows else 0
    if num_rows == 0 or num_cols == 0:
        return list(start)
    norms = []
    for col in range(num_cols):
        norm = math.sqrt(sum(row[col] * row[col] for row in features))
        norms.append(norm if norm > 0.0 else 1.0)
    scaled = [
        [row[col] / norms[col] for col in range(num_cols)]
        for row in features
    ]
    # Normal-equation matrices of the scaled system.
    gram = [
        [
            sum(row[i] * row[j] for row in scaled)
            for j in range(num_cols)
        ]
        for i in range(num_cols)
    ]
    rhs = [
        sum(row[col] * target for row, target in zip(scaled, targets))
        for col in range(num_cols)
    ]
    x = [max(0.0, float(value)) * norms[col]
         for col, value in enumerate(start)]
    if ridge > 0.0:
        for col in range(num_cols):
            gram[col][col] += ridge
            rhs[col] += ridge * x[col]
    for _sweep in range(_MAX_SWEEPS):
        delta = 0.0
        for col in range(num_cols):
            diag = gram[col][col]
            if diag <= 0.0:
                continue
            gradient = sum(gram[col][j] * x[j] for j in range(num_cols))
            updated = max(0.0, x[col] - (gradient - rhs[col]) / diag)
            delta = max(delta, abs(updated - x[col]))
            x[col] = updated
        scale = max(max(x), 1.0)
        if delta <= _SOLVE_TOL * scale:
            break
    return [value / norms[col] for col, value in enumerate(x)]


@dataclass(frozen=True)
class FitResult:
    """Outcome of one fit: parameters plus before/after share errors."""

    parameters: CostParameters
    observed_shares: tuple[float, ...]
    predicted_before: tuple[float, ...]
    predicted_after: tuple[float, ...]
    error_before: float
    error_after: float
    feature_names: tuple[str, ...] = LOAD_FEATURE_NAMES
    features: tuple[tuple[float, ...], ...] = ()

    @property
    def improved(self) -> bool:
        return self.error_after < self.error_before

    def as_dict(self) -> dict:
        return {
            "parameters": self.parameters.as_dict(),
            "observed_shares": list(self.observed_shares),
            "predicted_before": list(self.predicted_before),
            "predicted_after": list(self.predicted_after),
            "error_before": self.error_before,
            "error_after": self.error_after,
            "improved": self.improved,
        }


#: Default anchor strength for :func:`fit_cost_parameters`.  The fit is
#: underdetermined (few agents, five coefficients); the anchor keeps the
#: solution near the incumbent along unidentifiable directions while
#: leaving the data-constrained directions essentially free.
DEFAULT_RIDGE = 0.05


def fit_cost_parameters(
    features: Sequence[Sequence[float]],
    observed: Sequence[float],
    base: CostParameters | None = None,
    ridge: float = DEFAULT_RIDGE,
) -> FitResult:
    """Fit cost constants so modelled load shares track *observed* shares.

    *features* is the per-agent design matrix
    (:meth:`LoadModel.load_features`); *observed* the per-agent observed
    load shares (summing to ~1).  The least-squares target is the observed
    shares rescaled to the incumbent model's total load, so the incumbent
    coefficients are a consistent anchor for the *ridge* penalty.  The
    incumbent *base* parameters seed the solver and win ties: if the fit
    cannot strictly reduce the share error, the incumbent is returned
    untouched, so fitting can never make the model worse on the data it
    saw.
    """
    base = base if base is not None else CostParameters()
    if len(features) != len(observed):
        raise ValueError(
            f"{len(features)} feature rows but {len(observed)} observed shares"
        )
    if ridge < 0:
        raise ValueError(f"ridge must be non-negative, got {ridge}")
    clean_obs = [max(0.0, float(value)) for value in observed]
    total_obs = sum(clean_obs)
    if total_obs > 0:
        clean_obs = [value / total_obs for value in clean_obs]
    # Traces recorded before the comm columns existed carry 5-wide rows;
    # pad them with zeros so the comm coefficients are simply held at the
    # incumbent (an all-zero column constrains nothing).
    width = len(LOAD_FEATURE_NAMES)
    clean_feat = [
        tuple(
            value if math.isfinite(value) and value > 0.0 else 0.0
            for value in row
        ) + (0.0,) * (width - len(row))
        for row in features
    ]
    start = _coefficients(base)
    before = predicted_shares(clean_feat, start)
    error_before = share_error(before, clean_obs)
    # Shares are scale-free; pin the target to the incumbent's total load
    # so "stay near the incumbent" and "match the observations" pull on
    # the same scale.
    base_total = sum(
        sum(f * x for f, x in zip(row, start)) for row in clean_feat
    )
    scale = base_total if base_total > 0 else 1.0
    targets = [value * scale for value in clean_obs]
    solved = _solve_nnls(clean_feat, targets, start, ridge=ridge)
    # The cache coefficient is only representable as
    # ``comparison * cache_penalty``: a solution with comparison == 0 but
    # a positive cache coefficient would silently forfeit that column when
    # mapped onto CostParameters.  The problem is underdetermined, so such
    # vertices do occur; re-solve with the cache column removed so the
    # candidate is representable by construction.
    if solved[0] <= 0.0 and solved[3] > 0.0:
        no_cache_feat = [row[:3] + (0.0,) + row[4:] for row in clean_feat]
        resolved = _solve_nnls(no_cache_feat, targets, start, ridge=ridge)
        solved = resolved[:3] + [0.0] + resolved[4:]
    # Evaluate the error of the *representable* parameters.
    candidate = _parameters_from(solved, base)
    after = predicted_shares(clean_feat, _coefficients(candidate))
    error_after = share_error(after, clean_obs)
    if not (error_after < error_before) or not all(
        math.isfinite(value) for value in _coefficients(candidate)
    ):
        # Incumbent wins: the fit must never regress on its own trace.
        return FitResult(
            parameters=base,
            observed_shares=tuple(clean_obs),
            predicted_before=tuple(before),
            predicted_after=tuple(before),
            error_before=error_before,
            error_after=error_before,
            features=tuple(clean_feat),
        )
    return FitResult(
        parameters=candidate,
        observed_shares=tuple(clean_obs),
        predicted_before=tuple(before),
        predicted_after=tuple(after),
        error_before=error_before,
        error_after=error_after,
        features=tuple(clean_feat),
    )


# --------------------------------------------------------------------- #
# Trace-replay entry points                                              #
# --------------------------------------------------------------------- #


def plan_features(
    trace: "Iterable[TraceEvent]",
) -> tuple[tuple[float, ...], ...] | None:
    """The feature rows recorded with the trace's last ``ALLOC_PLAN``.

    Returns ``None`` for traces without a plan or from engines predating
    feature recording (fusion plans record unit counts only and are not
    fittable — the grouped agents mix stages with different constants).
    """
    rows = None
    for event in trace:
        if event.kind == TraceKind.ALLOC_PLAN:
            rows = event.args.get("features")
    if not rows:
        return None
    return tuple(tuple(float(value) for value in row) for row in rows)


def observed_shares(report: dict, queue_weight: float = 0.0) -> list[float]:
    """Observed per-agent load shares out of a calibration report.

    The primary signal is the busy-time share; ``queue_weight`` blends in
    the time-weighted queue-integral share (a backlog-sensitive secondary
    signal) as ``(1-w)*busy + w*queue``.
    """
    if not 0.0 <= queue_weight <= 1.0:
        raise ValueError(f"queue_weight must be in [0, 1], got {queue_weight}")
    shares = []
    for row in report["per_agent"]:
        busy = row["observed_busy_share"]
        queue = row.get("queue_share", 0.0)
        shares.append((1.0 - queue_weight) * busy + queue_weight * queue)
    total = sum(shares)
    return [share / total for share in shares] if total > 0 else shares


def fit_from_trace(
    trace,
    base: CostParameters | None = None,
    queue_weight: float = 0.0,
    ridge: float = DEFAULT_RIDGE,
) -> FitResult | None:
    """Fit cost constants from a recorded trace alone (replayable).

    *trace* is a :class:`~repro.obs.TraceRecorder` or any iterable of
    :class:`~repro.obs.TraceEvent` (e.g. ``read_jsonl`` output).  Returns
    ``None`` when the trace carries no fittable plan (no ``ALLOC_PLAN``
    with feature rows — fusion plans, partition strategies, pre-feature
    traces) or no observed busy time.
    """
    events = _events_of(trace)
    report = calibration_report(events)
    if report is None:
        return None
    features = plan_features(events)
    if features is None or len(features) != len(report["per_agent"]):
        return None
    observed = observed_shares(report, queue_weight=queue_weight)
    return fit_cost_parameters(features, observed, base=base, ridge=ridge)


# --------------------------------------------------------------------- #
# The closed loop                                                        #
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class AutotuneRound:
    """One measured round: the parameters used and what they produced."""

    round: int
    parameters: CostParameters
    mean_abs_relative_error: float
    throughput: float
    matches: int
    total_time: float
    verdict: str

    def as_dict(self) -> dict:
        return {
            "round": self.round,
            "parameters": self.parameters.as_dict(),
            "mean_abs_relative_error": self.mean_abs_relative_error,
            "throughput": self.throughput,
            "matches": self.matches,
            "total_time": self.total_time,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class AutotuneResult:
    """Outcome of the closed loop: round trajectory plus the winner."""

    rounds: tuple[AutotuneRound, ...]
    tuned: CostParameters
    converged: bool
    fit: FitResult | None = None

    @property
    def initial_error(self) -> float:
        return self.rounds[0].mean_abs_relative_error

    @property
    def final_error(self) -> float:
        return min(r.mean_abs_relative_error for r in self.rounds)

    @property
    def improved(self) -> bool:
        return self.final_error < self.initial_error

    @property
    def best_round(self) -> AutotuneRound:
        return min(self.rounds, key=lambda r: (r.mean_abs_relative_error,
                                               r.round))

    def as_dict(self) -> dict:
        return {
            "rounds": [r.as_dict() for r in self.rounds],
            "tuned_parameters": self.tuned.as_dict(),
            "initial_error": self.initial_error,
            "final_error": self.final_error,
            "improved": self.improved,
            "converged": self.converged,
        }


def autotune(
    pattern,
    events,
    num_cores: int,
    costs: CostParameters | None = None,
    model: CostParameters | None = None,
    stats=None,
    cache=None,
    max_rounds: int = 3,
    tol: float = 1e-3,
    seed: int = 7,
    queue_weight: float = 0.0,
    ridge: float = DEFAULT_RIDGE,
    sample_size: int = 2000,
    **simulate_kwargs,
) -> AutotuneResult:
    """Closed-loop cost-model auto-tuning on the simulator.

    *costs* are the simulated deployment's actual per-action costs — they
    drive the virtual clock and stay fixed for the whole loop.  *model* is
    the planner's cost model (defaulting to *costs*): the engine plans the
    Theorem-1 allocation from it, and it is what gets tuned.  Each round
    runs a traced ``hypersonic`` simulation (world costs + current model),
    reads the calibration report off the trace, fits a new model
    (:func:`fit_from_trace`), and — if the fit predicts a strictly smaller
    share error — re-plans and re-runs with it.  The loop stops when the
    fit stops improving by more than *tol*, when a measured round fails to
    improve on the best error so far, or after *max_rounds* measured
    rounds.

    Workload statistics are estimated once, from the same ``sample_size``
    prefix the engine would use, and pinned across rounds so the only
    thing that changes between rounds is the planner's cost model —
    exactly the feedback loop ROADMAP's "calibration-driven auto-tuning"
    item asks for.  Everything is seeded; two calls with identical inputs
    return identical results.

    Returns an :class:`AutotuneResult`; ``tuned`` holds the model of the
    best measured round (never worse than the starting one on the
    measured trajectory).
    """
    from repro.costmodel.statistics import estimate_statistics
    from repro.obs.tracer import TraceRecorder
    from repro.simulator.runner import simulate

    if max_rounds < 1:
        raise ValueError(f"max_rounds must be >= 1, got {max_rounds}")
    events = list(events)
    if stats is None:
        stats = estimate_statistics(pattern, events[:sample_size])
    world = costs if costs is not None else CostParameters()
    current = model if model is not None else world

    rounds: list[AutotuneRound] = []
    converged = False
    last_fit: FitResult | None = None
    best_error = float("inf")
    for index in range(max_rounds):
        recorder = TraceRecorder()
        result = simulate(
            "hypersonic", pattern, events, num_cores=num_cores,
            stats=stats, costs=world, model_costs=current, cache=cache,
            seed=seed, tracer=recorder, **simulate_kwargs,
        )
        report = result.extra["obs"].get("calibration")
        if report is None:
            raise RuntimeError(
                "traced run produced no calibration report; autotune needs "
                "an allocation-planned strategy"
            )
        error = report["mean_abs_relative_error"]
        rounds.append(AutotuneRound(
            round=index,
            parameters=current,
            mean_abs_relative_error=error,
            throughput=result.throughput,
            matches=result.matches,
            total_time=result.total_time,
            verdict=report["verdict"],
        ))
        if error >= best_error:
            # The re-planned run measured no better than the incumbent:
            # the loop has closed as far as the data supports.
            converged = True
            break
        best_error = error
        if index == max_rounds - 1:
            break
        fit = fit_from_trace(recorder, base=current,
                             queue_weight=queue_weight, ridge=ridge)
        last_fit = fit
        if fit is None or fit.error_before - fit.error_after <= tol:
            converged = True
            break
        current = fit.parameters

    counts = {r.matches for r in rounds}
    if len(counts) > 1:
        raise AssertionError(
            "cost parameters changed the match count across autotune "
            f"rounds: {sorted(counts)} — constants must only move the "
            "virtual clock"
        )
    best = min(rounds, key=lambda r: (r.mean_abs_relative_error, r.round))
    return AutotuneResult(
        rounds=tuple(rounds),
        tuned=best.parameters,
        converged=converged,
        fit=last_fit,
    )
