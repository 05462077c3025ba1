"""Incremental calibration-drift estimation from live trace signals.

:func:`repro.obs.calibration.calibration_report` measures predicted-vs-
observed load shares *post hoc*, from a fully recorded trace.  The runtime
control plane (:mod:`repro.control`) needs the same signal *during* a run,
without buffering trace events: :class:`DriftEstimator` accumulates busy
time per agent incrementally — its ``note_*`` methods mirror the tracer
hooks that post-hoc calibration reads (``ALLOC_PLAN`` → :meth:`note_plan`,
``UNIT_BUSY`` → :meth:`note_busy`) — and answers, at any instant, how many
units the Theorem-1 proportional allocation would move if it were re-run
on the busy shares observed *since the last plan*.

The arithmetic is deliberately shared with the post-hoc path:
:func:`~repro.costmodel.model.proportional_allocation` produces the
empirically optimal split and
:func:`~repro.costmodel.model.allocation_moves` the re-balancing distance,
so a run whose final verdict is "calibrated" in the offline report also
reads as calibrated live (same tolerance, same rounding).
"""

from __future__ import annotations

from repro.costmodel.model import allocation_moves, proportional_allocation
from repro.obs.calibration import DEFAULT_TOLERANCE

__all__ = ["DriftEstimator"]


class DriftEstimator:
    """Running predicted-vs-observed busy-share comparison for one plan.

    Observations accumulate *per plan*: :meth:`note_plan` resets the busy
    accumulators, so after a mid-run re-allocation the estimator measures
    the new allocation against the new regime only — re-planning on stale
    pre-replan shares would oscillate.
    """

    def __init__(self, tolerance: float = DEFAULT_TOLERANCE) -> None:
        self.tolerance = tolerance
        self.per_agent: list[int] = []
        self.predicted_loads: list[float] = []
        self.busy: list[float] = []
        self.items: int = 0

    # -- hook-parallel feeds -------------------------------------------- #

    def note_plan(self, per_agent: list[int], loads: list[float]) -> None:
        """A (re-)allocation took effect; start a fresh observation epoch."""
        self.per_agent = [int(count) for count in per_agent]
        if len(loads) == len(per_agent):
            self.predicted_loads = [float(load) for load in loads]
        else:
            # Fusion plans carry unit counts only; the allocated shares
            # are the plan's load prediction (as in post-hoc calibration).
            self.predicted_loads = [float(count) for count in per_agent]
        self.busy = [0.0] * len(self.per_agent)
        self.items = 0

    def note_busy(self, agent: int, dur: float) -> None:
        """One work item occupied a unit of *agent* for *dur* virtual time."""
        if 0 <= agent < len(self.busy):
            self.busy[agent] += dur
            self.items += 1

    # -- derived signals ------------------------------------------------- #

    @property
    def num_agents(self) -> int:
        return len(self.per_agent)

    @property
    def total_units(self) -> int:
        return sum(self.per_agent)

    def observed_shares(self) -> list[float]:
        total = sum(self.busy)
        if total <= 0:
            return [0.0] * len(self.busy)
        return [value / total for value in self.busy]

    def predicted_shares(self) -> list[float]:
        total = sum(self.predicted_loads)
        if total <= 0:
            count = len(self.predicted_loads)
            return [1.0 / count] * count if count else []
        return [load / total for load in self.predicted_loads]

    def optimal_allocation(self) -> list[int]:
        """Theorem-1 proportional allocation re-run on the observed busy."""
        if not self.per_agent or sum(self.busy) <= 0:
            return list(self.per_agent)
        return proportional_allocation(self.busy, self.total_units)

    def moves(self) -> int:
        """Units misplaced relative to the empirically optimal split."""
        if not self.per_agent:
            return 0
        return allocation_moves(self.per_agent, self.optimal_allocation())

    def allowed_moves(self) -> int:
        return max(1, int(self.tolerance * self.total_units))

    def drifted(self) -> bool:
        """The live counterpart of the calibration report's verdict."""
        return self.moves() > self.allowed_moves()
