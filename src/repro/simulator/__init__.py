"""Discrete-event simulation of execution units (the performance substrate).

The CPython GIL prevents real multi-core throughput measurements, so the
paper's performance evaluation is reproduced on a virtual-time simulator of
homogeneous execution units driven by the paper's own cost model; see
DESIGN.md Section 2 for the substitution argument.

Both strategy simulators, :class:`HypersonicSimulation` and
:class:`PartitionSimulation`, run on the shared :class:`SimKernel`
(:mod:`repro.simulator.kernel`) and accept any event iterable through the
:class:`WorkloadSource` protocol (:mod:`repro.core.streams`) — lists,
generators, and streaming CSV readers alike, without materializing the
stream.
"""

from repro.core.streams import (
    IterSource,
    ListSource,
    Lookahead,
    WorkloadSource,
    as_source,
)
from repro.simulator.cache import CacheModel
from repro.simulator.hypersonic_sim import HypersonicSimulation
from repro.simulator.kernel import SimKernel, WindowTracker
from repro.simulator.metrics import LatencyAccumulator, SimResult
from repro.simulator.partition_sim import PartitionSimulation, SequentialSimEngine
from repro.simulator.runner import (
    ALLOCATION_SCHEMES,
    STRATEGIES,
    RunConfig,
    simulate,
)

__all__ = [
    "CacheModel",
    "HypersonicSimulation",
    "SimKernel",
    "WindowTracker",
    "LatencyAccumulator",
    "SimResult",
    "PartitionSimulation",
    "SequentialSimEngine",
    "ALLOCATION_SCHEMES",
    "STRATEGIES",
    "RunConfig",
    "simulate",
    "IterSource",
    "ListSource",
    "Lookahead",
    "WorkloadSource",
    "as_source",
]
