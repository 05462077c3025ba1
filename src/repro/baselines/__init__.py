"""Baseline CEP parallelization strategies the paper compares against.

The data-parallel strategies (RIP, RR/JSQ/LLSF) describe their partitions
only; :class:`repro.simulator.PartitionSimulation` runs them.
"""

from repro.baselines.llsf import JSQEngine, LLSFEngine, RREngine, WindowSegmentEngine
from repro.baselines.partitioned import PartitionedEngine, PartitionSpan
from repro.baselines.rip import RIPEngine
from repro.baselines.state_parallel import StateParallelEngine

__all__ = [
    "JSQEngine",
    "LLSFEngine",
    "RREngine",
    "WindowSegmentEngine",
    "PartitionedEngine",
    "PartitionSpan",
    "RIPEngine",
    "StateParallelEngine",
]
