"""Real-clock runtime for the agent pipeline.

:mod:`repro.runtime.procs` — worker processes on real cores, emitting
measured wall-clock traces the cost-model fitter consumes.
"""

from repro.runtime.procs import ProcsPipelineEngine

__all__ = ["ProcsPipelineEngine"]
