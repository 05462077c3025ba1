"""Exception hierarchy for the HYPERSONIC reproduction.

Every error raised intentionally by the library derives from
:class:`ReproError` so applications can catch library failures with a single
``except`` clause while letting genuine programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class PatternError(ReproError):
    """A pattern definition is malformed or unsupported.

    Raised during pattern construction or NFA compilation, e.g. for an empty
    sequence, a duplicate event type in a SEQ, or a nested structure that the
    chain-NFA compiler cannot translate.
    """


class ConditionError(ReproError):
    """A condition refers to event types or attributes that do not exist."""


class StreamError(ReproError):
    """The input stream violates the model's assumptions.

    The event model (paper Section 2.1) requires the global input stream to be
    temporally ordered.  Feeding an out-of-order stream to a component that
    assumes order raises this error.
    """


class AllocationError(ReproError):
    """Execution-unit allocation is infeasible.

    For a pattern with *m* agents, HYPERSONIC needs at least two units per
    agent (one event worker, one match worker) unless fusion is enabled
    (paper Section 4.2).
    """


class SimulationError(ReproError):
    """The discrete-event simulator was configured inconsistently."""


class EngineError(ReproError):
    """An engine was driven incorrectly (e.g. events after ``close()``)."""


class DatasetError(ReproError, ValueError):
    """A dataset generator or calibration got a value it cannot use, such
    as no symbols or a target selectivity outside (0, 1).  It is also a
    ``ValueError``, which these checks raised before."""
