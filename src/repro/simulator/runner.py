"""Uniform entry point for simulating any strategy on a workload.

``simulate(strategy, pattern, events, num_cores, **options)`` checks its
options once, as a :class:`RunConfig`, and dispatches to the right
simulator with a shared cost/cache model so results are directly
comparable — the basis of every figure-reproduction benchmark.

Strategies
----------
``sequential``
    Single-unit baseline (denominator of Figure 7's relative gain).
``hypersonic``
    The full hybrid system.  Keyword arguments tune its features:
    ``allocation`` ("cost"/"equal"), ``role_dynamic``, ``agent_dynamic``,
    ``fusion`` / ``force_fusion_pairs``.
``state``
    State-parallel: one unit per agent regardless of available cores.
``rip``
    Run-based round-robin chunking (``chunk_size`` keyword).
``rr`` / ``jsq`` / ``llsf``
    Window-segment data parallelism with the respective assignment policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.control import SHED_POLICIES
from repro.core.errors import SimulationError
from repro.core.events import Event
from repro.core.nfa import compile_pattern
from repro.core.patterns import Pattern
from repro.core.streams import WorkloadSource
from repro.costmodel.model import CostParameters, WorkloadStatistics
from repro.baselines.llsf import JSQEngine, LLSFEngine, RREngine
from repro.baselines.rip import RIPEngine
from repro.hypersonic.engine import HypersonicConfig
from repro.obs.slo import SloSpec
from repro.obs.tracer import Tracer
from repro.simulator.cache import CacheModel
from repro.simulator.hypersonic_sim import HypersonicSimulation
from repro.simulator.metrics import SimResult
from repro.simulator.partition_sim import PartitionSimulation, SequentialSimEngine

__all__ = ["STRATEGIES", "ALLOCATION_SCHEMES", "RunConfig", "simulate"]

STRATEGIES = ("sequential", "hypersonic", "state", "rip", "rr", "jsq", "llsf")

#: Outer allocation schemes accepted by the ``allocation`` keyword.
ALLOCATION_SCHEMES = ("cost", "equal")

#: Strategies built on the agent chain, the only ones with a control plane.
_AGENT_CHAIN = ("hypersonic", "state")


@dataclass(frozen=True)
class RunConfig:
    """The options of one simulated run, checked once at construction.

    Every field after ``strategy`` and ``num_cores`` is a keyword of
    :func:`simulate`, with the same default.  A bad value raises
    :class:`~repro.core.errors.SimulationError` here, before any
    simulator is built.

    ``pace`` switches injection from closed loop (a saturated source
    behind a channel sized by the core count) to open loop: one arrival
    every ``pace`` virtual seconds.  Detection latency means most below
    saturation; :func:`repro.bench.paced_latencies` paces every strategy
    at one share of HYPERSONIC's capacity, as the paper's latency runs do.

    ``model_costs`` separates the planner's cost model from the simulated
    deployment's actual costs for the planned strategies (``hypersonic``,
    ``state``): the virtual clock runs on ``costs`` while allocation and
    fusion decisions use ``model_costs`` — the substrate of calibration
    auto-tuning (:func:`repro.costmodel.fitting.autotune`).  Partition
    strategies make no model-driven plan, so it is ignored there.

    ``batch_size`` enables the opt-in batched execution mode: the
    splitter injects and agents process events in micro-batches of up to
    this many, with vectorized predicate kernels where the stage
    conditions allow (see :mod:`repro.core.vectorized`).  The default of 1
    is the scalar path, bit-identical to the pinned goldens; any larger
    value preserves the match set exactly.  Partition strategies are
    driven event-major by their simulator and accept the knob as a no-op.

    ``adapt="on"`` attaches the runtime control plane, ``shed_bound > 0``
    the load shedder (``shed_policy`` "tail" or "pattern"; default
    "pattern" with adaptation, "tail" without), and ``slos`` (a sequence
    of :class:`repro.obs.slo.SloSpec`) online SLO evaluation, whose
    verdicts land in ``extra["slo"]`` and, with ``adapt="on"``, feed the
    control plane as replan/shed triggers.  All three need an agent-chain
    strategy.

    A :class:`~repro.obs.Tracer` records structured events against the
    virtual clock and attaches the per-agent summary to
    ``SimResult.extra["obs"]``.
    """

    strategy: str
    num_cores: int
    stats: WorkloadStatistics | None = None
    costs: CostParameters | None = None
    cache: CacheModel | None = None
    chunk_size: int = 256
    allocation: str = "cost"
    role_dynamic: bool = True
    agent_dynamic: bool = False
    fusion: bool = False
    force_fusion_pairs: tuple[tuple[int, int], ...] = ()
    seed: int = 7
    pace: float | None = None
    tracer: Tracer | None = None
    model_costs: CostParameters | None = None
    batch_size: int = 1
    adapt: str = "off"
    shed_bound: int = 0
    shed_policy: str | None = None
    slos: Sequence[SloSpec] | None = None

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise SimulationError(
                f"unknown strategy {self.strategy!r}; expected one of "
                f"{STRATEGIES}"
            )
        if self.allocation not in ALLOCATION_SCHEMES:
            raise SimulationError(
                f"unknown allocation scheme {self.allocation!r}; expected "
                f"one of {ALLOCATION_SCHEMES}"
            )
        for name in ("num_cores", "chunk_size", "batch_size"):
            if getattr(self, name) < 1:
                raise SimulationError(
                    f"{name} must be >= 1, got {getattr(self, name)}"
                )
        if self.pace is not None and self.pace <= 0:
            raise SimulationError(f"pace must be > 0, got {self.pace}")
        if self.adapt not in ("off", "on"):
            raise SimulationError(
                f"adapt must be 'off' or 'on', got {self.adapt!r}"
            )
        if self.shed_bound < 0:
            raise SimulationError(
                f"shed_bound must be >= 0, got {self.shed_bound}"
            )
        if self.shed_policy not in (None, *SHED_POLICIES):
            raise SimulationError(
                f"unknown shed_policy {self.shed_policy!r}; expected one of "
                f"{SHED_POLICIES}"
            )
        if (
            self.adapt == "on" or self.shed_bound > 0 or self.slos
        ) and self.strategy not in _AGENT_CHAIN:
            raise SimulationError(
                "online adaptation, load shedding, and SLO evaluation "
                "require an agent-chain strategy (hypersonic/state), not "
                f"{self.strategy!r}"
            )


def _inflight_cap(units: int) -> int:
    """Channel capacity of a closed-loop run on *units* units: it scales
    with the unit count so every strategy can keep its units fed."""
    return max(64, 24 * units)


def simulate(
    strategy: str,
    pattern: Pattern,
    events: Iterable[Event] | WorkloadSource,
    num_cores: int,
    **options,
) -> SimResult:
    """Simulate one strategy; ``options`` are :class:`RunConfig`'s fields.

    *events* may be a list, a generator or any
    :class:`~repro.core.streams.WorkloadSource`; it is consumed in one
    pass, and an event earlier than the one before it raises
    :class:`~repro.core.errors.StreamError`.
    """
    config = RunConfig(strategy, num_cores, **options)
    if strategy in _AGENT_CHAIN:
        if strategy == "state":
            # The state-based system only ever uses one unit per state, so
            # its channel capacity is sized to those units — extra cores
            # must not change its behaviour (Figure 7 shows it flat in the
            # core count).
            num_units = compile_pattern(pattern).num_stages - 1
            hybrid = HypersonicConfig(allocation="equal", seed=config.seed)
        else:
            num_units = num_cores
            hybrid = HypersonicConfig(
                role_dynamic=config.role_dynamic,
                agent_dynamic=config.agent_dynamic,
                allocation=config.allocation,
                fusion=config.fusion,
                force_fusion_pairs=config.force_fusion_pairs,
                seed=config.seed,
            )
        return HypersonicSimulation(
            pattern,
            num_units,
            config=hybrid,
            stats=config.stats,
            costs=config.costs,
            cache=config.cache,
            inflight_cap=_inflight_cap(min(num_cores, num_units)),
            strategy_name=strategy,
            pace=config.pace,
            tracer=config.tracer,
            model_costs=config.model_costs,
            batch_size=config.batch_size,
            adapt=config.adapt,
            shed_bound=config.shed_bound,
            shed_policy=config.shed_policy,
            slos=config.slos,
        ).run(events)
    if strategy == "sequential":
        engine = SequentialSimEngine(pattern)
    elif strategy == "rip":
        engine = RIPEngine(pattern, num_cores, chunk_size=config.chunk_size)
    elif strategy == "rr":
        engine = RREngine(pattern, num_cores)
    elif strategy == "jsq":
        engine = JSQEngine(pattern, num_cores)
    else:
        engine = LLSFEngine(pattern, num_cores)
    return PartitionSimulation(
        engine,
        costs=config.costs,
        cache=config.cache,
        inflight_cap=_inflight_cap(num_cores),
        strategy_name=strategy,
        pace=config.pace,
        seed=config.seed,
        tracer=config.tracer,
    ).run(events)
