"""Uniform entry point for simulating any strategy on a workload.

``simulate(strategy, pattern, events, num_cores)`` dispatches to the right
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

from typing import Iterable

from repro.core.errors import SimulationError
from repro.core.events import Event
from repro.core.nfa import compile_pattern
from repro.core.patterns import Pattern
from repro.core.streams import ListSource, WorkloadSource, as_source
from repro.costmodel.model import CostParameters, WorkloadStatistics
from repro.baselines.llsf import JSQEngine, LLSFEngine, RREngine
from repro.baselines.rip import RIPEngine
from repro.hypersonic.engine import HypersonicConfig
from repro.obs.tracer import Tracer
from repro.simulator.cache import CacheModel
from repro.simulator.hypersonic_sim import HypersonicSimulation
from repro.simulator.metrics import SimResult
from repro.simulator.partition_sim import PartitionSimulation, SequentialSimEngine

__all__ = ["STRATEGIES", "ALLOCATION_SCHEMES", "simulate"]

STRATEGIES = ("sequential", "hypersonic", "state", "rip", "rr", "jsq", "llsf")

#: Outer allocation schemes accepted by the ``allocation`` keyword.
ALLOCATION_SCHEMES = ("cost", "equal")


def simulate(
    strategy: str,
    pattern: Pattern,
    events: Iterable[Event] | WorkloadSource,
    num_cores: int,
    stats: WorkloadStatistics | None = None,
    costs: CostParameters | None = None,
    cache: CacheModel | None = None,
    inflight_cap: int | None = None,
    chunk_size: int = 256,
    allocation: str = "cost",
    role_dynamic: bool = True,
    agent_dynamic: bool = False,
    fusion: bool = False,
    force_fusion_pairs: tuple[tuple[int, int], ...] = (),
    seed: int = 7,
    measure_latency: bool = False,
    latency_load: float = 0.8,
    pace: float | None = None,
    tracer: Tracer | None = None,
    model_costs: CostParameters | None = None,
    batch_size: int = 1,
    adapt: str = "off",
    shed_bound: int = 0,
    shed_policy: str | None = None,
    slos=None,
    backend: str = "virtual",
    procs: int | None = None,
    start_method: str | None = None,
) -> SimResult:
    """Simulate one strategy; see module docstring for the options.

    ``backend`` selects the execution substrate: ``"virtual"`` (default)
    runs the discrete-event simulators on the virtual clock; ``"procs"``
    runs the agent chain on real worker processes
    (:class:`repro.runtime.procs.ProcsPipelineEngine`) and reports measured
    wall-clock numbers.  The procs backend supports the plain hypersonic
    agent chain only — planner-driven features (adaptation, shedding,
    SLOs, fusion, migration) and latency passes are virtual-clock-only and
    rejected up front.  ``procs`` is the worker-process count (defaults to
    ``num_cores``) and ``start_method`` the multiprocessing start method
    (``"fork"`` / ``"spawn"`` / ``"forkserver"``; None = platform default).

    ``slos`` (a sequence of :class:`repro.obs.slo.SloSpec`) attaches
    online SLO evaluation: verdicts land in ``extra["slo"]`` and, with
    ``adapt="on"``, feed the control plane as replan/shed triggers.  Like
    adaptation, it requires an agent-chain strategy.

    ``batch_size`` enables the opt-in batched execution mode: the
    splitter injects and agents process events in micro-batches of up to
    this many, with vectorized predicate kernels where the stage
    conditions allow (see :mod:`repro.core.vectorized`).  The default of 1
    is the scalar path, bit-identical to the pinned goldens; any larger
    value preserves the match set exactly (the scalar path is the
    differential oracle) while amortizing per-event lock and bookkeeping
    cost.  Partition strategies are driven event-major by their simulator
    and accept the knob as a no-op.

    ``model_costs`` separates the planner's cost model from the simulated
    deployment's actual costs for the planned strategies (``hypersonic``,
    ``state``): the virtual clock runs on ``costs`` while allocation and
    fusion decisions use ``model_costs`` — the substrate of calibration
    auto-tuning (:func:`repro.costmodel.fitting.autotune`).  Partition
    strategies make no model-driven plan, so it is ignored there.

    With ``measure_latency=True`` a second, open-loop pass re-runs the
    workload paced at ``latency_load`` of the capacity the first pass
    measured; its latency figures replace the saturated ones (detection
    latency is only meaningful below saturation — the paper's latency
    experiments likewise run the system at sustainable rates).

    A :class:`~repro.obs.Tracer` records structured events against the
    virtual clock and attaches the per-agent summary to
    ``SimResult.extra["obs"]``.  When two passes run (``measure_latency``),
    the tracer observes the capacity pass only — reusing one recorder
    across both passes would interleave two unrelated timelines.
    """
    if strategy not in STRATEGIES:
        raise SimulationError(
            f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
        )
    if allocation not in ALLOCATION_SCHEMES:
        raise SimulationError(
            f"unknown allocation scheme {allocation!r}; expected one of "
            f"{ALLOCATION_SCHEMES}"
        )
    if num_cores < 1:
        raise SimulationError(f"num_cores must be >= 1, got {num_cores}")
    if chunk_size < 1:
        raise SimulationError(f"chunk_size must be >= 1, got {chunk_size}")
    if not 0.0 < latency_load < 1.0:
        raise SimulationError(
            "latency_load must be in the open interval (0, 1), got "
            f"{latency_load}"
        )
    if pace is not None and pace <= 0:
        raise SimulationError(f"pace must be > 0, got {pace}")
    if inflight_cap is not None and inflight_cap < 1:
        raise SimulationError(
            f"inflight_cap must be >= 1, got {inflight_cap}"
        )
    if batch_size < 1:
        raise SimulationError(f"batch_size must be >= 1, got {batch_size}")
    if adapt not in ("off", "on"):
        raise SimulationError(f"adapt must be 'off' or 'on', got {adapt!r}")
    if shed_bound < 0:
        raise SimulationError(f"shed_bound must be >= 0, got {shed_bound}")
    if (adapt == "on" or shed_bound > 0 or slos) and strategy not in (
        "hypersonic", "state"
    ):
        raise SimulationError(
            "online adaptation, load shedding, and SLO evaluation require "
            f"an agent-chain strategy (hypersonic/state), not {strategy!r}"
        )
    if backend not in ("virtual", "procs"):
        raise SimulationError(
            f"unknown backend {backend!r}; expected 'virtual' or 'procs'"
        )
    if backend == "virtual":
        if procs is not None:
            raise SimulationError(
                "procs is only meaningful with backend='procs'"
            )
        if start_method is not None:
            raise SimulationError(
                "start_method is only meaningful with backend='procs'"
            )
    else:
        if procs is not None and procs < 1:
            raise SimulationError(f"procs must be >= 1, got {procs}")
        if start_method is not None and start_method not in (
            "fork", "spawn", "forkserver"
        ):
            raise SimulationError(
                f"unknown start_method {start_method!r}; expected "
                "'fork', 'spawn', or 'forkserver'"
            )
        if strategy != "hypersonic":
            raise SimulationError(
                "backend='procs' runs the hypersonic agent chain only, "
                f"not {strategy!r}"
            )
        unsupported = []
        if adapt == "on":
            unsupported.append("adapt='on'")
        if shed_bound > 0:
            unsupported.append("shed_bound")
        if slos:
            unsupported.append("slos")
        if fusion or force_fusion_pairs:
            unsupported.append("fusion")
        if agent_dynamic:
            unsupported.append("agent_dynamic")
        if measure_latency:
            unsupported.append("measure_latency")
        if pace is not None:
            unsupported.append("pace")
        if unsupported:
            raise SimulationError(
                "backend='procs' does not support "
                + ", ".join(unsupported)
                + "; these are virtual-clock (planner) features — drop "
                "them or use backend='virtual'"
            )
        return _run_procs(
            pattern, events, num_cores, procs=procs,
            start_method=start_method, batch_size=batch_size,
            costs=costs, tracer=tracer,
        )
    source = as_source(events)
    if inflight_cap is None:
        # Scale channel capacity with the core count so every strategy can
        # keep its units fed; the same cap applies to all strategies.
        inflight_cap = max(64, 24 * num_cores)
    if pace is not None:
        # Explicit open-loop pacing: one paced pass (e.g. a common-arrival-
        # rate latency comparison across strategies) — single-pass sources
        # flow straight through.
        return _run_once(
            strategy, pattern, source, num_cores,
            stats=stats, costs=costs, cache=cache, inflight_cap=inflight_cap,
            chunk_size=chunk_size, allocation=allocation,
            role_dynamic=role_dynamic, agent_dynamic=agent_dynamic,
            fusion=fusion, force_fusion_pairs=force_fusion_pairs, seed=seed,
            pace=pace, tracer=tracer, model_costs=model_costs,
            batch_size=batch_size, adapt=adapt, shed_bound=shed_bound,
            shed_policy=shed_policy, slos=slos,
        )
    if measure_latency and not source.replayable:
        # The latency measurement re-runs the workload; a single-pass
        # source must be pinned once here — the only place the runner
        # ever materializes a stream.
        source = ListSource(list(source))
    capacity = _run_once(
        strategy, pattern, source, num_cores,
        stats=stats, costs=costs, cache=cache, inflight_cap=inflight_cap,
        chunk_size=chunk_size, allocation=allocation,
        role_dynamic=role_dynamic, agent_dynamic=agent_dynamic,
        fusion=fusion, force_fusion_pairs=force_fusion_pairs, seed=seed,
        pace=None, tracer=tracer, model_costs=model_costs,
        batch_size=batch_size, adapt=adapt, shed_bound=shed_bound,
        shed_policy=shed_policy, slos=slos,
    )
    if not measure_latency or capacity.throughput <= 0:
        return capacity
    pace = 1.0 / (latency_load * capacity.throughput)
    paced = _run_once(
        strategy, pattern, source, num_cores,
        stats=stats, costs=costs, cache=cache, inflight_cap=inflight_cap,
        chunk_size=chunk_size, allocation=allocation,
        role_dynamic=role_dynamic, agent_dynamic=agent_dynamic,
        fusion=fusion, force_fusion_pairs=force_fusion_pairs, seed=seed,
        pace=pace, tracer=None, model_costs=model_costs,
        batch_size=batch_size, adapt=adapt, shed_bound=shed_bound,
        shed_policy=shed_policy, slos=slos,
    )
    capacity.avg_latency = paced.avg_latency
    capacity.p95_latency = paced.p95_latency
    capacity.max_latency = paced.max_latency
    capacity.extra["latency_pace"] = pace
    return capacity


def _run_procs(
    pattern: Pattern,
    events: Iterable[Event] | WorkloadSource,
    num_cores: int,
    procs: int | None,
    start_method: str | None,
    batch_size: int,
    costs: CostParameters | None,
    tracer: Tracer | None,
) -> SimResult:
    """Run the wall-clock multiprocessing backend and return its result."""
    from repro.runtime.procs import ProcsPipelineEngine

    engine = ProcsPipelineEngine(
        pattern,
        procs=procs if procs is not None else num_cores,
        start_method=start_method,
        batch_size=batch_size,
        tracer=tracer,
        costs=costs,
    )
    engine.run(as_source(events))
    return engine.result


def _run_once(
    strategy: str,
    pattern: Pattern,
    source: WorkloadSource,
    num_cores: int,
    stats: WorkloadStatistics | None,
    costs: CostParameters | None,
    cache: CacheModel | None,
    inflight_cap: int,
    chunk_size: int,
    allocation: str,
    role_dynamic: bool,
    agent_dynamic: bool,
    fusion: bool,
    force_fusion_pairs: tuple[tuple[int, int], ...],
    seed: int,
    pace: float | None,
    tracer: Tracer | None,
    model_costs: CostParameters | None = None,
    batch_size: int = 1,
    adapt: str = "off",
    shed_bound: int = 0,
    shed_policy: str | None = None,
    slos=None,
) -> SimResult:
    if strategy in ("hypersonic", "state"):
        if strategy == "state":
            num_units = compile_pattern(pattern).num_stages - 1
            config = HypersonicConfig(
                role_dynamic=True,
                agent_dynamic=False,
                allocation="equal",
                seed=seed,
            )
            # The state-based system only ever uses one unit per state, so
            # its channel capacity is sized to those units — extra cores
            # must not change its behaviour (Figure 7 shows it flat in the
            # core count).
            inflight_cap = min(inflight_cap, max(64, 24 * num_units))
        else:
            num_units = num_cores
            config = HypersonicConfig(
                role_dynamic=role_dynamic,
                agent_dynamic=agent_dynamic,
                allocation=allocation,
                fusion=fusion,
                force_fusion_pairs=force_fusion_pairs,
                seed=seed,
            )
        return HypersonicSimulation(
            pattern,
            num_units,
            config=config,
            stats=stats,
            costs=costs,
            cache=cache,
            inflight_cap=inflight_cap,
            strategy_name=strategy,
            pace=pace,
            tracer=tracer,
            model_costs=model_costs,
            batch_size=batch_size,
            adapt=adapt,
            shed_bound=shed_bound,
            shed_policy=shed_policy,
            slos=slos,
        ).run(source)
    if strategy == "sequential":
        engine = SequentialSimEngine(pattern)
    elif strategy == "rip":
        engine = RIPEngine(pattern, num_cores, chunk_size=chunk_size)
    elif strategy == "rr":
        engine = RREngine(pattern, num_cores)
    elif strategy == "jsq":
        engine = JSQEngine(pattern, num_cores)
    else:
        engine = LLSFEngine(pattern, num_cores)
    return PartitionSimulation(
        engine,
        costs=costs,
        cache=cache,
        inflight_cap=inflight_cap,
        strategy_name=strategy,
        pace=pace,
        seed=seed,
        tracer=tracer,
    ).run(source)
