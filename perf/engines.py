"""The six engine configurations the benchmark times.

Each runner takes ``(pattern, events)`` and returns ``(found, info)``:
``found`` is the resolved match list, or the match count for the
simulator, whose result carries only the count; ``info`` holds the
engine's own counters for the per-layer table.
"""

from __future__ import annotations

from typing import Callable

from repro.bench.harness import default_cache, default_costs
from repro.core import policies
from repro.engine import SequentialEngine
from repro.hypersonic.engine import HypersonicEngine
from repro.runtime.procs import ProcsPipelineEngine, agent_slices
from repro.simulator.runner import simulate

__all__ = ["ENGINES", "RUN_TIMEOUT_S", "UNITS", "PROCS"]

#: Execution units of the in-process hybrid engine and the simulator.
UNITS = 8
#: Worker processes of the procs backend: one per core of a 2-core host.
PROCS = 2
#: Longest a single engine run may take before it counts as failed: ten
#: times the slowest normal run, and short enough that a round of timed
#: and traced runs that all hang still ends within three minutes.
RUN_TIMEOUT_S = 10.0


def run_seq(pattern, events):
    engine = SequentialEngine(pattern)
    found = []
    for event in events:
        found.extend(engine.process(event))
    found.extend(engine.close())
    # Looked up on the module so a traced run sees the wrapped function.
    matches = policies.resolve_matches(pattern, found)
    return matches, {"peak_partial_matches": engine.stats.peak_partial_matches}


def run_hybrid(pattern, events):
    engine = HypersonicEngine(pattern, UNITS)
    matches = engine.run(events)
    return matches, {
        "agent_items": sum(engine.metrics.per_agent_items),
        "peak_buffered_items": engine.metrics.peak_buffered_items,
    }


def _procs(batch_size: int):
    def run(pattern, events):
        engine = ProcsPipelineEngine(pattern, procs=PROCS,
                                     batch_size=batch_size)
        matches = engine.run(events, timeout=RUN_TIMEOUT_S)
        result = engine.result
        wall = max(result.total_time, 1e-9)
        shares = [
            sum(result.unit_busy[lo:hi]) / wall
            for lo, hi in agent_slices(engine.num_agents, engine.procs)
        ]
        comm = result.extra["comm"]
        return matches, {
            "busiest_worker_share": max(shares),
            "idlest_worker_share": min(shares),
            "events_in": sum(comm["events_in"]),
            "match_pointers_out": sum(comm["match_pointers_out"]),
        }
    return run


def _sim(batch_size: int):
    def run(pattern, events):
        result = simulate(
            "hypersonic", pattern, events, num_cores=UNITS,
            agent_dynamic=True, batch_size=batch_size,
            costs=default_costs(), cache=default_cache(),
        )
        return result.matches, {"virtual_eps": result.throughput}
    return run


#: engine name -> runner; ``<name>_eps`` is the engine's end-to-end metric.
ENGINES: dict[str, Callable] = {
    "seq": run_seq,
    "hybrid": run_hybrid,
    "procs": _procs(1),
    "procs_b64": _procs(64),
    "sim": _sim(1),
    "sim_b64": _sim(64),
}
