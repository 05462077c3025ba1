"""Smart-home activity monitoring with negation, on real processes.

Run:  python examples/smart_home.py

Uses the sensor dataset to express a safety rule in the paper's sensor-
query style: "the resident started cooking and then settled in to relax,
moving away from the kitchen, WITHOUT a washing activity in between" —
a sequence with an internal negation (Table 2's Q_B3 shape).

The detection runs three ways — sequential baseline, the hybrid engine's
deterministic driver, and the multiprocessing pipeline runtime — and
checks all three agree.
"""

from __future__ import annotations

import time

from repro.datasets import SensorConfig, generate_sensor_stream
from repro.engine import assert_equivalent, detect
from repro.hypersonic import HypersonicEngine
from repro.runtime import ProcsPipelineEngine
from repro.workloads import sensor_negation_query


def main() -> None:
    config = SensorConfig(num_events=3000, rates=0.8, seed=23)
    events = generate_sensor_stream(config)
    print(
        f"generated {len(events)} sensor readings "
        f"({len(events[0].attributes)} attributes each, as in the paper's "
        "smart-home dataset)"
    )

    spec = sensor_negation_query(
        ["cooking", "washing", "relaxing"],
        window=30.0,
        sample=events[:2000],
        negated_position=1,
        selectivity=0.35,
        zone="kitchen",
    )
    print(f"query: {spec.pattern.describe()}")
    print(f"calibrated distance margin: {spec.thresholds[0]:.2f}")

    started = time.perf_counter()
    reference = detect(spec.pattern, events)
    sequential_seconds = time.perf_counter() - started
    print(
        f"\nsequential engine: {len(reference)} matches "
        f"in {sequential_seconds * 1000:.0f} ms"
    )

    hybrid = HypersonicEngine(spec.pattern, num_units=4).run(events)
    assert_equivalent(reference, hybrid, "hybrid")
    print("hybrid engine: identical match set (deterministic driver)")

    started = time.perf_counter()
    procs = ProcsPipelineEngine(spec.pattern, procs=2).run(events)
    procs_seconds = time.perf_counter() - started
    assert_equivalent(reference, procs, "procs")
    print(
        f"procs pipeline: identical match set in "
        f"{procs_seconds * 1000:.0f} ms "
        "(agents on worker processes; this query has one agent, so one "
        "worker runs it)"
    )

    if reference:
        sample = reference[0]
        print("\nexample violation window:")
        print(
            f"  cooking at t={sample['p1'].timestamp:.1f} "
            f"(kitchen distance {sample['p1']['distance_kitchen']:.1f})"
        )
        print(
            f"  relaxing at t={sample['p3'].timestamp:.1f} "
            f"(kitchen distance {sample['p3']['distance_kitchen']:.1f}) "
            "with no washing in between"
        )


if __name__ == "__main__":
    main()
