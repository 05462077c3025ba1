"""Compare two sets of benchmark results: ``python -m perf.compare A B``.

``A`` (the baseline) and ``B`` are each a result file written by ``python
-m perf`` (``<workload>.json``) or a directory searched recursively for
them, so a side may hold several runs of a workload (other seeds, or the
same seed again).  For every (metric, workload) pair it prints both
medians over the runs, the relative change, the run-to-run spread of
each side, the metric's bound and a verdict:

``ok``          B's median is not worse than A's by more than the bound;
``REGRESSED``   B's median is worse than A's by more than the bound;
``unresolved``  B is within the bound, but the runs of A or of B spread
                wider than the bound (interquartile range over median),
                and not every run of B reads better than every run of A.

The spread is that of the reported values across runs, the quantity the
bound is about; with a single run on a side it is unknown and shown as
``n/a``.  It also prints each side's failed runs.  The two sides must
have measured the same inputs: for each workload the sets of input
fingerprints must be equal, otherwise the comparison is refused.

Exit status: 0 when every pair is ``ok``, 1 on a regression or a rise in
the failed share of runs, 3 when nothing regressed but some pair is
unresolved, 2 when the comparison is refused.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

__all__ = ["load", "verdict", "compare", "main"]

REGRESSED = 1
REFUSED = 2
UNRESOLVED = 3


def load(path: Path) -> dict[str, list[dict]]:
    """Runs by workload from a result file or a directory tree of them."""
    files = [path] if path.is_file() else sorted(
        p for p in path.rglob("*.json") if not p.name.endswith(".trace.json")
    )
    results: dict[str, list[dict]] = {}
    for file in files:
        result = json.loads(file.read_text())
        results.setdefault(result["workload"], []).append(result)
    return results


def spread(values: list[float]) -> float | None:
    """Interquartile range over median, or None for fewer than two runs."""
    if len(values) < 2:
        return None
    low, _, high = statistics.quantiles(values, n=4)
    return (high - low) / statistics.median(values)


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> tuple[float, str]:
    """Relative change of B's median against A's, and the verdict."""
    base_median = statistics.median(base)
    change = (statistics.median(new) - base_median) / base_median
    worse = -change if better == "higher" else change
    if worse > bound:
        return change, "REGRESSED"
    noisy = any(s is not None and s > bound
                for s in (spread(base), spread(new)))
    if better == "higher":
        every_run_better = min(new) > max(base)
    else:
        every_run_better = max(new) < min(base)
    if noisy and not every_run_better:
        return change, "unresolved"
    return change, "ok"


class Refused(Exception):
    """The two sides cannot be compared."""


def _fmt(value: float) -> str:
    return f"{value:12.5g}"


def _fmt_spread(value: float | None) -> str:
    return f"{'n/a':>6s}" if value is None else f"{value:6.3f}"


def compare(base: dict[str, list[dict]],
            new: dict[str, list[dict]]) -> tuple[list[str], int]:
    """Report lines and the exit status (see the module docstring)."""
    lines = [f"{'workload':16s} {'metric':16s} {'A':>12s} {'B':>12s} "
             f"{'change':>8s} {'sprd A':>6s} {'sprd B':>6s} {'bound':>6s}"
             f"  verdict"]
    regressed = unresolved = False
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            lines.append(f"{workload:16s} only in "
                         f"{'A' if workload in base else 'B'}")
            continue
        a_runs, b_runs = base[workload], new[workload]
        a_inputs = {run["fingerprint"] for run in a_runs}
        b_inputs = {run["fingerprint"] for run in b_runs}
        if a_inputs != b_inputs:
            raise Refused(
                f"{workload}: inputs differ (seeds "
                f"{sorted({run['seed'] for run in a_runs})} vs "
                f"{sorted({run['seed'] for run in b_runs})}, "
                f"{len(a_inputs ^ b_inputs)} fingerprints on one side only)"
            )
        for metric, entry in a_runs[0]["metrics"].items():
            a = [run["metrics"][metric]["value"] for run in a_runs]
            b = [run["metrics"][metric]["value"] for run in b_runs]
            if None in a or None in b:  # every run of an engine failed
                lines.append(f"{workload:16s} {metric:16s} missing")
                continue
            change, status = verdict(a, b, entry["better"], entry["bound"])
            regressed |= status == "REGRESSED"
            unresolved |= status == "unresolved"
            lines.append(
                f"{workload:16s} {metric:16s} {_fmt(statistics.median(a))} "
                f"{_fmt(statistics.median(b))} {change:+8.1%} "
                f"{_fmt_spread(spread(a))} {_fmt_spread(spread(b))} "
                f"{entry['bound']:6.0%}  {status}"
            )
        a_failed = sum(run["failed"] for run in a_runs)
        a_tried = sum(run["attempted"] for run in a_runs)
        b_failed = sum(run["failed"] for run in b_runs)
        b_tried = sum(run["attempted"] for run in b_runs)
        lines.append(
            f"{workload:16s} {'failed runs':16s} {a_failed:>5d}/{a_tried:<6d}"
            f" {b_failed:>5d}/{b_tried:<6d} ({len(a_runs)} vs {len(b_runs)}"
            f" benchmark runs)"
        )
        regressed |= b_failed / b_tried > a_failed / a_tried
    if regressed:
        return lines, REGRESSED
    return lines, UNRESOLVED if unresolved else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf.compare",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("baseline", type=Path)
    parser.add_argument("candidate", type=Path)
    args = parser.parse_args(argv)
    try:
        lines, status = compare(load(args.baseline), load(args.candidate))
    except Refused as error:
        print(f"refused: {error}", file=sys.stderr)
        return REFUSED
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
