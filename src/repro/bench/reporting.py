"""Plain-text rendering of figure/table reproductions.

The paper's evaluation figures are line charts (series per strategy over a
swept parameter).  The benchmark harness reproduces each as a text table:
one row per series, one column per x value — the same rows/series the
paper plots, directly comparable by shape.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["format_series_table"]


def _format_value(value: float, digits: int = 3) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 10_000 or abs(value) < 0.01:
        return f"{value:.2e}"
    return f"{value:.{digits}g}"


def format_series_table(
    title: str,
    xlabel: str,
    xvalues: Sequence[object],
    series: Mapping[str, Sequence[float]],
    unit: str = "",
) -> str:
    """Render one figure panel as a text table.

    ``series`` maps a strategy name to its y-values, one per x value.
    """
    header = [xlabel] + [str(x) for x in xvalues]
    rows = [header]
    for name, values in series.items():
        if len(values) != len(xvalues):
            raise ValueError(
                f"series {name!r} has {len(values)} values for "
                f"{len(xvalues)} x points"
            )
        rows.append([name] + [_format_value(v) for v in values])
    widths = [
        max(len(row[column]) for row in rows) for column in range(len(header))
    ]
    lines = [title + (f"  [{unit}]" if unit else "")]
    lines.append("-" * len(lines[0]))
    for index, row in enumerate(rows):
        lines.append(
            "  ".join(cell.rjust(width) for cell, width in zip(row, widths))
        )
        if index == 0:
            lines.append(
                "  ".join("-" * width for width in widths)
            )
    return "\n".join(lines)

