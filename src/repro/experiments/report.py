"""Plain-text reporting of experiment results.

The two renderers every table of :mod:`repro.experiments.registry` is
built from: the rows with chosen columns (:func:`format_table`) and one
metric pivoted into the series the paper plots (:func:`series_table`),
both as fixed-width text — the archives under ``benchmarks/results/``
that EXPERIMENTS.md quotes.
"""

from __future__ import annotations

from typing import List, Sequence

from .harness import ExperimentResult


def format_value(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.3f}"
    if isinstance(value, int) and abs(value) >= 1000:
        return f"{value:,}"
    return str(value)


def format_table(headers: Sequence[str], rows: Sequence[Sequence]) -> str:
    """Fixed-width table with a header rule."""
    cells = [[format_value(v) for v in row] for row in rows]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in cells))
        if cells
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    def line(values: Sequence[str]) -> str:
        return "  ".join(str(v).rjust(w) for v, w in zip(values, widths))

    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(r) for r in cells)
    return "\n".join(out)


def series_table(
    result: ExperimentResult,
    x_key: str,
    series_key: str,
    value_key: str,
) -> str:
    """Pivot rows into an ``x`` column plus one column per series — the
    shape of the paper's line plots."""
    xs: List = []
    for row in result.rows:
        if row[x_key] not in xs:
            xs.append(row[x_key])
    names: List = []
    for row in result.rows:
        if row[series_key] not in names:
            names.append(row[series_key])
    lookup = {
        (row[x_key], row[series_key]): row.get(value_key, "") for row in result.rows
    }
    headers = [x_key] + [str(n) for n in names]
    body = [[x] + [lookup.get((x, n), "") for n in names] for x in xs]
    return format_table(headers, body)
