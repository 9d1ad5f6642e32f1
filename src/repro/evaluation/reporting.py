"""Plain-text report formatting.

The benchmark harness prints, for every paper table and figure, the same rows
or series the paper reports.  These helpers turn lists of dictionaries into
aligned fixed-width tables so the output is readable in a terminal and easy
to diff across runs.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence, Union

Number = Union[int, float]
Cell = Union[str, Number]


def format_value(value: Cell, precision: int = 4) -> str:
    """Format one cell: floats with fixed precision, everything else as str."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value != 0.0 and abs(value) < 10 ** (-precision):
            return f"{value:.2e}"
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, Cell]],
    columns: Optional[Sequence[str]] = None,
    precision: int = 4,
    title: Optional[str] = None,
) -> str:
    """Render rows of dictionaries as an aligned fixed-width text table."""
    rows = list(rows)
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    headers = list(columns) if columns is not None else list(rows[0].keys())

    rendered: List[List[str]] = [
        [format_value(row.get(column, ""), precision) for column in headers]
        for row in rows
    ]
    widths = [
        max(len(header), *(len(line[index]) for line in rendered))
        for index, header in enumerate(headers)
    ]

    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append("  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for line in rendered:
        lines.append("  ".join(line[i].ljust(widths[i]) for i in range(len(headers))))
    return "\n".join(lines)


def format_measure_series(
    series: Mapping[str, Mapping[str, Number]],
    measures: Sequence[str] = ("recall", "precision", "f1"),
    precision: int = 4,
    title: Optional[str] = None,
) -> str:
    """Render a {label: {measure: value}} mapping as a table (figures' data).

    Used for the bar-chart figures (5, 6, 8, 17): each label becomes a row and
    each measure a column, which is the underlying data the figure plots.
    """
    rows = [
        {"label": label, **{measure: values.get(measure, float("nan")) for measure in measures}}
        for label, values in series.items()
    ]
    return format_table(rows, columns=["label", *measures], precision=precision, title=title)
