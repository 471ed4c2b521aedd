"""Plain-text table formatting for the benchmark harness.

The paper reports its results as statements rather than numeric tables, so
the benches print small aligned tables/series of the measured quantities next
to the theoretical values; these helpers keep that output uniform and easy to
diff against EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

__all__ = ["format_table"]


def _format_value(value: object, precision: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    precision: int = 4,
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned monospace table.

    Parameters
    ----------
    rows:
        Sequence of mappings; all rows should share (most of) their keys.
    columns:
        Column order; defaults to the keys of the first row.
    precision:
        Number of decimals for floats.
    title:
        Optional title line printed above the table.
    """
    if not rows:
        return (title + "\n" if title else "") + "(no rows)"
    if columns is None:
        columns = list(rows[0].keys())
    rendered: List[List[str]] = [
        [_format_value(row.get(column, ""), precision) for column in columns]
        for row in rows
    ]
    widths = [
        max(len(str(column)), *(len(line[i]) for line in rendered))
        for i, column in enumerate(columns)
    ]
    header = "  ".join(str(column).ljust(widths[i]) for i, column in enumerate(columns))
    separator = "  ".join("-" * widths[i] for i in range(len(columns)))
    body = "\n".join(
        "  ".join(line[i].ljust(widths[i]) for i in range(len(columns)))
        for line in rendered
    )
    parts = []
    if title:
        parts.append(title)
    parts.extend([header, separator, body])
    return "\n".join(parts)

