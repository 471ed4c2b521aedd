"""Sweep grids and result rows.

:meth:`repro.api.Session.sweep` is the one sweep driver.  This module holds
the pieces it assembles a sweep from: the Cartesian grid
(:func:`grid_points`), the per-point row (:func:`merge_point_row`), and the
result table (:class:`SweepResult`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Sequence

__all__ = ["SweepResult", "grid_points", "merge_point_row"]


@dataclass
class SweepResult:
    """The rows produced by a sweep.

    Each row is a flat dict: the sweep parameters plus whatever the
    experiment function returned for that parameter combination.
    """

    rows: List[Dict[str, object]] = field(default_factory=list)

    def column(self, name: str) -> List[object]:
        """Extract one column across all rows (missing values become None)."""
        return [row.get(name) for row in self.rows]

    def filter(self, **criteria: object) -> "SweepResult":
        """Rows whose parameter values match all the given criteria."""
        selected = [
            row
            for row in self.rows
            if all(row.get(key) == value for key, value in criteria.items())
        ]
        return SweepResult(rows=selected)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


def grid_points(parameters: Mapping[str, Sequence[object]]) -> List[Dict[str, object]]:
    """The grid of a sweep: the Cartesian product of the parameter values in
    the given key order, one dict per point."""
    names = list(parameters.keys())
    return [
        dict(zip(names, values))
        for values in itertools.product(*(parameters[name] for name in names))
    ]


def merge_point_row(
    point: Mapping[str, object], measured: Mapping[str, object]
) -> Dict[str, object]:
    """Merge one grid point with the values the experiment measured there.

    A measurement reusing a sweep-parameter name would silently shadow the
    parameter in the row — a programming error worth surfacing loudly — so
    collisions raise ``ValueError`` naming the colliding keys.
    """
    colliding = sorted(set(point) & set(measured))
    if colliding:
        raise ValueError(
            f"experiment returned measurement keys colliding with sweep "
            f"parameters: {', '.join(colliding)}; rename the measurements or "
            "the parameters"
        )
    row: Dict[str, object] = dict(point)
    row.update(measured)
    return row
