"""Growth-shape classification for round-complexity measurements.

The lower/upper bound claims reproduced by the harness are about *growth
shapes*: Cole–Vishkin's rounds grow like log* n (E4), Luby's like log n
(E10), and a hypothetical constant-round algorithm would not grow at all.
This module fits a small family of candidate shapes to a measured series by
least squares on the scaled candidates and reports which candidate explains
the data best — a deliberately simple procedure (the series have a handful of
points), but one that makes statements like "grows no faster than log*"
checkable rather than eyeballed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.analysis.logstar import log_star

__all__ = ["GrowthFit", "fit_growth", "classify_growth", "grows_no_faster_than"]

#: The candidate shapes, as functions of n (all return ≥ 0 for n ≥ 1).
_CANDIDATES = {
    "constant": lambda n: 1.0,
    "log_star": lambda n: float(log_star(max(2, int(n)))),
    "log": lambda n: math.log2(max(2, n)),
    "sqrt": lambda n: math.sqrt(n),
    "linear": lambda n: float(n),
}

#: Ordering of the candidates from slowest to fastest growth, used by
#: :func:`grows_no_faster_than`.
GROWTH_ORDER = ["constant", "log_star", "log", "sqrt", "linear"]


@dataclass(frozen=True)
class GrowthFit:
    """Result of fitting one candidate shape ``y ≈ a·g(n) + b``."""

    shape: str
    scale: float
    offset: float
    residual: float

    def predict(self, n: float) -> float:
        return self.scale * _CANDIDATES[self.shape](n) + self.offset


def fit_growth(ns: Sequence[float], ys: Sequence[float]) -> Dict[str, GrowthFit]:
    """Least-squares fit of every candidate shape to the series.

    Returns a mapping shape name -> :class:`GrowthFit`; the residual is the
    root-mean-square error of the fit, which :func:`classify_growth` uses to
    pick the best shape.
    """
    if len(ns) != len(ys):
        raise ValueError("ns and ys must have the same length")
    if len(ns) < 3:
        raise ValueError("need at least three points to compare growth shapes")
    if any(n <= 0 for n in ns):
        raise ValueError("sizes must be positive")
    ys_array = np.asarray(list(ys), dtype=float)
    fits: Dict[str, GrowthFit] = {}
    for shape, function in _CANDIDATES.items():
        features = np.asarray([function(n) for n in ns], dtype=float)
        design = np.vstack([features, np.ones_like(features)]).T
        coefficients, *_ = np.linalg.lstsq(design, ys_array, rcond=None)
        scale, offset = float(coefficients[0]), float(coefficients[1])
        predictions = design @ coefficients
        residual = float(np.sqrt(np.mean((predictions - ys_array) ** 2)))
        fits[shape] = GrowthFit(shape=shape, scale=scale, offset=offset, residual=residual)
    return fits


def classify_growth(ns: Sequence[float], ys: Sequence[float]) -> str:
    """Name of the candidate shape with the smallest fit residual.

    Ties (within 1e-9) are broken in favour of the *slower*-growing shape, so
    a perfectly constant series classifies as "constant" rather than as a
    zero-scale linear fit.
    """
    fits = fit_growth(ns, ys)
    best_shape = None
    best_residual = math.inf
    for shape in GROWTH_ORDER:
        residual = fits[shape].residual
        if residual < best_residual - 1e-9:
            best_residual = residual
            best_shape = shape
    assert best_shape is not None
    return best_shape


def grows_no_faster_than(ns: Sequence[float], ys: Sequence[float], shape: str) -> bool:
    """Whether the measured series grows no faster than the given shape.

    True when the best-fitting candidate is the given shape or any slower one
    in :data:`GROWTH_ORDER`.  This is the checkable form of statements such
    as "the measured Cole–Vishkin rounds grow no faster than log* n".
    """
    if shape not in _CANDIDATES:
        raise ValueError(f"unknown shape {shape!r}; choose from {GROWTH_ORDER}")
    best = classify_growth(ns, ys)
    return GROWTH_ORDER.index(best) <= GROWTH_ORDER.index(shape)
