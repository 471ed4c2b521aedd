"""Measurement utilities: violation metrics, log* helpers, growth fits,
sweep result tables, and plain-text table formatting for the benches.

Confidence intervals live in :mod:`repro.stats`."""

from repro.analysis.metrics import (
    fraction_bad_nodes,
    conflicting_edges,
    color_count,
    independent_set_size,
    matching_size,
    dominating_set_size,
)
from repro.analysis.logstar import log_star, iterated_log, cole_vishkin_round_bound
from repro.analysis.growth import (
    GrowthFit,
    fit_growth,
    classify_growth,
    grows_no_faster_than,
    GROWTH_ORDER,
)
from repro.analysis.sweep import SweepResult
from repro.analysis.tables import format_table, format_series

__all__ = [
    "fraction_bad_nodes",
    "conflicting_edges",
    "color_count",
    "independent_set_size",
    "matching_size",
    "dominating_set_size",
    "log_star",
    "iterated_log",
    "cole_vishkin_round_bound",
    "GrowthFit",
    "fit_growth",
    "classify_growth",
    "grows_no_faster_than",
    "GROWTH_ORDER",
    "SweepResult",
    "format_table",
    "format_series",
]
