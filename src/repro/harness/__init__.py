"""Experiment harness: specs, named experiments, result records, reporting.

Each experiment of DESIGN.md's index (E1–E10) is described by an
:class:`~repro.harness.registry.ExperimentSpec` (typed parameter schema,
presets, seed/engine capabilities) in the module-level
:data:`~repro.harness.registry.REGISTRY`, with its runner function in
:mod:`repro.harness.experiments` producing an
:class:`~repro.harness.results.ExperimentResult`; the harness records the
result rows, the parameters, and the paper's expected shape so
EXPERIMENTS.md can be regenerated mechanically.  Programmatic callers go
through :class:`repro.api.Session` rather than the runner functions.
"""

from repro.harness.registry import (
    REGISTRY,
    ExperimentSpec,
    ParameterSpec,
    ParameterValueError,
    SpecValidationError,
    UnknownParameterError,
)
from repro.harness.results import ExperimentResult
from repro.harness.reporting import render_experiment, write_json, load_json

__all__ = [
    "REGISTRY",
    "ExperimentResult",
    "ExperimentSpec",
    "ParameterSpec",
    "ParameterValueError",
    "SpecValidationError",
    "UnknownParameterError",
    "render_experiment",
    "write_json",
    "load_json",
]
