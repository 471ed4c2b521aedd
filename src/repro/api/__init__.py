"""repro.api — the programmatic surface of the reproduction harness.

The facade every caller (the CLI included) goes through:

* :class:`Session` — fixes seed / engine / cache / worker count once, then
  runs single experiments, selections, and first-class parameter sweeps;
* :class:`RunRequest` / :class:`RunReport` — declarative request in,
  provenance-carrying report out (result, cache hit, cache path, duration);
* execution backends — :class:`InlineBackend` (in-process, the default)
  and :class:`ProcessPoolBackend` (worker processes via
  :func:`repro.engine.parallel.imap`, picked by ``parallel=N`` for N > 1),
  each one ``execute(groups)`` method yielding results in submission
  order;
* the spec registry re-exports — :data:`REGISTRY`,
  :class:`~repro.harness.registry.ExperimentSpec`, and the validation
  errors, so ``import repro.api`` is a one-stop import;
* :mod:`repro.api.wire` — the versioned wire format every process and
  network boundary speaks (the service protocol and its journal);
* :class:`Client` — the same surface over HTTP against a running
  ``repro serve`` service (submit / stream / wait / result), bit-identical
  to an inline session at the same seed.  ``Client`` and ``RemoteJob`` are
  loaded on first access, so importing the package for a :class:`Session`
  loads no HTTP client stack.

Quickstart
----------
>>> from repro.api import Session
>>> session = Session(seed=0, engine="auto", cache=None)
>>> report = session.run("E5", preset="quick")            # doctest: +SKIP
>>> [r.ok for r in session.run_all(preset="quick")]       # doctest: +SKIP
[True, True, True, True, True, True, True, True, True, True]
>>> sweep = session.sweep("E5", {"f_values": [[1], [2]]}, preset="quick")
...                                                       # doctest: +SKIP
"""

from typing import TYPE_CHECKING

from repro.api.backends import (
    ExecutionBackend,
    InlineBackend,
    ProcessPoolBackend,
    resolve_backend,
)
from repro.api.session import (
    PRESET_FULL,
    PRESET_QUICK,
    ProgressCallback,
    ProgressEvent,
    RunReport,
    RunRequest,
    Session,
    SweepReport,
)
from repro.harness.registry import (
    REGISTRY,
    ExperimentRegistry,
    ExperimentSpec,
    ParameterSpec,
    ParameterValueError,
    SpecValidationError,
    UnknownParameterError,
)

if TYPE_CHECKING:
    from repro.api.client import Client, RemoteJob

__all__ = [
    "PRESET_FULL",
    "PRESET_QUICK",
    "REGISTRY",
    "Client",
    "ExecutionBackend",
    "ExperimentRegistry",
    "ExperimentSpec",
    "InlineBackend",
    "ParameterSpec",
    "ParameterValueError",
    "ProcessPoolBackend",
    "ProgressCallback",
    "ProgressEvent",
    "RemoteJob",
    "RunReport",
    "RunRequest",
    "Session",
    "SpecValidationError",
    "SweepReport",
    "UnknownParameterError",
    "resolve_backend",
]


def __getattr__(name: str) -> object:
    """Load :class:`Client` and :class:`RemoteJob` on first access (PEP 562)."""
    if name in ("Client", "RemoteJob"):
        from repro.api import client

        return getattr(client, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
