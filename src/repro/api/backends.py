"""Pluggable execution backends for the :class:`repro.api.Session` facade.

A backend receives **groups of request payloads** — lists of the
JSON-shaped dicts produced by :meth:`repro.api.RunRequest.to_payload` — and
yields :class:`~repro.harness.results.ExperimentResult` objects **in
submission order**, flattened across groups.  A group of two or more
payloads runs under one :func:`~repro.engine.fusion.fusion_scope` (the
points of a fused sweep); a one-payload group runs plainly, which is how
every ordinary request arrives.  The facade owns everything else (spec
resolution, cache probes and writes, progress events); backends own only
*where and how* the experiment functions execute:

:class:`InlineBackend`
    In the calling process, one group at a time, lazily — the default.
:class:`ProcessPoolBackend`
    Over a ``ProcessPoolExecutor``, via :func:`repro.engine.parallel.imap`,
    one task per group; all groups are submitted eagerly and results stream
    back in submission order.  A session with ``parallel=N`` for N > 1
    runs on one with N workers.

Because payloads are plain JSON-able dicts and the worker entry points
(:func:`execute_payload` per request, :func:`execute_group_payload` per
group) resolve experiments through the registry by id, any group can be
shipped to another process without pickling closures.  The experiment
service (:mod:`repro.service`) runs :func:`execute_payload` behind the
:mod:`repro.api.wire` records.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from typing import Dict, Iterator, List, Optional, Sequence

from repro.engine.fusion import fusion_scope
from repro.engine.parallel import imap
from repro.harness.results import ExperimentResult
from repro.obs import TraceRecorder, get_recorder, use_recorder

__all__ = [
    "ExecutionBackend",
    "InlineBackend",
    "ProcessPoolBackend",
    "resolve_backend",
    "execute_payload",
    "execute_group_payload",
]

#: One group of request payloads (see the module docstring).
Group = Sequence[Dict[str, object]]


def execute_payload(payload: Dict[str, object], registry=None) -> Dict[str, object]:
    """Run one request payload.

    Top-level (hence picklable), resolves the experiment by id through
    ``registry`` (the shipped :data:`~repro.harness.registry.REGISTRY` when
    ``None`` — the only resolvable registry inside a fresh worker process),
    and returns the result as a plain dict so the transport back from a
    worker is pickle-of-JSON-able data, never live objects.
    """
    if registry is None:
        from repro.harness.registry import REGISTRY as registry

    spec = registry[str(payload["experiment_id"])]
    return spec.run(payload.get("parameters", {})).to_dict()


def execute_group_payload(payloads: Group, registry=None) -> List[Dict[str, object]]:
    """Run one group's payloads in submission order; the entry point of
    every backend (top-level, picklable).

    A group of two or more shares one
    :class:`~repro.engine.fusion.FusionContext`; a one-payload group skips
    it — there is nothing to share, and the plain path is what a group is
    bit-identical to anyway.
    """
    scope = fusion_scope(points=len(payloads)) if len(payloads) > 1 else nullcontext()
    with scope:
        return [execute_payload(payload, registry) for payload in payloads]


def _result_from(record: Dict[str, object]) -> ExperimentResult:
    return ExperimentResult.from_dict(record)


def _first_id(payloads: Group) -> Optional[str]:
    return str(payloads[0].get("experiment_id")) if payloads else None


def _traced_execute_group(item: Dict[str, object]) -> Dict[str, object]:
    """Worker entry point of the telemetry path (top-level, picklable).

    Runs one group under a fresh in-process :class:`TraceRecorder` and ships
    the export back next to the records — the worker-side half of the
    cross-process merge contract (a fused group's ``engine.fuse_group`` span
    and hit/miss tallies ride back inside it).  ``queue_wait_seconds`` is
    the wall time between the parent stamping the item at submission and
    the worker starting it (same-host clocks; clamped at zero against skew).
    """
    payloads: Group = item["payloads"]  # type: ignore[assignment]
    queue_wait = max(0.0, time.time() - float(item["submitted_at"]))
    recorder = TraceRecorder()
    with use_recorder(recorder):
        with recorder.span(
            "backend.worker",
            experiment_id=_first_id(payloads),
            pid=os.getpid(),
            points=len(payloads),
            queue_wait_seconds=round(queue_wait, 6),
        ):
            records = execute_group_payload(payloads)
    return {
        "records": records,
        "telemetry": recorder.export(),
        "queue_wait_seconds": queue_wait,
    }


class ExecutionBackend:
    """Interface: run groups of payloads, yield results in submission order.

    ``registry`` lets a session execute against a custom spec registry; the
    ``process-pool`` backend rejects any other than the shipped one because
    a worker process can only resolve ids through the importable global
    registry.
    """

    name = "abstract"

    def execute(self, groups: Sequence[Group], registry=None) -> Iterator[ExperimentResult]:
        raise NotImplementedError


class InlineBackend(ExecutionBackend):
    """Serial in-process execution (the default).

    Lazy across groups: nothing runs until the next result is asked for.
    Eager within a group: the fusion context must not stay installed across
    yields (a generator's ContextVar writes leak into the consumer between
    ``next()`` calls), so a group runs to completion under its scope and
    its results stream out after."""

    name = "inline"

    def execute(self, groups: Sequence[Group], registry=None) -> Iterator[ExperimentResult]:
        recorder = get_recorder()
        for payloads in groups:
            with recorder.span(
                "backend.task",
                backend=self.name,
                experiment_id=_first_id(payloads),
                points=len(payloads),
            ):
                records = execute_group_payload(payloads, registry)
            yield from map(_result_from, records)


class ProcessPoolBackend(ExecutionBackend):
    """Fan groups out over worker processes, one task per group.

    Built on :func:`repro.engine.parallel.imap`: submission is eager,
    results stream back in submission order, and a pool is created per batch
    so the backend object itself stays picklable and stateless.  Fusion
    happens inside the worker (a shared matrix cannot cross process
    boundaries).
    """

    name = "process-pool"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive (or None for one per CPU)")
        self.max_workers = max_workers

    def execute(self, groups: Sequence[Group], registry=None) -> Iterator[ExperimentResult]:
        # A registry instance cannot be shipped to the workers — a fresh
        # process resolves payload ids through the importable global registry
        # only.  Running a *custom* registry here would silently execute the
        # wrong runners, so it is rejected up front.
        if registry is not None:
            from repro.harness.registry import REGISTRY

            if registry is not REGISTRY:
                raise ValueError(
                    "the process-pool backend resolves experiment ids through the "
                    "shipped repro.harness.registry.REGISTRY inside its worker "
                    "processes; use the inline backend with a custom registry"
                )
        recorder = get_recorder()
        tasks = [list(payloads) for payloads in groups]
        if not recorder.active:
            for records in imap(execute_group_payload, tasks, self.max_workers):
                yield from map(_result_from, records)
            return
        # Telemetry path: each worker runs under its own TraceRecorder and
        # ships the export back with the records; the parent re-attaches it
        # under a per-task span, in submission order, so the merged trace
        # reads like one process (queue wait vs compute split out).
        items = [{"payloads": payloads, "submitted_at": time.time()} for payloads in tasks]
        for item, wrapped in zip(items, imap(_traced_execute_group, items, self.max_workers)):
            telemetry: Dict[str, object] = wrapped["telemetry"]  # type: ignore[assignment]
            worker_spans = telemetry.get("spans") or []
            compute = worker_spans[0].get("wall_seconds", 0.0) if worker_spans else 0.0
            with recorder.span(
                "backend.task",
                backend=self.name,
                experiment_id=_first_id(item["payloads"]),
                points=len(item["payloads"]),
                queue_wait_seconds=round(float(wrapped["queue_wait_seconds"]), 6),
                compute_seconds=round(float(compute), 6),
            ):
                recorder.merge(telemetry)
            yield from map(_result_from, wrapped["records"])


def resolve_backend(
    backend: Optional[ExecutionBackend] = None,
    parallel: Optional[int] = None,
) -> ExecutionBackend:
    """The backend a session runs on.

    An :class:`ExecutionBackend` instance passes through untouched; ``None``
    picks a :class:`ProcessPoolBackend` with ``parallel`` workers when
    ``parallel`` asks for more than one, and an :class:`InlineBackend`
    otherwise.  A worker count below 1 raises ``ValueError``; any other
    ``backend`` raises ``TypeError``.
    """
    if parallel is not None and parallel < 1:
        raise ValueError(f"parallel must be a positive worker count; got {parallel}")
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is not None:
        raise TypeError(
            f"backend must be an ExecutionBackend instance or None; got {backend!r} "
            "(use parallel=N to run on N worker processes)"
        )
    if parallel is not None and parallel > 1:
        return ProcessPoolBackend(max_workers=parallel)
    return InlineBackend()
