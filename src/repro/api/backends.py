"""Pluggable execution backends for the :class:`repro.api.Session` facade.

A backend receives **request payloads** — the JSON-shaped dicts produced by
:meth:`repro.api.RunRequest.to_payload` — and yields
:class:`~repro.harness.results.ExperimentResult` objects **in submission
order**.  The facade owns everything else (spec resolution, cache probes and
writes, progress events); backends own only *where and how* the experiment
functions execute:

``inline``
    In the calling process, one request at a time, lazily — the default.
``process-pool``
    Over a ``ProcessPoolExecutor``, via :func:`repro.engine.parallel.imap`;
    all requests are submitted eagerly and results stream back in
    submission order.

Because payloads are plain JSON-able dicts and the worker entry point
(:func:`execute_payload`) resolves experiments through the registry by id,
any payload can be shipped to another process without pickling closures.
The experiment service (:mod:`repro.service`) runs the same entry point
behind the :mod:`repro.api.wire` records.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Iterator, Optional, Sequence, Union

from repro.engine.fusion import fusion_scope
from repro.engine.parallel import imap
from repro.harness.results import ExperimentResult
from repro.obs import TraceRecorder, get_recorder, use_recorder

__all__ = [
    "ExecutionBackend",
    "InlineBackend",
    "ProcessPoolBackend",
    "BACKEND_CHOICES",
    "resolve_backend",
    "execute_payload",
    "execute_group_payload",
]


def execute_payload(payload: Dict[str, object], registry=None) -> Dict[str, object]:
    """Run one request payload; the worker entry point of every backend.

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


def execute_group_payload(
    payloads: Sequence[Dict[str, object]], registry=None
) -> list:
    """Run one fusion group's payloads in submission order under a shared
    :class:`~repro.engine.fusion.FusionContext` (top-level, picklable — the
    worker entry point of grouped execution).

    Singleton groups skip the context: there is nothing to share, and the
    plain path is what the group would be bit-identical to anyway.
    """
    if len(payloads) <= 1:
        return [execute_payload(payload, registry) for payload in payloads]
    with fusion_scope(points=len(payloads)):
        return [execute_payload(payload, registry) for payload in payloads]


def _result_from(record: Dict[str, object]) -> ExperimentResult:
    return ExperimentResult.from_dict(record)


def _traced_execute_payload(item: Dict[str, object]) -> Dict[str, object]:
    """Worker entry point of the telemetry path (top-level, picklable).

    Runs the payload under a fresh in-process :class:`TraceRecorder` and
    ships the export back next to the result — the worker-side half of the
    cross-process merge contract.  ``queue_wait_seconds`` is the wall time
    between the parent stamping the item at submission and the worker
    starting it (same-host clocks; clamped at zero against skew).
    """
    payload: Dict[str, object] = item["payload"]  # type: ignore[assignment]
    queue_wait = max(0.0, time.time() - float(item["submitted_at"]))
    recorder = TraceRecorder()
    with use_recorder(recorder):
        with recorder.span(
            "backend.worker",
            experiment_id=str(payload.get("experiment_id")),
            pid=os.getpid(),
            queue_wait_seconds=round(queue_wait, 6),
        ):
            record = execute_payload(payload)
    return {
        "record": record,
        "telemetry": recorder.export(),
        "queue_wait_seconds": queue_wait,
    }


def _traced_execute_group(item: Dict[str, object]) -> Dict[str, object]:
    """Grouped counterpart of :func:`_traced_execute_payload`: runs one
    fusion group under a fresh worker recorder (the ``engine.fuse_group``
    span and its hit/miss tallies ride back inside the export)."""
    payloads: Sequence[Dict[str, object]] = item["payloads"]  # type: ignore[assignment]
    queue_wait = max(0.0, time.time() - float(item["submitted_at"]))
    recorder = TraceRecorder()
    with use_recorder(recorder):
        with recorder.span(
            "backend.worker",
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
    """Interface: run payloads, yield results in submission order.

    ``registry`` lets a session execute against a custom spec registry; the
    ``process-pool`` backend ignores it because a worker process can only
    resolve ids through the importable global registry.
    """

    name = "abstract"

    def execute(
        self, payloads: Sequence[Dict[str, object]], registry=None
    ) -> Iterator[ExperimentResult]:
        raise NotImplementedError

    def execute_grouped(
        self,
        groups: Sequence[Sequence[Dict[str, object]]],
        registry=None,
    ) -> Iterator[ExperimentResult]:
        """Execute fusion groups, yielding results flattened in group order
        (submission order within each group).

        The base implementation runs each group through :meth:`execute`
        with no shared context — correct for every backend (fusion shares
        work, never randomness), so backends unaware of fusion keep working;
        the inline and process-pool backends override this to install a
        :class:`~repro.engine.fusion.FusionContext` per group.
        """
        for payloads in groups:
            yield from self.execute(payloads, registry)


class InlineBackend(ExecutionBackend):
    """Serial in-process execution (the default)."""

    name = "inline"

    def execute(
        self, payloads: Sequence[Dict[str, object]], registry=None
    ) -> Iterator[ExperimentResult]:
        recorder = get_recorder()
        for payload in payloads:
            with recorder.span(
                "backend.task",
                backend=self.name,
                experiment_id=str(payload.get("experiment_id")),
            ):
                record = execute_payload(payload, registry)
            yield _result_from(record)

    def execute_grouped(
        self,
        groups: Sequence[Sequence[Dict[str, object]]],
        registry=None,
    ) -> Iterator[ExperimentResult]:
        recorder = get_recorder()
        for payloads in groups:
            if len(payloads) <= 1:
                yield from self.execute(payloads, registry)
                continue
            # Eager within the group: the fusion context must not stay
            # installed across yields (a generator's ContextVar writes leak
            # into the consumer between next() calls), so the group runs to
            # completion under the scope and the results stream out after.
            results = []
            with fusion_scope(points=len(payloads), backend=self.name):
                for payload in payloads:
                    with recorder.span(
                        "backend.task",
                        backend=self.name,
                        experiment_id=str(payload.get("experiment_id")),
                    ):
                        record = execute_payload(payload, registry)
                    results.append(_result_from(record))
            yield from results


class ProcessPoolBackend(ExecutionBackend):
    """Fan requests out over worker processes.

    Built on :func:`repro.engine.parallel.imap`: submission is eager,
    results stream back in submission order, and a pool is created per batch
    so the backend object itself stays picklable and stateless.
    """

    name = "process-pool"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive (or None for one per CPU)")
        self.max_workers = max_workers

    @staticmethod
    def _check_registry(registry) -> None:
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

    def execute(
        self, payloads: Sequence[Dict[str, object]], registry=None
    ) -> Iterator[ExperimentResult]:
        self._check_registry(registry)
        recorder = get_recorder()
        if not recorder.active:
            for record in imap(execute_payload, list(payloads), self.max_workers):
                yield _result_from(record)
            return
        # Telemetry path: each worker runs under its own TraceRecorder and
        # ships the export back with the result; the parent re-attaches it
        # under a per-task span, in submission order, so the merged trace
        # reads like one process (queue wait vs compute split out).
        items = [
            {"payload": payload, "submitted_at": time.time()} for payload in payloads
        ]
        for item, wrapped in zip(items, imap(_traced_execute_payload, items, self.max_workers)):
            telemetry: Dict[str, object] = wrapped["telemetry"]  # type: ignore[assignment]
            worker_spans = telemetry.get("spans") or []
            compute = worker_spans[0].get("wall_seconds", 0.0) if worker_spans else 0.0
            with recorder.span(
                "backend.task",
                backend=self.name,
                experiment_id=str(item["payload"].get("experiment_id")),
                queue_wait_seconds=round(float(wrapped["queue_wait_seconds"]), 6),
                compute_seconds=round(float(compute), 6),
            ):
                recorder.merge(telemetry)
            yield _result_from(wrapped["record"])

    def execute_grouped(
        self,
        groups: Sequence[Sequence[Dict[str, object]]],
        registry=None,
    ) -> Iterator[ExperimentResult]:
        """Shard across fusion groups: one worker task per group, fusion
        inside the worker (a shared matrix cannot cross process boundaries),
        results streaming back flattened in group-submission order."""
        self._check_registry(registry)
        recorder = get_recorder()
        tasks = [list(payloads) for payloads in groups]
        if not recorder.active:
            for records in imap(execute_group_payload, tasks, self.max_workers):
                for record in records:
                    yield _result_from(record)
            return
        items = [
            {"payloads": payloads, "submitted_at": time.time()} for payloads in tasks
        ]
        for item, wrapped in zip(items, imap(_traced_execute_group, items, self.max_workers)):
            telemetry: Dict[str, object] = wrapped["telemetry"]  # type: ignore[assignment]
            worker_spans = telemetry.get("spans") or []
            compute = worker_spans[0].get("wall_seconds", 0.0) if worker_spans else 0.0
            with recorder.span(
                "backend.task",
                backend=self.name,
                experiment_id=str(item["payloads"][0].get("experiment_id"))
                if item["payloads"]
                else None,
                points=len(item["payloads"]),
                queue_wait_seconds=round(float(wrapped["queue_wait_seconds"]), 6),
                compute_seconds=round(float(compute), 6),
            ):
                recorder.merge(telemetry)
            for record in wrapped["records"]:
                yield _result_from(record)


#: Backend names accepted by :func:`resolve_backend` (and the CLI).
BACKEND_CHOICES = ("inline", "process-pool")


def resolve_backend(
    backend: Union[str, ExecutionBackend, None],
    parallel: Optional[int] = None,
) -> ExecutionBackend:
    """Turn a backend selector into an instance.

    ``None`` picks ``inline`` (or ``process-pool`` when ``parallel`` asks for
    more than one worker); a string names one of :data:`BACKEND_CHOICES`; an
    :class:`ExecutionBackend` instance passes through untouched.  A worker
    count below 1 raises ``ValueError``.
    """
    if parallel is not None and parallel < 1:
        raise ValueError(f"parallel must be a positive worker count; got {parallel}")
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None:
        backend = "process-pool" if parallel is not None and parallel > 1 else "inline"
    if backend == "inline":
        return InlineBackend()
    if backend == "process-pool":
        return ProcessPoolBackend(max_workers=parallel)
    raise ValueError(f"unknown backend {backend!r}; expected one of {BACKEND_CHOICES}")
