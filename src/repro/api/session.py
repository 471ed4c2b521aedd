"""The :class:`Session` facade: one programmatic surface for every run.

A session fixes the cross-cutting run context once — master seed, engine
selection, result cache, execution backend — and then executes single
experiments, selections, and parameter sweeps as declarative
:class:`RunRequest` objects resolved against the spec registry:

>>> from repro.api import Session
>>> session = Session(seed=0, cache=None)
>>> report = session.run("E5", preset="quick")          # doctest: +SKIP
>>> report.result.matches_paper                         # doctest: +SKIP
True

Everything the CLI does goes through this class; external callers get the
exact same behavior (same normalization, same cache keys, same backends) by
constructing a session themselves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.sweep import SweepResult, grid_points, merge_point_row
from repro.api.backends import ExecutionBackend, resolve_backend
from repro.engine.cache import ResultCache
from repro.engine.fusion import FusedSweepPlan
from repro.engine.parallel import point_seed
from repro.obs import NULL_RECORDER, Recorder, TraceRecorder, pop_recorder, push_recorder
from repro.harness.registry import (
    PRESET_FULL,
    PRESET_QUICK,
    REGISTRY,
    ExperimentRegistry,
    ExperimentSpec,
    _engine_parameter,
)
from repro.harness.results import ExperimentResult

__all__ = [
    "RunRequest",
    "RunReport",
    "ProgressEvent",
    "ProgressCallback",
    "SweepReport",
    "Session",
    "PRESET_FULL",
    "PRESET_QUICK",
    "FUSE_CHOICES",
]

#: The ``Session.sweep(fuse=...)`` settings.
FUSE_CHOICES = ("auto", "on", "off")


@dataclass(frozen=True)
class RunRequest:
    """One fully resolved run: an experiment id plus normalized parameters.

    Instances are produced by :meth:`Session.request` (which applies the
    preset, the overrides, and the session seed/engine through the spec's
    schema); ``parameters`` is therefore always the complete normalized
    mapping, and two requests describing the same logical run compare equal
    and share a cache key.
    """

    experiment_id: str
    parameters: Tuple[Tuple[str, object], ...]
    preset: str = PRESET_FULL

    @classmethod
    def create(
        cls,
        experiment_id: str,
        parameters: Mapping[str, object],
        preset: str = PRESET_FULL,
    ) -> "RunRequest":
        # Sorted by name: two requests describing the same logical run
        # compare equal regardless of construction order, and the wire
        # encoding (repro.api.wire, canonical sorted-keys JSON) round-trips
        # to an *equal* request, not merely an equivalent one.
        frozen = tuple(
            (name, tuple(value) if isinstance(value, list) else value)
            for name, value in sorted(parameters.items(), key=lambda item: item[0])
        )
        return cls(experiment_id=experiment_id, parameters=frozen, preset=preset)

    @property
    def kwargs(self) -> Dict[str, object]:
        """The parameters as the keyword mapping the runner is called with."""
        return {
            name: list(value) if isinstance(value, tuple) else value
            for name, value in self.parameters
        }

    def cache_key(self, registry: Optional[ExperimentRegistry] = None) -> str:
        spec = (registry if registry is not None else REGISTRY)[self.experiment_id]
        return spec.cache_key(self.kwargs)

    def to_payload(self) -> Dict[str, object]:
        """The JSON-shaped form backends transport (see
        :mod:`repro.api.backends`)."""
        return {
            "experiment_id": self.experiment_id,
            "parameters": self.kwargs,
            "preset": self.preset,
        }


@dataclass
class RunReport:
    """The outcome of one request: the result plus its provenance."""

    request: RunRequest
    result: ExperimentResult
    from_cache: bool = False
    cache_path: Optional[Path] = None
    duration_seconds: float = 0.0

    @property
    def experiment_id(self) -> str:
        return self.request.experiment_id

    @property
    def ok(self) -> bool:
        """An affirmative verdict — ``None`` (never judged) is *not* ok."""
        return self.result.matches_paper is True


@dataclass(frozen=True)
class ProgressEvent:
    """One per-request progress notification.

    ``kind`` is ``"start"`` when a request begins executing, ``"cached"``
    when it is served from the result cache, and ``"done"`` when execution
    finished (``report`` is set for ``cached`` and ``done``).
    """

    kind: str
    request: RunRequest
    index: int
    total: int
    report: Optional[RunReport] = None


ProgressCallback = Callable[[ProgressEvent], None]


@dataclass
class SweepReport:
    """The outcome of :meth:`Session.sweep`: per-point reports in grid order
    plus the flat summary table the analysis layer consumes.

    ``plan`` is the :class:`~repro.engine.fusion.FusedSweepPlan` the sweep
    executed under, or ``None`` when it ran point by point."""

    reports: List[RunReport] = field(default_factory=list)
    table: SweepResult = field(default_factory=SweepResult)
    plan: Optional[FusedSweepPlan] = None

    def __len__(self) -> int:
        return len(self.reports)


class Session:
    """A configured run context over the experiment registry.

    Parameters
    ----------
    seed:
        Master seed injected into every request whose spec declares the seed
        contract (unless the request pins its own); ``None`` leaves the
        schema default in place.
    engine:
        Engine selector (``auto``/``exact``/``off``) injected into
        every request whose spec declares the engine capability; any other
        value raises :class:`~repro.harness.registry.ParameterValueError`.
    precision:
        CI half-width target injected into every request whose spec declares
        the precision capability (adaptive sequential stopping; the spec's
        trial budget becomes a cap).  ``None`` leaves the schema default
        (0.0, fixed trials) in place.
    confidence:
        Confidence level accompanying ``precision`` (same injection rule).
    cache:
        ``True`` (default) for the standard on-disk result cache, ``None`` or
        ``False`` to disable caching, a path for an explicit cache directory,
        or a :class:`ResultCache` instance.
    backend:
        ``"inline"`` (default), ``"process-pool"``, or an
        :class:`ExecutionBackend` instance.
    parallel:
        Worker count for the ``process-pool`` backend (at least 1); with the
        default backend selector, ``parallel > 1`` implies ``process-pool``.
    registry:
        The spec registry to resolve experiments against (defaults to the
        shipped :data:`~repro.harness.registry.REGISTRY`).
    progress:
        Session-wide progress callback; the ``progress=`` argument of the run
        methods overrides it per call.
    telemetry:
        A :class:`repro.obs.Recorder` installed as the ambient recorder for
        the duration of every run — each request gets a ``session.request``
        root span (cache key, engine mode, backend, cache provenance) with
        the engine/cache/backend spans nested below it.  ``None`` (default)
        keeps the near-zero-overhead null recorder; ``True`` is shorthand
        for a fresh :class:`~repro.obs.TraceRecorder` (reachable afterwards
        as ``session.telemetry``).  Telemetry is observation only: results
        are bit-identical with it on or off.
    """

    def __init__(
        self,
        seed: Optional[int] = None,
        engine: Optional[str] = None,
        cache: Union[bool, None, str, Path, ResultCache] = True,
        backend: Union[str, ExecutionBackend, None] = None,
        parallel: Optional[int] = None,
        registry: Optional[ExperimentRegistry] = None,
        progress: Optional[ProgressCallback] = None,
        precision: Optional[float] = None,
        confidence: Optional[float] = None,
        telemetry: Union[Recorder, bool, None] = None,
    ) -> None:
        if engine is not None:
            # The per-spec check, made up front: a spec without the engine
            # capability never sees the value, so nothing else would reject it.
            _engine_parameter().normalize(engine)
        self.seed = seed
        self.engine = engine
        self.precision = precision
        self.confidence = confidence
        self.registry = registry if registry is not None else REGISTRY
        self.backend = resolve_backend(backend, parallel)
        self.progress = progress
        if telemetry is True:
            self.telemetry: Recorder = TraceRecorder()
        elif telemetry in (None, False):
            self.telemetry = NULL_RECORDER
        elif isinstance(telemetry, Recorder):
            self.telemetry = telemetry
        else:
            raise TypeError(
                f"telemetry must be a repro.obs.Recorder, True, or None; got {telemetry!r}"
            )
        if isinstance(cache, ResultCache):
            self.cache: Optional[ResultCache] = cache
        elif cache is True:
            self.cache = ResultCache()
        elif cache in (None, False):
            self.cache = None
        else:
            self.cache = ResultCache(Path(cache))

    # ------------------------------------------------------------------ #
    def spec(self, experiment_id: str) -> ExperimentSpec:
        return self.registry[experiment_id]

    def request(
        self,
        experiment_id: str,
        preset: str = PRESET_FULL,
        **overrides: object,
    ) -> RunRequest:
        """Resolve one run against the spec's schema (preset + overrides +
        session seed/engine) into a :class:`RunRequest`."""
        spec = self.spec(experiment_id)
        parameters = spec.resolve(
            preset=preset,
            overrides=overrides,
            seed=self.seed,
            engine=self.engine,
            precision=self.precision,
            confidence=self.confidence,
        )
        return RunRequest.create(spec.id, parameters, preset=preset)

    # ------------------------------------------------------------------ #
    def run_iter(
        self,
        requests: Sequence[RunRequest],
        progress: Optional[ProgressCallback] = None,
    ) -> Iterator[RunReport]:
        """Execute requests, yielding a :class:`RunReport` per request **in
        request order** as each becomes available.

        Cache hits are served immediately; misses go through the session
        backend in one batch.  Fresh results are written back to the cache as
        they arrive, so an interrupted iteration keeps everything already
        yielded.

        The session's telemetry recorder is installed as the ambient
        :mod:`repro.obs` recorder for the duration of the iteration (pushed
        and popped explicitly — a ``with`` held across ``yield`` would leak
        the context into the caller), and every request is wrapped in a
        ``session.request`` root span.
        """
        token = push_recorder(self.telemetry)
        try:
            yield from self._run_iter(requests, progress)
        finally:
            pop_recorder(token)

    def _request_span(self, request: RunRequest, key: Optional[str], **attributes: object):
        return self.telemetry.span(
            "session.request",
            experiment_id=request.experiment_id,
            preset=request.preset,
            cache_key=key,
            engine=request.kwargs.get("engine"),
            backend=self.backend.name,
            **attributes,
        )

    def _run_iter(
        self,
        requests: Sequence[RunRequest],
        progress: Optional[ProgressCallback],
        plan: Optional[FusedSweepPlan] = None,
    ) -> Iterator[RunReport]:
        emit = progress if progress is not None else self.progress
        total = len(requests)

        cached: Dict[int, Tuple[RunReport, str]] = {}
        misses: List[Tuple[int, RunRequest, Optional[str]]] = []
        for index, request in enumerate(requests):
            key = None
            if self.cache is not None:
                key = request.cache_key(self.registry)
                payload = self.cache.get(key)
                if payload is not None:
                    try:
                        result = ExperimentResult.from_dict(payload)
                    except (KeyError, TypeError, ValueError):
                        pass  # foreign/stale payload shape: treat as a miss
                    else:
                        cached[index] = (
                            RunReport(
                                request=request,
                                result=result,
                                from_cache=True,
                                cache_path=self.cache.path_for(key),
                            ),
                            key,
                        )
                        continue
            misses.append((index, request, key))

        if plan is not None:
            yield from self._run_grouped(requests, cached, misses, plan, emit, total)
            return

        executing = self.backend.execute(
            [request.to_payload() for _, request, _ in misses], registry=self.registry
        )
        miss_iterator = iter(misses)
        for index, request in enumerate(requests):
            if index in cached:
                yield self._serve_cached(cached[index], index, total, emit)
                continue
            miss_index, miss_request, key = next(miss_iterator)
            assert miss_index == index
            if emit is not None:
                emit(ProgressEvent("start", request, index, total))
            report = self._execute_miss(executing, request, key, index, total, emit)
            yield report

    def _serve_cached(
        self,
        hit: Tuple[RunReport, str],
        index: int,
        total: int,
        emit: Optional[ProgressCallback],
    ) -> RunReport:
        report, hit_key = hit
        with self._request_span(report.request, hit_key, from_cache=True):
            pass
        if emit is not None:
            emit(ProgressEvent("cached", report.request, index, total, report))
        return report

    def _execute_miss(
        self,
        executing: Iterator[ExperimentResult],
        request: RunRequest,
        key: Optional[str],
        index: int,
        total: int,
        emit: Optional[ProgressCallback],
    ) -> RunReport:
        """Consume one backend result for ``request``: span, cache write
        (before the ``done`` event — the progress contract), report."""
        with self._request_span(request, key, from_cache=False):
            started = time.perf_counter()
            try:
                result = next(executing)
            except StopIteration:
                raise RuntimeError(
                    f"backend {self.backend.name!r} yielded fewer results than "
                    f"requests: nothing left for request {index + 1} of {total} "
                    f"({request.experiment_id})"
                ) from None
            duration = time.perf_counter() - started
            cache_path = None
            if self.cache is not None and key is not None:
                cache_path = self.cache.put(
                    key,
                    result.to_dict(),
                    key_fields={
                        "experiment_id": request.experiment_id,
                        "parameters": request.kwargs,
                        "preset": request.preset,
                    },
                )
        report = RunReport(
            request=request,
            result=result,
            from_cache=False,
            cache_path=cache_path,
            duration_seconds=duration,
        )
        if emit is not None:
            emit(ProgressEvent("done", request, index, total, report))
        return report

    def _run_grouped(
        self,
        requests: Sequence[RunRequest],
        cached: Dict[int, Tuple[RunReport, str]],
        misses: List[Tuple[int, RunRequest, Optional[str]]],
        plan: FusedSweepPlan,
        emit: Optional[ProgressCallback],
        total: int,
    ) -> Iterator[RunReport]:
        """The fused execution path: misses are partitioned into the plan's
        fusion groups, the backend shards across groups (fusing within each),
        and results — which arrive flattened in group order, not request
        order — are buffered just long enough to yield in request order."""
        grouped: Dict[int, List[Tuple[int, RunRequest, Optional[str]]]] = {}
        group_order: List[int] = []
        for entry in misses:
            group = plan.group_of(entry[0])
            if group not in grouped:
                group_order.append(group)
                grouped[group] = []
            grouped[group].append(entry)
        group_lists = [grouped[group] for group in group_order]
        executing = self.backend.execute_grouped(
            [[request.to_payload() for _, request, _ in group] for group in group_lists],
            registry=self.registry,
        )
        arrival_order = iter([entry for group in group_lists for entry in group])
        ready: Dict[int, RunReport] = {}
        for index, request in enumerate(requests):
            if index in cached:
                yield self._serve_cached(cached[index], index, total, emit)
                continue
            while index not in ready:
                try:
                    miss_index, miss_request, key = next(arrival_order)
                except StopIteration:  # pragma: no cover - mirrors _execute_miss
                    raise RuntimeError(
                        f"backend {self.backend.name!r} yielded fewer results "
                        f"than requests during a fused sweep"
                    ) from None
                if emit is not None:
                    emit(ProgressEvent("start", miss_request, miss_index, total))
                ready[miss_index] = self._execute_miss(
                    executing, miss_request, key, miss_index, total, emit
                )
            yield ready.pop(index)

    def run_many(
        self,
        requests: Sequence[RunRequest],
        progress: Optional[ProgressCallback] = None,
    ) -> List[RunReport]:
        """:meth:`run_iter`, fully materialized."""
        return list(self.run_iter(requests, progress=progress))

    def run(
        self,
        experiment_id: str,
        preset: str = PRESET_FULL,
        progress: Optional[ProgressCallback] = None,
        **overrides: object,
    ) -> RunReport:
        """Run a single experiment and return its report."""
        request = self.request(experiment_id, preset=preset, **overrides)
        return self.run_many([request], progress=progress)[0]

    def run_selection(
        self,
        experiment_ids: Sequence[str],
        preset: str = PRESET_FULL,
        progress: Optional[ProgressCallback] = None,
    ) -> List[RunReport]:
        """Run a selection of experiments (ids in any case, or ``"all"``),
        deduplicated, in the requested order."""
        requests = [
            self.request(experiment_id, preset=preset)
            for experiment_id in self.registry.select(experiment_ids)
        ]
        return self.run_many(requests, progress=progress)

    def run_all(
        self,
        preset: str = PRESET_FULL,
        progress: Optional[ProgressCallback] = None,
    ) -> List[RunReport]:
        """Run every registered experiment (``preset="quick"`` is the CI
        smoke configuration)."""
        return self.run_selection(["all"], preset=preset, progress=progress)

    # ------------------------------------------------------------------ #
    def sweep(
        self,
        experiment_id: str,
        grid: Mapping[str, Sequence[object]],
        preset: str = PRESET_FULL,
        progress: Optional[ProgressCallback] = None,
        fuse: str = "auto",
        **fixed: object,
    ) -> SweepReport:
        """A first-class parameter sweep: the Cartesian grid becomes one
        :class:`RunRequest` per point, executed through the session backend.

        Seeding: when the session has a master seed and the spec declares
        the seed contract, each point receives
        :func:`~repro.engine.parallel.point_seed`, a seed derived from the
        master seed and the point's own parameters — independent of backend,
        worker count, and grid shape.  The returned :class:`SweepReport`
        carries the per-point reports plus a flat :class:`SweepResult`
        summary table (point parameters + verdict/provenance columns) in
        grid order.

        ``fuse`` selects whole-sweep fusion (:mod:`repro.engine.fusion`):
        points sharing a construction configuration execute against one
        shared trial matrix instead of resampling it per point.  ``"auto"``
        (default) fuses when at least two points share a fusion group,
        ``"on"`` always routes through the plan (unfusible points fall back
        to singleton groups), ``"off"`` runs point by point.  Fusion shares
        work, never randomness: the results are bit-identical across the
        three settings, per-point ``point_seed`` derivation included.
        """
        if fuse not in FUSE_CHOICES:
            raise ValueError(
                f"unknown fuse setting {fuse!r}; expected one of {FUSE_CHOICES}"
            )
        spec = self.spec(experiment_id)
        colliding = sorted(set(grid) & set(fixed))
        if colliding:
            raise ValueError(
                f"sweep grid parameters colliding with fixed overrides: "
                f"{', '.join(colliding)}; pass each parameter through the grid "
                "or the fixed keywords, not both"
            )
        points = grid_points(grid)
        requests = []
        for point in points:
            overrides = dict(fixed)
            overrides.update(point)
            if (
                self.seed is not None
                and spec.accepts_seed
                and "seed" not in overrides
            ):
                overrides["seed"] = point_seed(self.seed, point)
            parameters = spec.resolve(
                preset=preset,
                overrides=overrides,
                engine=self.engine,
                precision=self.precision,
                confidence=self.confidence,
            )
            requests.append(RunRequest.create(spec.id, parameters, preset=preset))

        plan: Optional[FusedSweepPlan] = None
        if fuse != "off":
            plan = FusedSweepPlan.build(spec, requests)
            if fuse == "auto" and not plan.has_fusion:
                plan = None

        token = push_recorder(self.telemetry)
        try:
            if plan is not None:
                with self.telemetry.span(
                    "engine.fuse",
                    experiment_id=spec.id,
                    points=len(requests),
                    groups=len(plan.groups),
                    fused_points=plan.fused_points,
                    backend=self.backend.name,
                ):
                    run_reports = list(self._run_iter(requests, progress, plan=plan))
            else:
                run_reports = list(self._run_iter(requests, progress))
        finally:
            pop_recorder(token)

        report = SweepReport(plan=plan)
        for point, run_report in zip(points, run_reports, strict=True):
            result = run_report.result
            report.reports.append(run_report)
            report.table.rows.append(
                merge_point_row(
                    point,
                    {
                        "verdict": result.verdict,
                        "matches_paper": result.matches_paper,
                        "trials_used": result.trials_used,
                        "ci_low": result.ci_low,
                        "ci_high": result.ci_high,
                        "row_count": len(result.rows),
                        "from_cache": run_report.from_cache,
                    },
                )
            )
        return report

