"""The asynchronous job queue behind the experiment service.

:class:`JobManager` owns all mutable service state and runs **entirely on
one asyncio event loop**; experiment execution happens on supervised worker
threads via :func:`~repro.api.backends.execute_payload` (the same worker
entry point every :mod:`repro.api` backend uses), so results are
bit-identical to an inline :meth:`repro.api.Session.run` at the same seed.

Single-flight
-------------
Jobs are deduplicated by the request's **canonical cache key** (the same
spec-derived key the result cache uses).  While a job for a key is in
flight, every further submission of an identical request joins it as a
subscriber instead of executing again: N concurrent identical submissions →
exactly one execution, N subscribers, N bit-identical results.  Once a job
reaches a terminal state the key leaves the in-flight table — subsequent
submissions are served by the result cache instead.

Admission control and priorities
--------------------------------
The queue is a bounded priority heap: higher ``priority`` dispatches first,
FIFO within a priority.  When ``max_queue`` is set, a submission that would
exceed it is refused at the door with
:class:`~repro.errors.QueueFullError` (HTTP 429 + ``Retry-After``) —
accepted work is never dropped; saturation is refused before acceptance.
``max_workers`` bounds *logical* execution slots: a timed-out attempt
releases its slot immediately even though its abandoned thread may still be
wedged, so a stuck experiment cannot eat the pool.

Retry, timeout, and backoff
---------------------------
Each attempt runs under an optional ``job_timeout`` deadline
(:class:`~repro.errors.JobTimeoutError` on expiry).  Retryable failures —
classified by :func:`repro.retry.is_retryable`: timeouts and foreign
crashes yes, deliberate taxonomy errors no — re-enqueue up to
``max_retries`` times under the manager's :class:`~repro.retry.BackoffPolicy`
(capped exponential, seeded jitter, fully deterministic).  A job that
exhausts its budget fails with :class:`~repro.errors.RetriesExhaustedError`
carrying the last underlying error.

Crash safety
------------
With ``journal_dir`` set, every transition is write-ahead logged through
:class:`~repro.service.journal.JobJournal` *before* it takes effect.
:meth:`JobManager.start` replays the journal on startup: failed jobs
resurface failed, done jobs are served from the result cache (or
re-executed when their entry was evicted — determinism makes re-execution
recovery), and jobs queued or running at crash time re-enqueue.  The log is
compacted after replay.

Lifecycle and events
--------------------
A job moves ``queued → running → done | failed`` (with ``running → queued``
on a retry); a cache hit at submission creates the job directly in ``done``
(``from_cache=True``).  Progress is recorded as an ordered event log per
job, using the **same taxonomy** as :class:`repro.api.ProgressEvent`:
``start`` when an attempt begins, ``retry`` when one re-enqueues,
``cached`` (terminal, the only event) for a cache hit, ``done`` on
success — always emitted *after* the result is persisted to the cache —
plus ``failed`` for the error path.  Every event carries its log ``index``,
which the HTTP layer emits as the SSE event id (the resume cursor).
:meth:`JobManager.events` replays the log from any cursor and then follows
it live.

Telemetry
---------
The manager keeps its own :class:`~repro.obs.TraceRecorder`.  Each
execution runs under a fresh per-thread recorder whose export — a
``service.queue_wait`` span (time between enqueue and a slot picking the
job up) and a ``service.execute`` span wrapping the run and the cache
write — is merged into the manager's recorder on the loop thread, so
``service.execute`` span counts are an exact execution count (the
single-flight acceptance check).  Recovery paths add ``service.replay`` and
``service.retry`` spans and the ``service.retries`` / ``service.timeouts`` /
``service.rejected`` / ``service.replayed`` counters.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import threading
import time
from pathlib import Path
from typing import AsyncIterator, Dict, List, Optional, Set, Tuple, Union

from repro.api.backends import execute_payload
from repro.api.session import (
    RunReport,
    RunRequest,
    cached_report,
    open_cache,
    store_result,
)
from repro.api.wire import WIRE_SCHEMA, decode_request, encode_request
from repro.engine.cache import ResultCache
from repro.errors import (
    JobNotFound,
    JobTimeoutError,
    QueueFullError,
    RetriesExhaustedError,
    ShuttingDownError,
    WireFormatError,
    error_payload,
)
from repro.faults import FaultPlan
from repro.harness.registry import REGISTRY, ExperimentRegistry, SpecValidationError
from repro.harness.results import ExperimentResult
from repro.obs import Recorder, Span, TraceRecorder, use_recorder
from repro.retry import BackoffPolicy, is_retryable
from repro.service.journal import JobJournal, reduce_journal

__all__ = ["JobState", "Job", "JobManager"]

#: Event kinds that end a job's event stream.
TERMINAL_EVENTS = ("cached", "done", "failed")


class JobState:
    """The four job states (plain strings, wire-stable)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    TERMINAL = (DONE, FAILED)


class Job:
    """One deduplicated unit of work: a request, its state, its event log."""

    def __init__(
        self, job_id: str, request: RunRequest, cache_key: str, priority: int = 0
    ) -> None:
        self.id = job_id
        self.request = request
        self.cache_key = cache_key
        self.priority = priority
        self.state = JobState.QUEUED  # loop-confined
        self.from_cache = False  # loop-confined
        self.subscribers = 1  # loop-confined
        self.attempt = 0  # loop-confined
        self.report: Optional[RunReport] = None  # loop-confined
        self.error: Optional[Dict[str, object]] = None  # loop-confined
        self.error_status = 500  # loop-confined
        self.created_at = time.time()
        self.enqueued_at = time.perf_counter()  # loop-confined
        self.queue_wait_seconds: Optional[float] = None  # loop-confined
        self.events: List[Dict[str, object]] = []  # loop-confined
        self.task: Optional[asyncio.Task] = None  # loop-confined
        # Futures of event-stream consumers waiting for the next event; all
        # access is confined to the event loop thread, so no lock is needed.
        # loop-confined
        self._waiters: List[asyncio.Future] = []

    @property
    def terminal(self) -> bool:
        return self.state in JobState.TERMINAL

    # -- event log (loop thread only) ---------------------------------- #
    def emit(self, kind: str, **fields: object) -> None:
        """Append one progress event and wake every waiting stream.

        The event carries its own log ``index`` — the SSE id clients resume
        from after a reconnect.
        """
        event: Dict[str, object] = {
            "schema": WIRE_SCHEMA,
            "kind": "event",
            "event": kind,
            "job_id": self.id,
            "experiment_id": self.request.experiment_id,
            "state": self.state,
            "index": len(self.events),
        }
        event.update(fields)
        self.events.append(event)
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    async def next_event(self, index: int) -> None:
        """Return once ``events[index]`` exists (loop thread only)."""
        while len(self.events) <= index:
            waiter = asyncio.get_running_loop().create_future()
            self._waiters.append(waiter)
            await waiter

    # -- wire form ------------------------------------------------------ #
    def snapshot(self, deduplicated: Optional[bool] = None) -> Dict[str, object]:
        """The job's wire record (the ``kind="job"`` envelope of the HTTP
        layer); ``deduplicated`` is per-submission provenance."""
        record: Dict[str, object] = {
            "schema": WIRE_SCHEMA,
            "kind": "job",
            "job_id": self.id,
            "experiment_id": self.request.experiment_id,
            "preset": self.request.preset,
            "state": self.state,
            "cache_key": self.cache_key,
            "from_cache": self.from_cache,
            "subscribers": self.subscribers,
            "priority": self.priority,
            "attempt": self.attempt,
            "error": dict(self.error) if self.error is not None else None,
        }
        if deduplicated is not None:
            record["deduplicated"] = deduplicated
        return record


class JobManager:
    """Single-flight job execution over bounded, supervised worker slots.

    Parameters mirror :class:`repro.api.Session` where they overlap:
    ``registry`` resolves experiment ids, ``cache`` is ``True`` (default
    location) / a path / a :class:`ResultCache` / ``None`` (no caching), and
    ``max_workers`` bounds concurrent execution slots (default 4).
    ``recorder`` is the manager's telemetry sink (a fresh
    :class:`TraceRecorder` when omitted — the service always records, that
    is what ``/metrics`` reads).

    Robustness knobs (all off by default, so an unconfigured manager behaves
    exactly like the pre-journal service):

    * ``journal_dir`` — write-ahead log directory; call :meth:`start` after
      construction to replay it.
    * ``job_timeout`` — per-attempt execution deadline in seconds.
    * ``max_retries`` — retry budget for retryable failures (0 = fail fast).
    * ``max_queue`` — queued-job bound; beyond it submissions are refused
      with :class:`QueueFullError` (never silently dropped).
    * ``backoff`` — the deterministic retry schedule (seeded jitter).
    * ``faults`` — a :class:`~repro.faults.FaultPlan` for the chaos suite.
    """

    def __init__(
        self,
        registry: Optional[ExperimentRegistry] = None,
        cache: Union[bool, None, str, Path, ResultCache] = True,
        max_workers: Optional[int] = None,
        recorder: Optional[Recorder] = None,
        journal_dir: Union[None, str, Path] = None,
        job_timeout: Optional[float] = None,
        max_retries: int = 0,
        max_queue: Optional[int] = None,
        backoff: Optional[BackoffPolicy] = None,
        faults: Optional[FaultPlan] = None,
        journal_fsync: bool = True,
    ) -> None:
        self.registry = registry if registry is not None else REGISTRY
        self.cache = open_cache(cache)
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive (or None for the default)")
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError("job_timeout must be positive (or None for no deadline)")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if max_queue is not None and max_queue < 1:
            raise ValueError("max_queue must be positive (or None for unbounded)")
        self.max_workers = max_workers if max_workers is not None else 4
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.max_queue = max_queue
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self.faults = faults
        self.recorder: Recorder = recorder if recorder is not None else TraceRecorder()
        self._journal: Optional[JobJournal] = (
            JobJournal(Path(journal_dir), fsync=journal_fsync, faults=faults)
            if journal_dir is not None
            else None
        )
        self._jobs: Dict[str, Job] = {}  # loop-confined
        self._inflight: Dict[str, Job] = {}  # loop-confined
        # loop-confined: (-priority, seq, job) heap entries
        self._queue: List[Tuple[int, int, Job]] = []
        self._seq = itertools.count()  # loop-confined
        self._running = 0  # loop-confined: logical execution slots in use
        self._tasks: Set[asyncio.Task] = set()  # loop-confined
        self._ids = itertools.count(1)  # loop-confined
        self._closed = False  # loop-confined
        self._started = False  # loop-confined

    # ------------------------------------------------------------------ #
    def _resolve_key(self, request: RunRequest) -> str:
        try:
            spec = self.registry[request.experiment_id]
        except KeyError:
            raise SpecValidationError(
                f"unknown experiment {request.experiment_id!r}; available: "
                f"{', '.join(self.registry)}"
            ) from None
        return spec.cache_key(request.kwargs)

    def _journal_append(self, event: str, job_id: str, **fields: object) -> None:
        """Best-effort journal append for non-admission transitions: a
        journal write failure must not kill a job that is already running."""
        if self._journal is None:
            return
        try:
            self._journal.append(event, job_id, **fields)
        except Exception:
            self.recorder.counter("service.journal_errors")

    async def submit(self, request: RunRequest, priority: int = 0) -> Tuple[Job, bool]:
        """Submit one request; returns ``(job, deduplicated)``.

        ``deduplicated`` is ``True`` when the submission joined an in-flight
        job for the same canonical key instead of creating one.  A cache hit
        creates the job directly in the terminal ``done`` state.  Raises
        :class:`ShuttingDownError` once the manager is draining,
        :class:`QueueFullError` when admission control refuses the request,
        and :class:`SpecValidationError` for unknown experiments/parameters.
        Higher ``priority`` dispatches first (FIFO within a priority).
        """
        if self._closed:
            raise ShuttingDownError("service is draining; no new jobs accepted")
        self.recorder.counter("service.submissions")
        key = self._resolve_key(request)

        inflight = self._inflight.get(key)
        if inflight is not None and not inflight.terminal:
            inflight.subscribers += 1
            self.recorder.counter("service.deduplicated")
            return inflight, True

        # Probe the cache synchronously on the loop thread (a small JSON
        # read) so two immediate identical submissions cannot both miss; the
        # manager's recorder sees the cache.lookup span.  Cache hits bypass
        # admission control — they consume no queue slot.
        with use_recorder(self.recorder):
            report = cached_report(self.cache, request, key)
        if report is not None:
            job = Job(f"j{next(self._ids):06d}-{key[:8]}", request, key, priority)
            self._jobs[job.id] = job
            job.report = report
            job.from_cache = True
            job.state = JobState.DONE
            self.recorder.counter("service.cache_hits")
            self._journal_append(
                "submit", job.id, request=encode_request(request), cache_key=key,
                priority=priority,
            )
            self._journal_append("done", job.id, attempt=0)
            job.emit("cached", verdict=report.result.verdict)
            return job, False

        if self.max_queue is not None and len(self._queue) >= self.max_queue:
            self.recorder.counter("service.rejected")
            raise QueueFullError(
                f"job queue is full ({len(self._queue)}/{self.max_queue} queued)",
                queued=len(self._queue),
                max_queue=self.max_queue,
                retry_after=max(0.1, self.backoff.delay(0, key)),
            )

        job = Job(f"j{next(self._ids):06d}-{key[:8]}", request, key, priority)
        if self._journal is not None:
            # Write-ahead: the submission is only accepted once it is
            # durable.  A journal failure here refuses the job outright.
            self._journal.append(
                "submit", job.id, request=encode_request(request), cache_key=key,
                priority=priority,
            )
        self._jobs[job.id] = job
        self._inflight[key] = job
        self._enqueue(job)
        self._dispatch()
        return job, False

    # -- queue / dispatch ----------------------------------------------- #
    def _enqueue(self, job: Job) -> None:
        job.enqueued_at = time.perf_counter()
        heapq.heappush(self._queue, (-job.priority, next(self._seq), job))

    def _dispatch(self) -> None:
        """Fill free execution slots from the priority queue (loop thread)."""
        if self._closed:
            return
        while self._queue and self._running < self.max_workers:
            _, _, job = heapq.heappop(self._queue)
            if job.terminal or job.state == JobState.RUNNING:  # pragma: no cover
                continue  # defensive: stale heap entry
            self._running += 1
            task = asyncio.create_task(self._attempt(job))
            job.task = task
            self._track(task)

    def _track(self, task: asyncio.Task) -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    # -- execution ------------------------------------------------------- #
    async def _attempt(self, job: Job) -> None:
        """Supervise one execution attempt: spawn the worker thread, enforce
        the deadline, route the outcome to success/retry/failure."""
        loop = asyncio.get_running_loop()
        queue_wait = time.perf_counter() - job.enqueued_at
        job.state = JobState.RUNNING
        job.queue_wait_seconds = queue_wait
        self._journal_append("start", job.id, attempt=job.attempt)
        job.emit("start", attempt=job.attempt)
        future: asyncio.Future = loop.create_future()
        thread = threading.Thread(
            target=self._execute,
            args=(job, job.attempt, queue_wait, loop, future),
            name=f"repro-worker-{job.id}-a{job.attempt}",
            daemon=True,
        )
        thread.start()
        try:
            try:
                outcome = await asyncio.wait_for(future, timeout=self.job_timeout)
            except asyncio.TimeoutError:
                # The attempt is abandoned: its slot frees now, and any late
                # delivery from the wedged thread is counted and discarded.
                self.recorder.counter("service.timeouts")
                raise JobTimeoutError(
                    f"job {job.id} exceeded its {self.job_timeout}s deadline "
                    f"(attempt {job.attempt})",
                    job_id=job.id,
                    timeout_seconds=self.job_timeout,
                    attempt=job.attempt,
                ) from None
        except Exception as error:
            self._handle_failure(job, error)
        else:
            result, cache_path, duration, _, export = outcome
            # Merge the worker's trace on the loop thread — the recorder is
            # only ever mutated here, so span counts stay exact.
            if isinstance(self.recorder, TraceRecorder):
                self.recorder.merge(export)
            self.recorder.counter("service.executions")
            self.recorder.histogram("service.queue_wait_seconds", queue_wait)
            job.report = RunReport(
                request=job.request,
                result=result,
                from_cache=False,
                cache_path=cache_path,
                duration_seconds=duration,
            )
            job.state = JobState.DONE
            self._journal_append("done", job.id, attempt=job.attempt)
            job.emit("done", verdict=result.verdict)
            if self._inflight.get(job.cache_key) is job:
                del self._inflight[job.cache_key]
        finally:
            self._running -= 1
            self._dispatch()

    def _handle_failure(self, job: Job, error: BaseException) -> None:
        """Route a failed attempt: re-enqueue under backoff while budget and
        retryability allow, otherwise transition to ``failed``."""
        status, payload = error_payload(error)
        if job.attempt < self.max_retries and is_retryable(error):
            job.attempt += 1
            job.state = JobState.QUEUED
            self.recorder.counter("service.retries")
            delay = self.backoff.delay(job.attempt - 1, job.cache_key)
            self._journal_append("retry", job.id, attempt=job.attempt)
            job.emit(
                "retry", attempt=job.attempt, delay_seconds=delay, error=dict(payload)
            )
            if self._closed:
                # Draining: leave the job journaled as queued for the next
                # start instead of sleeping through the drain.
                self._enqueue(job)
            else:
                self._track(asyncio.create_task(self._requeue_after(job, delay)))
            return
        if job.attempt > 0:
            exhausted = RetriesExhaustedError(
                f"job {job.id} failed after {job.attempt + 1} attempts",
                attempts=job.attempt + 1,
                last_error=payload,
            )
            status, payload = error_payload(exhausted)
        job.error = payload
        job.error_status = status
        job.state = JobState.FAILED
        self.recorder.counter("service.failed")
        self._journal_append(
            "failed", job.id, attempt=job.attempt, error=dict(payload), status=status
        )
        job.emit("failed", error=dict(payload))
        if self._inflight.get(job.cache_key) is job:
            del self._inflight[job.cache_key]

    async def _requeue_after(self, job: Job, delay: float) -> None:
        """Sleep out a backoff delay (under a ``service.retry`` span), then
        put the job back on the queue."""
        with self.recorder.span(
            "service.retry", job_id=job.id, attempt=job.attempt, delay_seconds=delay
        ):
            await asyncio.sleep(delay)
        self._enqueue(job)
        self._dispatch()

    def _execute(
        self,
        job: Job,
        attempt: int,
        queue_wait: float,
        loop: asyncio.AbstractEventLoop,
        future: asyncio.Future,
    ) -> None:
        """The worker-thread half: run the experiment under a fresh recorder
        and persist the result before delivering (cache-write-before-done).

        Delivery goes through the loop; a future that is already resolved
        (the supervisor timed this attempt out) discards the late result and
        counts it as ``service.stale_results``.
        """

        def deliver(value: object = None, error: Optional[BaseException] = None) -> None:
            def _resolve() -> None:
                if future.done():
                    self.recorder.counter("service.stale_results")
                    return
                if error is not None:
                    future.set_exception(error)
                else:
                    future.set_result(value)

            try:
                loop.call_soon_threadsafe(_resolve)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass

        try:
            if self.faults is not None:
                self.faults.fire("worker.execute")
            recorder = TraceRecorder()
            wait_span = Span(
                "service.queue_wait",
                {"job_id": job.id, "experiment_id": job.request.experiment_id},
            )
            wait_span.started_at = job.created_at
            wait_span.wall_seconds = queue_wait
            recorder.spans.append(wait_span)
            started = time.perf_counter()
            with use_recorder(recorder):
                with recorder.span(
                    "service.execute",
                    job_id=job.id,
                    experiment_id=job.request.experiment_id,
                    cache_key=job.cache_key,
                    attempt=attempt,
                ) as span:
                    record = execute_payload(job.request.to_payload(), self.registry)
                    result = ExperimentResult.from_dict(record)
                    cache_path = store_result(self.cache, job.request, job.cache_key, record)
                    span.annotate(verdict=result.verdict, cached=cache_path is not None)
            duration = time.perf_counter() - started
        except BaseException as error:
            deliver(error=error)
        else:
            deliver((result, cache_path, duration, queue_wait, recorder.export()))

    # -- journal replay -------------------------------------------------- #
    async def start(self) -> int:
        """Replay the journal (idempotent); returns the re-enqueued count.

        Failed jobs resurface failed; done jobs are served from the result
        cache (``from_cache=True``) or — when their cache entry was
        evicted — re-executed, which determinism makes indistinguishable
        from recovery; queued/running jobs re-enqueue at their journaled
        priority and attempt.  The log is compacted afterwards.
        """
        if self._started or self._journal is None:
            self._started = True
            return 0
        self._started = True
        records = self._journal.scan()
        if self._journal.skipped:
            # The torn tail a crash mid-append leaves behind.
            self.recorder.counter("service.journal_torn", self._journal.skipped)
        entries = sorted(reduce_journal(records).values(), key=lambda entry: entry.seq)
        requeued = 0
        highest_id = 0
        with self.recorder.span(
            "service.replay",
            records=len(records),
            skipped=self._journal.skipped,
            jobs=len(entries),
        ) as span:
            for entry in entries:
                try:
                    request = decode_request(entry.request)
                except WireFormatError:
                    self.recorder.counter("service.journal_errors")
                    continue
                job = Job(entry.job_id, request, entry.cache_key, entry.priority)
                job.attempt = entry.attempt
                self._jobs[job.id] = job
                try:
                    highest_id = max(highest_id, int(entry.job_id[1:7]))
                except ValueError:
                    pass
                if entry.state == JobState.FAILED:
                    job.state = JobState.FAILED
                    job.error = dict(entry.error) if entry.error else {
                        "error": "internal",
                        "message": "job failed before shutdown",
                        "details": {},
                    }
                    job.error_status = entry.error_status
                    job.emit("failed", error=dict(job.error), replayed=True)
                    continue
                with use_recorder(self.recorder):
                    report = cached_report(self.cache, request, entry.cache_key)
                if report is not None:
                    job.report = report
                    job.from_cache = True
                    job.state = JobState.DONE
                    self.recorder.counter("service.cache_hits")
                    job.emit("cached", verdict=report.result.verdict, replayed=True)
                    continue
                # Queued, interrupted mid-run, or done with an evicted cache
                # entry: re-execute.  Same seed, bit-identical result.
                job.state = JobState.QUEUED
                self._inflight[entry.cache_key] = job
                self._enqueue(job)
                self.recorder.counter("service.replayed")
                requeued += 1
            span.annotate(requeued=requeued)
        self._ids = itertools.count(highest_id + 1)
        try:
            self._journal.compact()
        except Exception:
            self.recorder.counter("service.journal_errors")
        self._dispatch()
        return requeued

    # ------------------------------------------------------------------ #
    def get(self, job_id: str) -> Job:
        """The job for an id, or raise :class:`JobNotFound`."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise JobNotFound(job_id) from None

    async def wait(self, job_id: str) -> Job:
        """Return the job once it is terminal."""
        job = self.get(job_id)
        index = 0
        while not job.terminal:
            await job.next_event(index)
            index = len(job.events)
        return job

    async def events(
        self, job_id: str, after: Optional[int] = None
    ) -> AsyncIterator[Dict[str, object]]:
        """Replay a job's event log, then follow it live until a terminal
        event (``cached``/``done``/``failed``) is yielded.

        ``after`` is a resume cursor (the last event ``index`` a client
        already saw — SSE's ``Last-Event-ID``): replay starts at
        ``after + 1``.  A cursor beyond the end of a *terminal* job's log —
        possible when a restarted server replayed a shorter log — resends
        the final terminal event, so a resuming client always observes the
        outcome instead of hanging.
        """
        job = self.get(job_id)
        index = 0 if after is None else max(0, after + 1)
        if job.terminal and index >= len(job.events):
            if job.events:
                yield dict(job.events[-1])
            return
        index = min(index, len(job.events))
        while True:
            while index < len(job.events):
                event = job.events[index]
                index += 1
                yield dict(event)
                if event["event"] in TERMINAL_EVENTS:
                    return
            await job.next_event(index)

    def jobs_by_state(self) -> Dict[str, int]:
        counts = {state: 0 for state in (JobState.QUEUED, JobState.RUNNING, *JobState.TERMINAL)}
        for job in self._jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def metrics(self) -> Dict[str, object]:
        """The ``/metrics`` summary: job states, telemetry counters (the
        result cache's traffic among them, as ``cache.*``), per-span
        aggregates, queue/retry configuration, and the journal's and the
        result cache's disk shape."""
        spans: Dict[str, Dict[str, float]] = {}
        counters: Dict[str, int] = {}
        if isinstance(self.recorder, TraceRecorder):
            counters = dict(self.recorder.counters)
            for span in self.recorder.iter_spans():
                entry = spans.setdefault(span.name, {"count": 0, "wall_seconds": 0.0})
                entry["count"] += 1
                entry["wall_seconds"] += span.wall_seconds
        cache: Dict[str, object] = {"enabled": self.cache is not None}
        if self.cache is not None:
            cache["disk"] = self.cache.describe()
        journal: Dict[str, object] = {"enabled": self._journal is not None}
        if self._journal is not None:
            journal.update(self._journal.describe())
        return {
            "schema": WIRE_SCHEMA,
            "kind": "metrics",
            "jobs": self.jobs_by_state(),
            "inflight": len(self._inflight),
            "queue": {
                "depth": len(self._queue),
                "running": self._running,
                "max_queue": self.max_queue,
                "max_workers": self.max_workers,
            },
            "retry": {
                "max_retries": self.max_retries,
                "job_timeout": self.job_timeout,
                "backoff": self.backoff.describe(),
            },
            "journal": journal,
            "counters": counters,
            "spans": spans,
            "cache": cache,
        }

    async def close(self) -> None:
        """Graceful drain: refuse new submissions, let running attempts
        finish, leave still-queued jobs journaled for the next start, and
        compact + close the journal.  Idempotent."""
        self._closed = True
        # Undispatched jobs stay journaled as queued; they replay next start.
        self._queue.clear()
        while True:
            pending = [task for task in self._tasks if not task.done()]
            if not pending:
                break
            await asyncio.gather(*pending, return_exceptions=True)
        if self._journal is not None:
            try:
                self._journal.compact()
            except Exception:
                self.recorder.counter("service.journal_errors")
            self._journal.close()
