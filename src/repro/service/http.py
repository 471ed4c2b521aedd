"""A zero-dependency HTTP front end for :class:`~repro.service.JobManager`.

The server is a hand-rolled HTTP/1.1 implementation over
:func:`asyncio.start_server` — stdlib only, one connection per request
(``Connection: close``), JSON bodies throughout.  Routes (all under
``/v1``):

=========================  ======================================================
``GET  /v1/health``        liveness + the service's wire schema version
``GET  /v1/experiments``   the registry index (id, title, capabilities)
``POST /v1/jobs``          submit a wire-encoded RunRequest; returns the job
                           record (``deduplicated`` marks single-flight joins)
``GET  /v1/jobs/<id>``     the job record (state: queued/running/done/failed)
``GET  /v1/jobs/<id>/result``  the wire-encoded result (409 until terminal,
                           the job's error payload when failed)
``GET  /v1/jobs/<id>/events``  SSE stream: replays the job's event log, then
                           follows live until a terminal event.  Every frame
                           carries an ``id:`` line (the event's log index);
                           a reconnecting client sends ``Last-Event-ID`` to
                           resume exactly where its stream was severed
``GET  /v1/metrics``       job states, counters, span aggregates, queue and
                           journal shape, cache stats
=========================  ======================================================

Error mapping is **mechanical**: every handler failure goes through
:func:`repro.errors.error_payload`, so the taxonomy's ``http_status`` /
``to_payload`` is the single source of truth — the HTTP layer contains no
per-exception cases.  Backpressure responses (429 queue-full, 503 draining)
automatically carry a ``Retry-After`` header taken from the error's
``retry_after`` detail.  Each request is traced as a ``service.request``
span on a per-request recorder merged into the manager's (so ``/metrics``
sees request spans without cross-task nesting artifacts).

Crash safety: with ``journal_dir`` set the service replays the job journal
*before* accepting connections, and :func:`serve` installs a SIGTERM/SIGINT
handler that drains gracefully — running jobs finish, queued jobs stay
journaled for the next start, and only then does the process exit.

:class:`ServiceThread` hosts a service on a daemon thread for tests and
embedders (the server runs in-process, so custom registries work);
:func:`serve` is the blocking entry point behind ``python -m repro serve``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import re
import signal
import threading
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.api.wire import WIRE_SCHEMA, decode_request, encode_result
from repro.engine.cache import ResultCache
from repro.errors import WireFormatError, error_payload
from repro.faults import FaultPlan
from repro.harness.registry import ExperimentRegistry
from repro.obs import TraceRecorder
from repro.retry import BackoffPolicy
from repro.service.jobs import JobManager, JobState

__all__ = ["ExperimentService", "ServiceThread", "serve"]

#: Largest accepted request body; submissions are small JSON documents.
MAX_BODY_BYTES = 4 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Statuses whose responses advertise when to come back.
_RETRY_AFTER_STATUSES = (429, 503)

_JOB_ROUTE = re.compile(r"^/v1/jobs/(?P<job_id>[^/]+)(?P<tail>/result|/events)?$")


class _HttpError(Exception):
    """A malformed-request failure with a fixed status (pre-taxonomy: these
    never reach the error registry because no repro code raised them)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


class ExperimentService:
    """The asyncio server owning one :class:`JobManager`.

    Construct, then either ``await start_async()`` inside a running loop
    (tests, embedding) or call the blocking :func:`serve` helper.  ``port=0``
    binds an ephemeral port; the bound address is ``self.address`` once
    started.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8765,
        registry: Optional[ExperimentRegistry] = None,
        cache: Union[bool, None, str, Path, ResultCache] = True,
        max_workers: Optional[int] = None,
        journal_dir: Union[None, str, Path] = None,
        job_timeout: Optional[float] = None,
        max_retries: int = 0,
        max_queue: Optional[int] = None,
        backoff: Optional[BackoffPolicy] = None,
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.manager = JobManager(
            registry=registry,
            cache=cache,
            max_workers=max_workers,
            journal_dir=journal_dir,
            job_timeout=job_timeout,
            max_retries=max_retries,
            max_queue=max_queue,
            backoff=backoff,
            faults=faults,
        )
        self._server: Optional[asyncio.AbstractServer] = None

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("service not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------ #
    async def start_async(self) -> Tuple[str, int]:
        # Replay the journal before the first connection can race it.
        await self.manager.start()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        return self.address

    async def serve_forever(self) -> None:
        if self._server is None:
            await self.start_async()
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop_async(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.close()

    # ------------------------------------------------------------------ #
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        recorder = TraceRecorder()
        try:
            try:
                method, path, headers, body = await self._read_request(reader)
            except _HttpError as error:
                await self._send_json(
                    writer, error.status, {"error": "bad_request", "message": str(error)}
                )
                return
            self.manager.recorder.counter("service.requests")
            with recorder.span("service.request", method=method, path=path) as span:
                try:
                    if path.startswith("/v1/jobs/") and path.endswith("/events"):
                        # SSE writes incrementally; it cannot go through the
                        # buffered JSON response path.
                        await self._route_events(writer, method, path, headers)
                        span.annotate(status=200)
                        return
                    status, payload = await self._route(method, path, body)
                except _HttpError as error:
                    status, payload = error.status, {
                        "error": "bad_request",
                        "message": str(error),
                    }
                except Exception as error:  # noqa: BLE001 - mechanical mapping
                    status, payload = error_payload(error)
                span.annotate(status=status)
            await self._send_json(writer, status, payload)
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            pass  # client went away mid-response; nothing to answer
        finally:
            # Merge on the loop thread: per-request recorders keep span
            # nesting correct even with interleaved handler tasks.
            if isinstance(self.manager.recorder, TraceRecorder):
                self.manager.recorder.merge(recorder.export())
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], bytes]:
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise _HttpError(400, "request line too long") from None
        parts = request_line.decode("latin1").split()
        if len(parts) != 3:
            raise _HttpError(400, "malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin1").partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"request body over {MAX_BODY_BYTES} bytes")
        body = await reader.readexactly(length) if length else b""
        path = target.split("?", 1)[0]
        return method.upper(), path, headers, body

    # ------------------------------------------------------------------ #
    async def _route(self, method: str, path: str, body: bytes) -> Tuple[int, Dict[str, object]]:
        if path == "/v1/health":
            self._expect(method, "GET")
            return 200, {"schema": WIRE_SCHEMA, "kind": "health", "status": "ok"}
        if path == "/v1/experiments":
            self._expect(method, "GET")
            return 200, {
                "schema": WIRE_SCHEMA,
                "kind": "experiments",
                "experiments": [
                    {
                        "experiment_id": experiment_id,
                        "title": spec.title,
                        "capabilities": sorted(spec.capabilities),
                    }
                    for experiment_id, spec in self.manager.registry.items()
                ],
            }
        if path == "/v1/metrics":
            self._expect(method, "GET")
            return 200, self.manager.metrics()
        if path == "/v1/jobs":
            self._expect(method, "POST")
            record = self._parse_body(body)
            # Priority rides alongside the wire-encoded request: it is a
            # service instruction, not part of the request's identity (two
            # submissions at different priorities still dedupe together).
            priority = record.pop("priority", 0)
            if not isinstance(priority, int) or isinstance(priority, bool):
                raise WireFormatError("priority must be an integer")
            request = decode_request(record)
            job, deduplicated = await self.manager.submit(request, priority=priority)
            return 200, job.snapshot(deduplicated=deduplicated)
        match = _JOB_ROUTE.match(path)
        if match is not None:
            self._expect(method, "GET")
            job = self.manager.get(match.group("job_id"))
            if match.group("tail") == "/result":
                return self._result_response(job)
            return 200, job.snapshot()
        raise _HttpError(404, f"no route for {path}")

    def _result_response(self, job) -> Tuple[int, Dict[str, object]]:
        if job.state == JobState.FAILED:
            return job.error_status, dict(job.error or {})
        if job.report is None:
            return 409, {
                "error": "job_not_terminal",
                "message": f"job {job.id} is {job.state}; result not available yet",
                "details": {"job_id": job.id, "state": job.state},
            }
        report = job.report
        return 200, encode_result(
            report.result,
            job_id=job.id,
            from_cache=report.from_cache,
            cache_key=job.cache_key,
            duration_seconds=report.duration_seconds,
        )

    async def _route_events(
        self,
        writer: asyncio.StreamWriter,
        method: str,
        path: str,
        headers: Dict[str, str],
    ) -> None:
        match = _JOB_ROUTE.match(path)
        assert match is not None and match.group("tail") == "/events"
        try:
            self._expect(method, "GET")
            self.manager.get(match.group("job_id"))  # 404 before headers go out
        except Exception as error:  # noqa: BLE001 - mechanical mapping
            status, payload = (
                (error.status, {"error": "bad_request", "message": str(error)})
                if isinstance(error, _HttpError)
                else error_payload(error)
            )
            await self._send_json(writer, status, payload)
            return
        # SSE resume: a reconnecting client reports the last event index it
        # saw; replay starts right after it.
        after: Optional[int] = None
        raw_cursor = headers.get("last-event-id", "")
        if raw_cursor:
            try:
                after = int(raw_cursor)
            except ValueError:
                after = None
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        faults = self.manager.faults
        async for event in self.manager.events(match.group("job_id"), after=after):
            if faults is not None:
                action = faults.fire("sse.stream")
                if action is not None and action.kind == "drop":
                    # Sever the stream mid-flight; the client's resume path
                    # (Last-Event-ID) is what recovers from this.
                    self.manager.recorder.counter("service.sse_drops")
                    return
            chunk = (
                f"id: {event.get('index', 0)}\n"
                f"event: {event['event']}\n"
                f"data: {json.dumps(event, sort_keys=True)}\n\n"
            )
            writer.write(chunk.encode("utf8"))
            await writer.drain()

    # ------------------------------------------------------------------ #
    @staticmethod
    def _expect(method: str, allowed: str) -> None:
        if method != allowed:
            raise _HttpError(405, f"method {method} not allowed (use {allowed})")

    @staticmethod
    def _parse_body(body: bytes) -> Dict[str, object]:
        try:
            record = json.loads(body.decode("utf8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise WireFormatError(f"request body is not valid JSON: {error}") from None
        if not isinstance(record, dict):
            raise WireFormatError("request body must be a JSON object")
        return record

    @staticmethod
    async def _send_json(writer: asyncio.StreamWriter, status: int, payload: object) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf8")
        extra = ""
        if status in _RETRY_AFTER_STATUSES and isinstance(payload, dict):
            # Backpressure responses tell the client when to come back; the
            # hint comes from the error's own details (deterministic, from
            # the backoff policy), defaulting to one second.
            details = payload.get("details")
            hint = details.get("retry_after") if isinstance(details, dict) else None
            if not isinstance(hint, (int, float)) or hint <= 0:
                hint = 1.0
            extra = f"Retry-After: {max(1, int(round(hint)))}\r\n"
        head = (
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin1") + body)
        await writer.drain()


class ServiceThread:
    """Host an :class:`ExperimentService` on a daemon thread.

    For tests and embedders: the server shares the caller's process (custom
    registries and temp caches work), while the caller keeps a plain
    blocking world.  Usable as a context manager::

        with ServiceThread(port=0, cache=tmp_path) as service:
            client = Client(service.url)
    """

    def __init__(self, **service_kwargs: object) -> None:
        self.service = ExperimentService(**service_kwargs)  # type: ignore[arg-type]
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    @property
    def url(self) -> str:
        return self.service.url

    @property
    def manager(self) -> JobManager:
        return self.service.manager

    def start(self, timeout: float = 10.0) -> "ServiceThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise RuntimeError("service thread did not start in time")
        if self._startup_error is not None:
            raise RuntimeError("service failed to start") from self._startup_error
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self.service.start_async())
        except BaseException as error:  # pragma: no cover - startup failure path
            self._startup_error = error
            self._started.set()
            loop.close()
            return
        self._started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(self.service.stop_async())
            loop.close()

    def stop(self, timeout: float = 30.0) -> None:
        if self._loop is not None and self._thread is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout)
        self._loop = None
        self._thread = None

    def __enter__(self) -> "ServiceThread":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()


def serve(
    host: str = "127.0.0.1",
    port: int = 8765,
    registry: Optional[ExperimentRegistry] = None,
    cache: Union[bool, None, str, Path, ResultCache] = True,
    max_workers: Optional[int] = None,
    journal_dir: Union[None, str, Path] = None,
    job_timeout: Optional[float] = None,
    max_retries: int = 0,
    max_queue: Optional[int] = None,
    stream=None,
) -> int:
    """Run the service until interrupted (the ``repro serve`` entry point).

    SIGTERM and SIGINT trigger a graceful drain: the listener closes,
    running jobs finish (their ``done`` records reach the journal), queued
    jobs stay journaled for the next start, and only then does the process
    exit.  A second signal during the drain is ignored — the drain is the
    shutdown path.
    """

    async def _main() -> None:
        service = ExperimentService(
            host=host,
            port=port,
            registry=registry,
            cache=cache,
            max_workers=max_workers,
            journal_dir=journal_dir,
            job_timeout=job_timeout,
            max_retries=max_retries,
            max_queue=max_queue,
        )
        await service.start_async()
        if stream is not None:
            bound_host, bound_port = service.address
            stream.write(f"repro service listening on http://{bound_host}:{bound_port}\n")
            stream.flush()
        loop = asyncio.get_running_loop()
        drain = asyncio.Event()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, drain.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # platforms without loop signal handlers fall back to KeyboardInterrupt
        server_task = asyncio.create_task(service.serve_forever())
        drain_task = asyncio.create_task(drain.wait())
        try:
            await asyncio.wait({server_task, drain_task}, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for task in (server_task, drain_task):
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await task
            await service.stop_async()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    return 0
