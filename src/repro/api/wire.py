"""The versioned wire format of the experiment stack.

Everything that crosses a process or network boundary — the HTTP service's
request/result bodies, SSE event payloads, the job journal — goes through this
module, so there is exactly **one** serialization of a run request and of an
experiment result.  Every record is a plain JSON-able dict carrying:

* ``schema`` — the wire format version (:data:`WIRE_SCHEMA`).  Decoders
  reject versions they do not understand with :class:`~repro.errors.WireFormatError`
  instead of guessing; bump the constant when a record's shape changes.
* ``kind`` — what the record is (``run_request`` / ``experiment_result`` /
  ``job`` / ``event`` / ``journal``), so a decoder handed the wrong record
  fails loudly rather than mis-parsing.

Encode/decode are exact inverses on the supported types: a decoded request
equals the original :class:`~repro.api.session.RunRequest` (property-tested
in ``tests/api/test_wire.py``), and a decoded result compares equal to the
original :class:`~repro.harness.results.ExperimentResult` field by field.
Note the JSON normalization the stack already relies on: tuple-valued
parameters encode as lists, which is exactly the normalized form
:meth:`RunRequest.create` stores, so round-tripping never changes a cache
key.
"""

from __future__ import annotations

from typing import Dict, Mapping, Union

from repro.api.session import PRESET_FULL, RunRequest
from repro.errors import WireFormatError
from repro.harness.results import ExperimentResult

__all__ = [
    "WIRE_SCHEMA",
    "JOURNAL_EVENTS",
    "encode_request",
    "decode_request",
    "encode_result",
    "decode_result",
    "encode_journal_record",
    "decode_journal_record",
]

#: Version of the wire encoding.  Decoders accept exactly this version.
WIRE_SCHEMA = 1

KIND_REQUEST = "run_request"
KIND_RESULT = "experiment_result"
KIND_JOURNAL = "journal"

#: The job-lifecycle transitions a journal record may carry, in state-machine
#: order: ``submit`` (request accepted), ``start`` (a worker picked it up),
#: ``retry`` (a retryable failure re-enqueued it), ``done``/``failed``
#: (terminal).
JOURNAL_EVENTS = ("submit", "start", "retry", "done", "failed")


def _require_record(record: object, kind: str) -> Dict[str, object]:
    """Validate the envelope (dict, schema, kind) every decoder shares."""
    if not isinstance(record, Mapping):
        raise WireFormatError(
            f"expected a {kind} record (a mapping), got {type(record).__name__}",
            kind=kind,
        )
    schema = record.get("schema")
    if schema != WIRE_SCHEMA:
        raise WireFormatError(
            f"unsupported wire schema {schema!r} (this build speaks {WIRE_SCHEMA})",
            kind=kind,
            schema=schema,
        )
    actual = record.get("kind")
    if actual != kind:
        raise WireFormatError(
            f"expected a {kind!r} record, got kind={actual!r}", kind=kind, actual=actual
        )
    return dict(record)


# --------------------------------------------------------------------------- #
# Run requests
# --------------------------------------------------------------------------- #
def encode_request(request: Union[RunRequest, Mapping[str, object]]) -> Dict[str, object]:
    """The wire record of one run request.

    Accepts a :class:`RunRequest` or an already payload-shaped mapping
    (``experiment_id``/``parameters``/``preset`` — what
    :meth:`RunRequest.to_payload` produces).
    """
    if isinstance(request, RunRequest):
        payload = request.to_payload()
    else:
        payload = dict(request)
    if "experiment_id" not in payload:
        raise WireFormatError("run request without an experiment_id", kind=KIND_REQUEST)
    return {
        "schema": WIRE_SCHEMA,
        "kind": KIND_REQUEST,
        "experiment_id": str(payload["experiment_id"]),
        "parameters": dict(payload.get("parameters") or {}),
        "preset": str(payload.get("preset", PRESET_FULL)),
    }


def decode_request(record: object) -> RunRequest:
    """The :class:`RunRequest` a wire record describes (inverse of
    :func:`encode_request` up to the tuple/list normalization the request
    class itself applies)."""
    fields = _require_record(record, KIND_REQUEST)
    parameters = fields.get("parameters")
    if not isinstance(parameters, Mapping):
        raise WireFormatError(
            f"run request parameters must be a mapping, got {type(parameters).__name__}",
            kind=KIND_REQUEST,
        )
    experiment_id = fields.get("experiment_id")
    if not isinstance(experiment_id, str) or not experiment_id:
        raise WireFormatError("run request without an experiment_id", kind=KIND_REQUEST)
    return RunRequest.create(
        experiment_id,
        dict(parameters),
        preset=str(fields.get("preset", PRESET_FULL)),
    )


# --------------------------------------------------------------------------- #
# Experiment results
# --------------------------------------------------------------------------- #
def encode_result(result: ExperimentResult, **provenance: object) -> Dict[str, object]:
    """The wire record of one result; ``provenance`` (e.g. ``from_cache``,
    ``duration_seconds``) rides alongside the result body."""
    return {
        "schema": WIRE_SCHEMA,
        "kind": KIND_RESULT,
        "result": result.to_dict(),
        "provenance": dict(provenance),
    }


def decode_result(record: object) -> ExperimentResult:
    """The :class:`ExperimentResult` a wire record carries."""
    fields = _require_record(record, KIND_RESULT)
    body = fields.get("result")
    if not isinstance(body, Mapping):
        raise WireFormatError(
            f"result record body must be a mapping, got {type(body).__name__}",
            kind=KIND_RESULT,
        )
    try:
        return ExperimentResult.from_dict(body)
    except (KeyError, TypeError, ValueError) as error:
        raise WireFormatError(
            f"result record body is not an ExperimentResult: {error}", kind=KIND_RESULT
        ) from error


# --------------------------------------------------------------------------- #
# Journal records
# --------------------------------------------------------------------------- #
def encode_journal_record(event: str, job_id: str, **fields: object) -> Dict[str, object]:
    """The wire record of one job-lifecycle transition (the write-ahead log
    line of :class:`repro.service.journal.JobJournal`).

    ``event`` must be one of :data:`JOURNAL_EVENTS`; ``fields`` carry the
    per-event payload (``request``/``cache_key``/``priority`` on submit,
    ``attempt`` on start/retry, the error payload on failed).
    """
    if event not in JOURNAL_EVENTS:
        raise WireFormatError(
            f"unknown journal event {event!r} (expected one of {', '.join(JOURNAL_EVENTS)})",
            kind=KIND_JOURNAL,
            event=event,
        )
    if not isinstance(job_id, str) or not job_id:
        raise WireFormatError("journal record without a job_id", kind=KIND_JOURNAL)
    record: Dict[str, object] = {
        "schema": WIRE_SCHEMA,
        "kind": KIND_JOURNAL,
        "event": event,
        "job_id": job_id,
    }
    record.update(fields)
    return record


def decode_journal_record(record: object) -> Dict[str, object]:
    """Validate and return one journal record (inverse of
    :func:`encode_journal_record`); raises
    :class:`~repro.errors.WireFormatError` on a foreign or ill-shaped
    record — which is exactly what lets replay distinguish a torn tail from
    a healthy line."""
    fields = _require_record(record, KIND_JOURNAL)
    event = fields.get("event")
    if event not in JOURNAL_EVENTS:
        raise WireFormatError(
            f"unknown journal event {event!r}", kind=KIND_JOURNAL, event=event
        )
    job_id = fields.get("job_id")
    if not isinstance(job_id, str) or not job_id:
        raise WireFormatError("journal record without a job_id", kind=KIND_JOURNAL)
    return fields
