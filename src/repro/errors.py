"""The unified error taxonomy of the reproduction stack.

Every error the public layers raise deliberately derives from
:class:`ReproError`, which carries three things a transport can use
*mechanically* — no string matching, no per-exception special cases:

* ``code`` — a stable machine-readable identifier (``"unknown_parameter"``,
  ``"job_not_found"``, ...) that survives serialization;
* ``http_status`` — the status code an HTTP layer maps the error to;
* :meth:`ReproError.to_payload` — a JSON-able dict (``error``/``message``/
  ``details``) that round-trips over any wire.

Concrete errors live where they belong (spec-validation errors in
:mod:`repro.harness.registry`, compilation errors in
:mod:`repro.engine.compiler`) but share this base; the service-shaped errors
(:class:`JobNotFound`, :class:`ServiceUnavailable`) and the wire-format error
(:class:`WireFormatError`) are defined here because they belong to no deeper
layer.  Existing Python bases are preserved via multiple inheritance
(``SpecValidationError`` is still a ``ValueError``), so pre-taxonomy callers
catching stdlib exception types keep working.

:func:`error_payload` folds *any* exception into the same payload shape
(foreign exceptions become ``code="internal"``, status 500), which is what
lets :mod:`repro.service.http` map every failure to a response in one place.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Type

__all__ = [
    "ReproError",
    "JobNotFound",
    "ServiceUnavailable",
    "ShuttingDownError",
    "QueueFullError",
    "JobTimeoutError",
    "RetriesExhaustedError",
    "WireFormatError",
    "IRVerificationError",
    "error_payload",
    "error_class_for_code",
    "iter_error_classes",
]


class ReproError(Exception):
    """Base of every deliberate error in the stack.

    Subclasses override the class attributes ``code`` (stable identifier)
    and ``http_status`` (the mechanical HTTP mapping); instances may attach
    JSON-able ``details`` describing the specific failure.
    """

    code: str = "internal"
    http_status: int = 500

    def __init__(self, message: str = "", **details: object) -> None:
        super().__init__(message)
        self.details: Dict[str, object] = dict(details)

    def to_payload(self) -> Dict[str, object]:
        """The JSON-able wire form: ``{error, message, details}``."""
        return {
            "error": self.code,
            "message": str(self),
            "details": dict(self.details),
        }


class JobNotFound(ReproError, LookupError):
    """A job id unknown to the service (expired, mistyped, or never issued)."""

    code = "job_not_found"
    http_status = 404

    def __init__(self, job_id: str) -> None:
        super().__init__(f"unknown job {job_id!r}", job_id=job_id)


class ServiceUnavailable(ReproError):
    """The service cannot take the request (draining, closed, or saturated)."""

    code = "service_unavailable"
    http_status = 503


class ShuttingDownError(ServiceUnavailable):
    """The service received a drain signal: running jobs finish, queued jobs
    are journaled for the next start, and no new work is accepted.  Carries a
    ``retry_after`` hint (seconds) the HTTP layer turns into a header."""

    code = "shutting_down"
    http_status = 503


class QueueFullError(ServiceUnavailable):
    """Admission control rejected a submission: the queue is at its bound.

    Accepted work is never dropped — saturation is refused at the door with
    a ``retry_after`` hint instead of accepting a job the service cannot
    serve."""

    code = "queue_full"
    http_status = 429


class JobTimeoutError(ReproError):
    """A job's execution exceeded its deadline.  The supervising manager
    abandons the attempt; the failure is retryable under the manager's
    backoff policy."""

    code = "job_timeout"
    http_status = 504


class RetriesExhaustedError(ReproError):
    """A job kept failing retryably until the retry budget ran out; the
    ``details`` carry the last underlying error payload and attempt count."""

    code = "retries_exhausted"
    http_status = 500


class WireFormatError(ReproError, ValueError):
    """A wire record violates the versioned encoding contract
    (:mod:`repro.api.wire`): wrong schema version, wrong kind, or a missing /
    ill-shaped field."""

    code = "wire_format"
    http_status = 400


class IRVerificationError(ReproError, ValueError):
    """A compiled program violates the engine IR's structural contract
    (cycle, bad arity, probability outside ``[0, 1]``, draw index beyond the
    cap, or a closed-form claim that does not re-derive).

    Raised by :mod:`repro.check.ir`; defined here (not in the check package)
    so the engine can surface it without importing the analyzers.  A
    verification failure means the *compiler* produced a malformed program —
    an internal invariant break, hence status 500."""

    code = "ir_verification"
    http_status = 500


def error_payload(error: BaseException) -> Tuple[int, Dict[str, object]]:
    """The ``(http_status, payload)`` of any exception.

    :class:`ReproError` instances map through their own taxonomy entry;
    everything else is an internal error (500) whose payload still names the
    exception type, so a foreign failure is debuggable without leaking a
    traceback over the wire.
    """
    if isinstance(error, ReproError):
        return error.http_status, error.to_payload()
    return 500, {
        "error": "internal",
        "message": str(error) or error.__class__.__name__,
        "details": {"exception": error.__class__.__name__},
    }


def iter_error_classes() -> Tuple[Type[ReproError], ...]:
    """Every deliberate error class in the taxonomy, in registration order.

    The enumeration walks ``ReproError``'s subclass tree after importing the
    deeper layers that contribute members (spec validation, compilation), and
    yields exactly the classes that *declare their own* ``code`` — a subclass
    inheriting its parent's code is a refinement, not a taxonomy entry.
    Uniqueness of the codes is a tested invariant
    (``tests/api/test_errors.py``), so new members cannot silently collide.
    """
    # Imported lazily: the concrete errors live in deeper layers that import
    # this module themselves.
    import repro.engine.compiler  # noqa: F401
    import repro.engine.construct  # noqa: F401
    import repro.harness.registry  # noqa: F401

    classes: List[Type[ReproError]] = []
    pending: List[Type[ReproError]] = list(ReproError.__subclasses__())
    while pending:
        cls = pending.pop(0)
        if "code" in cls.__dict__:
            classes.append(cls)
        pending.extend(cls.__subclasses__())
    return tuple(classes)


def error_class_for_code(code: str) -> Optional[Type[ReproError]]:
    """The :class:`ReproError` subclass registered for a wire ``code`` (used
    by :class:`repro.api.Client` to re-raise server-side errors as their
    original types), or ``None`` for unknown/internal codes."""
    for cls in iter_error_classes():
        if cls.code == code:
            return cls
    return None
