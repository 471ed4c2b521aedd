"""Recorders: the zero-dependency telemetry core of :mod:`repro.obs`.

The whole stack is instrumented against one tiny protocol — a
:class:`Recorder` accepts nested **spans** (named timings with attributes,
wall and CPU clocks), monotonic **counters**, and **histograms** (summaries
of repeated observations).  Two implementations exist:

* :class:`NullRecorder` — the default everywhere.  Every method is a no-op
  returning shared singletons; the per-call cost of an instrumented site is
  one :func:`get_recorder` lookup plus an allocation-free context-manager
  enter/exit, so the hot engine loops pay effectively nothing when telemetry
  is off (``tests/obs`` pins an overhead bound).
* :class:`TraceRecorder` — collects a real span tree plus counter/histogram
  maps in memory, exports them as plain JSON-able dicts
  (:meth:`TraceRecorder.export`), and merges exports produced by *other*
  processes (:meth:`TraceRecorder.merge`) — the cross-process contract the
  ``process-pool`` backend uses to carry worker telemetry back to the
  parent.

The ambient recorder is carried in a :class:`contextvars.ContextVar`:
instrumented layers call :func:`get_recorder` instead of threading a
recorder parameter through every signature, and :class:`repro.api.Session`
installs its recorder around each run (``push_recorder``/``pop_recorder``
for generator-shaped callers, :func:`use_recorder` otherwise).  Worker
processes start from the default (null) recorder, so telemetry never leaks
across process boundaries except through the explicit export/merge path.

Invariants, by construction: recorders only ever *observe* (clocks and
Python object graphs) — no code path here draws randomness, touches tapes,
or reorders trials, so ``telemetry=on`` vs ``off`` is bit-identical on every
estimate, and a trace may differ across block sizes/backends while the
results may not.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar, Token
from typing import Dict, Iterator, List, Optional

__all__ = [
    "Span",
    "HistogramSummary",
    "Recorder",
    "NullRecorder",
    "TraceRecorder",
    "NULL_RECORDER",
    "get_recorder",
    "push_recorder",
    "pop_recorder",
    "use_recorder",
]


class Span:
    """One named, attributed, nested timing.

    ``wall_seconds``/``cpu_seconds`` are filled when the span closes;
    ``started_at`` is an epoch timestamp (for cross-process interleaving in
    merged traces), while the durations come from the monotonic
    ``perf_counter``/``process_time`` clocks.
    """

    __slots__ = (
        "name",
        "attributes",
        "children",
        "started_at",
        "wall_seconds",
        "cpu_seconds",
        "_start_wall",
        "_start_cpu",
    )

    def __init__(self, name: str, attributes: Optional[Dict[str, object]] = None) -> None:
        self.name = str(name)
        self.attributes: Dict[str, object] = dict(attributes) if attributes else {}
        self.children: List["Span"] = []
        self.started_at = 0.0
        self.wall_seconds = 0.0
        self.cpu_seconds = 0.0
        self._start_wall = 0.0
        self._start_cpu = 0.0

    def annotate(self, **attributes: object) -> None:
        """Attach attributes after the span opened (e.g. values computed
        inside the instrumented block)."""
        self.attributes.update(attributes)

    def walk(self) -> Iterator["Span"]:
        """Depth-first over this span and every descendant."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "attributes": dict(self.attributes),
            "started_at": self.started_at,
            "wall_seconds": self.wall_seconds,
            "cpu_seconds": self.cpu_seconds,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "Span":
        span = cls(str(record.get("name", "?")), dict(record.get("attributes") or {}))
        span.started_at = float(record.get("started_at", 0.0))
        span.wall_seconds = float(record.get("wall_seconds", 0.0))
        span.cpu_seconds = float(record.get("cpu_seconds", 0.0))
        span.children = [cls.from_dict(child) for child in record.get("children") or []]
        return span


class HistogramSummary:
    """Streaming summary of repeated observations: count/total/min/max plus
    the raw values up to a cap (enough for CI-trajectory inspection without
    unbounded growth)."""

    __slots__ = ("count", "total", "minimum", "maximum", "values")

    #: Raw observations kept per histogram; the summary stays exact beyond it.
    MAX_VALUES = 4096

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")
        self.values: List[float] = []

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        if len(self.values) < self.MAX_VALUES:
            self.values.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "values": list(self.values),
        }

    def merge_dict(self, record: Dict[str, object]) -> None:
        count = int(record.get("count", 0))
        if count <= 0:
            return
        self.count += count
        self.total += float(record.get("total", 0.0))
        if record.get("min") is not None:
            self.minimum = min(self.minimum, float(record["min"]))
        if record.get("max") is not None:
            self.maximum = max(self.maximum, float(record["max"]))
        room = self.MAX_VALUES - len(self.values)
        if room > 0:
            self.values.extend(float(v) for v in (record.get("values") or [])[:room])


class _NullSpan:
    """The shared no-op span handle: context manager and span in one."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def annotate(self, **attributes: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Recorder:
    """The telemetry protocol every instrumented layer talks to.

    The base class *is* the null behaviour — :class:`NullRecorder` only
    exists as a distinct name — so a custom recorder may override exactly
    the signals it cares about.
    """

    #: Whether this recorder actually retains data.  Hot paths may guard
    #: non-trivial attribute computation behind this flag; the plain
    #: ``span``/``counter``/``histogram`` calls are cheap enough unguarded.
    active = False

    def span(self, name: str, **attributes: object):
        """A context manager timing one named block; the yielded object
        supports ``annotate(**attrs)``."""
        return _NULL_SPAN

    def counter(self, name: str, value: int = 1) -> None:
        """Increment a monotonic counter."""

    def histogram(self, name: str, value: float) -> None:
        """Record one observation of a repeated measurement."""

    def annotate(self, **attributes: object) -> None:
        """Attach attributes to the innermost open span, if any."""


class NullRecorder(Recorder):
    """The default recorder: retains nothing, costs (almost) nothing."""


#: The process-wide default recorder (also the contextvar default).
NULL_RECORDER = NullRecorder()


class _SpanHandle:
    """Context manager pushing/popping one span on a :class:`TraceRecorder`."""

    __slots__ = ("_recorder", "span")

    def __init__(self, recorder: "TraceRecorder", span: Span) -> None:
        self._recorder = recorder
        self.span = span

    def __enter__(self) -> Span:
        recorder = self._recorder
        parent = recorder._stack[-1] if recorder._stack else None
        (parent.children if parent is not None else recorder.spans).append(self.span)
        recorder._stack.append(self.span)
        self.span.started_at = time.time()
        self.span._start_wall = time.perf_counter()
        self.span._start_cpu = time.process_time()
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self.span
        span.wall_seconds = time.perf_counter() - span._start_wall
        span.cpu_seconds = time.process_time() - span._start_cpu
        if exc_type is not None:
            span.attributes.setdefault("error", exc_type.__name__)
        stack = self._recorder._stack
        # Pop up to and including this span: robust against a child handle
        # leaked past its parent's exit (never expected, never fatal).
        while stack and stack.pop() is not span:
            pass
        return False


class TraceRecorder(Recorder):
    """Collect a span tree plus counters and histograms in memory.

    ``spans`` holds the finished root spans in open order; counters are
    plain monotonic sums; histograms are :class:`HistogramSummary` values.
    :meth:`export` renders everything as JSON-able dicts for the sinks in
    :mod:`repro.obs.sinks`, and :meth:`merge` grafts an export produced in
    another process under the currently open span (the parent-side half of
    the cross-process contract).
    """

    active = True

    #: Version marker of the export layout.
    EXPORT_SCHEMA = 1

    def __init__(self) -> None:
        # A recorder belongs to the thread that created it (worker recorders
        # are merged into the parent via export/merge, never shared live).
        self.spans: List[Span] = []  # loop-confined
        self.counters: Dict[str, int] = {}  # loop-confined
        self.histograms: Dict[str, HistogramSummary] = {}  # loop-confined
        self._stack: List[Span] = []  # loop-confined

    # ------------------------------------------------------------------ #
    def span(self, name: str, **attributes: object) -> _SpanHandle:
        return _SpanHandle(self, Span(name, attributes))

    def counter(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + int(value)

    def histogram(self, name: str, value: float) -> None:
        summary = self.histograms.get(name)
        if summary is None:
            summary = self.histograms[name] = HistogramSummary()
        summary.observe(float(value))

    @property
    def current_span(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def annotate(self, **attributes: object) -> None:
        if self._stack:
            self._stack[-1].annotate(**attributes)

    def iter_spans(self) -> Iterator[Span]:
        """Depth-first over every recorded span."""
        for root in self.spans:
            yield from root.walk()

    # ------------------------------------------------------------------ #
    def export(self) -> Dict[str, object]:
        """The JSON-able form of everything recorded so far."""
        return {
            "schema": self.EXPORT_SCHEMA,
            "spans": [span.to_dict() for span in self.spans],
            "counters": dict(self.counters),
            "histograms": {name: hist.to_dict() for name, hist in self.histograms.items()},
        }

    def merge(self, export: Dict[str, object]) -> None:
        """Graft another recorder's export into this one.

        Spans attach as children of the currently open span (or as new
        roots), counters sum, histogram summaries combine — so a parent that
        merges its workers' exports reads as one coherent trace.
        """
        parent = self.current_span
        target = parent.children if parent is not None else self.spans
        for record in export.get("spans") or []:
            target.append(Span.from_dict(record))
        for name, value in (export.get("counters") or {}).items():
            self.counter(str(name), int(value))
        for name, record in (export.get("histograms") or {}).items():
            summary = self.histograms.get(name)
            if summary is None:
                summary = self.histograms[name] = HistogramSummary()
            summary.merge_dict(record)


# --------------------------------------------------------------------------- #
# The ambient recorder
# --------------------------------------------------------------------------- #
_CURRENT: ContextVar[Recorder] = ContextVar("repro-obs-recorder", default=NULL_RECORDER)


def get_recorder() -> Recorder:
    """The ambient recorder of the current context (default: the shared
    :data:`NULL_RECORDER`)."""
    return _CURRENT.get()


def push_recorder(recorder: Recorder) -> Token:
    """Install ``recorder`` as the ambient one; returns the token for
    :func:`pop_recorder`.  Generator-shaped callers (which cannot hold a
    ``with`` across yields without leaking context) pair these explicitly in
    ``try``/``finally``."""
    return _CURRENT.set(recorder)


def pop_recorder(token: Token) -> None:
    _CURRENT.reset(token)


@contextmanager
def use_recorder(recorder: Recorder) -> Iterator[Recorder]:
    """``with use_recorder(r):`` — install ``r`` for the duration of a block."""
    token = push_recorder(recorder)
    try:
        yield recorder
    finally:
        pop_recorder(token)
