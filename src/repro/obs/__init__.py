"""repro.obs — structured tracing, metrics, and profiling hooks.

A zero-dependency telemetry subsystem for the experiment stack:

* :mod:`repro.obs.recorder` — the :class:`Recorder` protocol
  (spans/counters/histograms), the near-zero-overhead :class:`NullRecorder`
  default, the in-memory :class:`TraceRecorder`, and the ambient-recorder
  context (:func:`get_recorder` / :func:`use_recorder`);
* :mod:`repro.obs.sinks` — where finished exports go: the JSONL trace
  writer and reader, and the human-readable summary table.

The engine (compile/execute/chunks), the result cache (hit/miss/write
counters, lookup latency), the execution backends (per-task spans, worker
telemetry merged across process boundaries), the sequential-stopping rule
(round/trial counters, CI half-width trajectory), and the
:class:`~repro.api.Session` facade (one root span per request) all emit into
the ambient recorder; ``Session(telemetry=...)``, and the CLI's
``--trace``/``--metrics`` flags, select where the signals land.

Telemetry is observation only: no recorder code path draws randomness or
reorders trial streams, so every estimate is bit-identical with telemetry on
or off (pinned in ``tests/obs``).
"""

from repro.obs.recorder import (
    NULL_RECORDER,
    HistogramSummary,
    NullRecorder,
    Recorder,
    Span,
    TraceRecorder,
    get_recorder,
    pop_recorder,
    push_recorder,
    use_recorder,
)
from repro.obs.sinks import (
    iter_span_records,
    read_jsonl,
    render_summary,
    summarize,
    write_jsonl,
)

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
    "iter_span_records",
    "write_jsonl",
    "read_jsonl",
    "summarize",
    "render_summary",
]
