"""The machine-readable telemetry taxonomy: every span, counter, and
histogram name the stack may emit.

DESIGN.md's "Span taxonomy" section is **rendered from this registry**
(:func:`render_taxonomy_markdown`; ``tests/check/test_taxonomy.py`` pins the
rendered block against the committed document), and the OBS001 lint rule
(:mod:`repro.check.lint`) verifies that every ``span("...")`` /
``counter("...")`` / ``histogram("...")`` string literal in ``src/repro``
names a registered signal — so the code, the docs, and this table cannot
drift apart.

Adding a signal is therefore a three-line change: append a
:class:`Signal` entry here, emit it, and re-render the DESIGN.md block
(paste the output of ``python -c "from repro.obs.taxonomy import
render_taxonomy_markdown; print(render_taxonomy_markdown())"``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Tuple

__all__ = [
    "Signal",
    "SIGNALS",
    "SPAN_NAMES",
    "COUNTER_NAMES",
    "HISTOGRAM_NAMES",
    "signal_names",
    "render_taxonomy_markdown",
]

#: The three signal kinds of the :class:`repro.obs.Recorder` protocol.
KINDS = ("span", "counter", "histogram")


@dataclass(frozen=True)
class Signal:
    """One registered telemetry signal.

    ``layer`` is the emitting module (repo-relative inside ``src/repro``),
    which doubles as the owning layer for review purposes; ``description``
    is the one-line meaning rendered into DESIGN.md.
    """

    name: str
    kind: str  # "span" | "counter" | "histogram"
    layer: str
    description: str


SIGNALS: Tuple[Signal, ...] = (
    # -- spans ----------------------------------------------------------- #
    Signal(
        "session.request",
        "span",
        "api/session.py",
        "root span, one per `RunRequest`: experiment id, preset, cache key, "
        "engine mode, backend, `from_cache`",
    ),
    Signal(
        "backend.task",
        "span",
        "api/backends.py",
        "per group, parent side: first experiment id, point count; the pool "
        "backend adds queue-wait vs compute seconds",
    ),
    Signal(
        "backend.worker",
        "span",
        "api/backends.py",
        "per group, worker side, pool only: worker pid, first experiment "
        "id, point count, queue wait",
    ),
    Signal("parallel.submit", "span", "engine/parallel.py", "task count, worker count"),
    Signal(
        "engine.compile",
        "span",
        "engine/compiler.py",
        "decider name, node & program counts",
    ),
    Signal(
        "engine.compile_construction",
        "span",
        "engine/construct.py",
        "constructor name, node & program counts, alphabet size",
    ),
    Signal(
        "engine.execute",
        "span",
        "engine/executor.py",
        "op (`stream` with its offset, or `vote_matrix`), trials, node & "
        "random-node counts",
    ),
    Signal(
        "engine.construct",
        "span",
        "engine/construct.py",
        "one construction batch: trials, offset, node & random-node counts",
    ),
    Signal(
        "engine.fuse",
        "span",
        "api/session.py",
        "one fused sweep: experiment id, point/group counts, fused points, "
        "backend",
    ),
    Signal(
        "engine.fuse_group",
        "span",
        "engine/fusion.py",
        "one backend group's execution under the construction memo (every "
        "request, or a fused sweep's points): point count, then hit/miss and "
        "retained-byte tallies on close",
    ),
    Signal(
        "cache.lookup",
        "span",
        "engine/cache.py",
        "key prefix, outcome (hit / miss / corrupt)",
    ),
    Signal("cache.write", "span", "engine/cache.py", "key prefix"),
    Signal(
        "stats.sequential_estimate",
        "span",
        "stats/stopping.py",
        "method, precision target, realised trials, stop reason "
        "(precision vs budget)",
    ),
    Signal(
        "service.request",
        "span",
        "service/http.py",
        "one per HTTP request: method, path, status",
    ),
    Signal(
        "service.queue_wait",
        "span",
        "service/jobs.py",
        "submission → worker pickup: job id, experiment id",
    ),
    Signal(
        "service.execute",
        "span",
        "service/jobs.py",
        "one per actual execution (the single-flight acceptance check): "
        "job id, experiment id, cache key, attempt, verdict",
    ),
    Signal(
        "service.retry",
        "span",
        "service/jobs.py",
        "one backoff sleep before a re-enqueue: job id, attempt, delay",
    ),
    Signal(
        "service.replay",
        "span",
        "service/jobs.py",
        "journal replay at startup: record/skipped/job counts, requeued",
    ),
    # -- counters -------------------------------------------------------- #
    Signal(
        "engine.chunks",
        "counter",
        "engine/executor.py",
        "trial blocks of uniforms computed (executor and construction streams)",
    ),
    Signal(
        "engine.fuse_hits",
        "counter",
        "engine/fusion.py",
        "matrix/count requests served from the fusion memo",
    ),
    Signal(
        "engine.fuse_misses",
        "counter",
        "engine/fusion.py",
        "matrix/count requests that had to sample or count fresh trials",
    ),
    Signal(
        "engine.fallback.no_program",
        "counter",
        "engine/adapters.py",
        "`auto` estimates on the reference loop because a randomized decider "
        "or constructor has no vote or output program (counted by the resolvers)",
    ),
    Signal(
        "engine.fallback.beyond_ir",
        "counter",
        "engine/adapters.py",
        "`auto` estimates on the reference loop because the engine build "
        "raised a compile error (a program beyond the IR)",
    ),
    Signal(
        "engine.fallback.declined",
        "counter",
        "engine/adapters.py",
        "`auto` estimates on the reference loop because the engine build "
        "returned `None` (a decider that does not fuse)",
    ),
    Signal("cache.hit", "counter", "engine/cache.py", "lookups served from disk"),
    Signal("cache.miss", "counter", "engine/cache.py", "lookups that found nothing"),
    Signal("cache.write", "counter", "engine/cache.py", "entries persisted"),
    Signal(
        "cache.corrupt",
        "counter",
        "engine/cache.py",
        "entries that existed but failed to parse (also counted as misses)",
    ),
    Signal("stats.rounds", "counter", "stats/stopping.py", "sequential-stopping rounds"),
    Signal("stats.trials", "counter", "stats/stopping.py", "trials consumed across rounds"),
    Signal("service.requests", "counter", "service/http.py", "HTTP requests served"),
    Signal(
        "service.sse_drops",
        "counter",
        "service/http.py",
        "SSE streams dropped on client disconnect",
    ),
    Signal(
        "service.submissions",
        "counter",
        "service/jobs.py",
        "submissions accepted for routing",
    ),
    Signal(
        "service.deduplicated",
        "counter",
        "service/jobs.py",
        "submissions that joined an in-flight job (single-flight)",
    ),
    Signal(
        "service.cache_hits",
        "counter",
        "service/jobs.py",
        "submissions served straight from the result cache",
    ),
    Signal(
        "service.rejected",
        "counter",
        "service/jobs.py",
        "submissions refused by admission control (queue full)",
    ),
    Signal(
        "service.timeouts",
        "counter",
        "service/jobs.py",
        "attempts that exceeded the deadline",
    ),
    Signal("service.executions", "counter", "service/jobs.py", "attempts that ran to completion"),
    Signal("service.retries", "counter", "service/jobs.py", "retryable failures re-enqueued"),
    Signal("service.failed", "counter", "service/jobs.py", "jobs that reached the failed state"),
    Signal(
        "service.stale_results",
        "counter",
        "service/jobs.py",
        "late deliveries from abandoned (timed-out) attempts, discarded",
    ),
    Signal(
        "service.journal_errors",
        "counter",
        "service/jobs.py",
        "best-effort journal appends/compactions that raised",
    ),
    Signal(
        "service.journal_torn",
        "counter",
        "service/jobs.py",
        "undecodable journal lines skipped during replay (torn tail)",
    ),
    Signal(
        "service.replayed",
        "counter",
        "service/jobs.py",
        "journaled jobs re-enqueued at startup",
    ),
    # -- histograms ------------------------------------------------------ #
    Signal(
        "cache.lookup_seconds",
        "histogram",
        "engine/cache.py",
        "lookup latency",
    ),
    Signal(
        "stats.ci_half_width",
        "histogram",
        "stats/stopping.py",
        "the CI trajectory across stopping rounds — recorded only when "
        "tracing, never fed back into the stopping decision",
    ),
    Signal(
        "service.queue_wait_seconds",
        "histogram",
        "service/jobs.py",
        "enqueue → worker pickup latency per execution",
    ),
)


def signal_names(kind: str) -> FrozenSet[str]:
    """The registered names of one signal kind."""
    if kind not in KINDS:
        raise ValueError(f"unknown signal kind {kind!r}; expected one of {KINDS}")
    return frozenset(signal.name for signal in SIGNALS if signal.kind == kind)


SPAN_NAMES: FrozenSet[str] = signal_names("span")
COUNTER_NAMES: FrozenSet[str] = signal_names("counter")
HISTOGRAM_NAMES: FrozenSet[str] = signal_names("histogram")


def render_taxonomy_markdown() -> str:
    """The DESIGN.md "Span taxonomy" block, rendered from the registry.

    The output is exactly the text between the ``BEGIN span-taxonomy`` and
    ``END span-taxonomy`` markers in DESIGN.md; the test in
    ``tests/check/test_taxonomy.py`` keeps the two in lockstep.
    """
    lines = [
        "| signal | kind | emitted by | carries |",
        "| --- | --- | --- | --- |",
    ]
    for kind in KINDS:
        for signal in SIGNALS:
            if signal.kind != kind:
                continue
            lines.append(
                f"| `{signal.name}` | {signal.kind} | `{signal.layer}` "
                f"| {signal.description} |"
            )
    return "\n".join(lines) + "\n"


def as_dict() -> Dict[str, Tuple[str, ...]]:
    """``{kind: sorted names}`` — the JSON-able shape of the registry."""
    return {kind: tuple(sorted(signal_names(kind))) for kind in KINDS}
