"""Span recording from outside the program, and per-layer self time.

A span is one call into a layer: the layer's name, start and end on the
``time.perf_counter`` clock, the thread it ran on, and the span that was open
on that thread when it started (its parent).  A layer's *self time* is the
duration of its spans minus the part of each span that its child spans
cover.  Summed per layer, self times add up to the traced wall time, so they
say where the time went; inclusive totals, which count a nested call once
per enclosing layer, cannot.

:class:`Instrumentation` records these spans by wrapping each layer's public
entry points (functions and methods of ``repro``) at every place the
program binds them, and restores the originals on :meth:`uninstall`.  No
file of the program changes.  The layer names follow the program's modules.

This module imports nothing from ``repro`` at import time, so ``run.py`` can
load it in a checkout that lacks the program.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: The program's layers in the self-time table.  ``stats.draw`` is the
#: caller-supplied draw callback of an adaptive estimate (per-trial glue and
#: membership outside the engine spans).  The benchmark's own client records
#: ``service.http`` spans too; they overlap the server's layers (the client
#: waits while the server works), so they stay out of the table.
LAYERS = (
    "api.session",
    "api.backends",
    "harness",
    "engine.compiler",
    "engine.construct",
    "engine.executor",
    "engine.membership",
    "engine.fusion",
    "stats",
    "stats.draw",
    "engine.cache",
)


class Span:
    """One recorded call; ``work`` holds additive counts of what it did."""

    __slots__ = ("id", "layer", "name", "parent", "thread", "start", "end", "work")

    def __init__(
        self,
        id: int,
        layer: str,
        name: str,
        parent: Optional[int],
        thread: int,
        start: float,
        end: float = 0.0,
        work: Optional[Dict[str, float]] = None,
    ) -> None:
        self.id = id
        self.layer = layer
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = start
        self.end = end
        self.work = work

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanLog:
    """Closed spans kept in memory, plus named counters.

    Each thread has its own stack of open spans, so spans opened on
    concurrent threads (the service's worker threads) form separate trees.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, layer: str, name: str = "") -> Span:
        stack = self._stack()
        span = Span(
            next(self._ids),
            layer,
            name,
            stack[-1].id if stack else None,
            threading.get_ident(),
            time.perf_counter(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, layer: str, name: str = ""):
        opened = self.open(layer, name)
        try:
            yield opened
        finally:
            self.close(opened)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount


# --------------------------------------------------------------------------- #
# Self time
# --------------------------------------------------------------------------- #
def covered_length(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    total = 0.0
    cursor = low
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, high)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's duration minus the part its children cover, by span id."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: max(0.0, span.duration - covered_length(children[span.id], span.start, span.end))
        for span in spans
    }


def root_seconds(spans: Sequence[Span], thread: Optional[int] = None) -> float:
    """Wall seconds covered by root spans (on one thread, or all threads)."""
    return sum(
        span.duration
        for span in spans
        if span.parent is None and (thread is None or span.thread == thread)
    )


def totals(log: SpanLog) -> Dict[str, object]:
    """The per-layer aggregate of a span log, in JSON-able form:
    calls and self seconds per layer, summed work counts, per-call durations
    of the cache and HTTP layers (for their medians), and the counters."""
    selfs = self_times(log.spans)
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    work: Dict[str, float] = defaultdict(float)
    durations: Dict[str, List[float]] = defaultdict(list)
    for span in log.spans:
        calls[span.layer] += 1
        self_s[span.layer] += selfs[span.id]
        for key, value in (span.work or {}).items():
            work[f"{span.layer}:{key}"] += value
        if span.layer in ("engine.cache", "service.http"):
            durations[f"{span.layer}:{span.name}"].append(span.duration)
    return {
        "calls": dict(calls),
        "self_s": dict(self_s),
        "work": dict(work),
        "durations": dict(durations),
        "counters": dict(log.counters),
    }


def merge_totals(parts: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Add per-layer aggregates (e.g. the server's and the client's)."""
    merged: Dict[str, object] = {
        "calls": defaultdict(int),
        "self_s": defaultdict(float),
        "work": defaultdict(float),
        "durations": defaultdict(list),
        "counters": defaultdict(float),
    }
    for part in parts:
        for section in ("calls", "self_s", "work", "counters"):
            for key, value in part.get(section, {}).items():
                merged[section][key] += value
        for key, values in part.get("durations", {}).items():
            merged["durations"][key].extend(values)
    return {section: dict(values) for section, values in merged.items()}


# --------------------------------------------------------------------------- #
# Instrumentation of the program's layer entry points
# --------------------------------------------------------------------------- #
Work = Callable[[tuple, dict, object], Dict[str, float]]


def _decision_draws(compiled, trials: int) -> int:
    return int(trials) * len(compiled.random_index) * max(int(compiled.max_draws), 1)


def _accept_work(args: tuple, kwargs: dict, result: object) -> Dict[str, float]:
    # accept_vector / vote_matrix (compiled, trials, ...)
    compiled = args[0] if args else kwargs["compiled"]
    trials = args[1] if len(args) > 1 else kwargs["trials"]
    return {"draws": _decision_draws(compiled, trials)}


def _single_trial_work(args: tuple, kwargs: dict, result: object) -> Dict[str, float]:
    compiled = args[0] if args else kwargs["compiled"]
    return {"draws": _decision_draws(compiled, 1)}


def _stream_work(args: tuple, kwargs: dict, result: object) -> Dict[str, float]:
    # AcceptStream.sample(self, count)
    stream = args[0]
    count = args[1] if len(args) > 1 else kwargs["count"]
    if getattr(stream, "_constant", None) is not None:
        return {"draws": 0}
    return {"draws": _decision_draws(stream.compiled, count)}


def _votes_work(args: tuple, kwargs: dict, result: object) -> Dict[str, float]:
    # Fused radius-0 decisions draw at most one uniform per (trial, node).
    return {"draws": int(getattr(result, "size", 0))}


def _construct_work(args: tuple, kwargs: dict, result: object) -> Dict[str, float]:
    return {"cells": int(result.size), "bytes": int(result.nbytes)}


def _cache_get_work(args: tuple, kwargs: dict, result: object) -> Dict[str, float]:
    return {"gets": 1, "hits": int(result is not None)}


def _cache_put_work(args: tuple, kwargs: dict, result: object) -> Dict[str, float]:
    try:
        written = os.path.getsize(result) if result is not None else 0
    except OSError:
        written = 0
    return {"puts": 1, "bytes_written": written}


#: ``(layer, module, attribute path, work)``: the public entry points wrapped
#: per layer.  ``Class.method`` paths patch the class; plain names are
#: rebound in every loaded ``repro`` module that imported them.
TARGETS: Tuple[Tuple[str, str, str, Optional[Work]], ...] = (
    ("api.session", "repro.api.session", "Session.run", None),
    ("api.session", "repro.api.session", "Session.run_many", None),
    ("api.session", "repro.api.session", "Session.run_all", None),
    ("api.session", "repro.api.session", "Session.sweep", None),
    ("api.backends", "repro.api.backends", "execute_payload", None),
    ("harness", "repro.harness.registry", "ExperimentSpec.run", None),
    ("engine.compiler", "repro.engine.compiler", "compile_decision", None),
    ("engine.compiler", "repro.engine.construct", "compile_construction", None),
    ("engine.compiler", "repro.engine.construct", "compile_fused_decision", None),
    ("engine.construct", "repro.engine.construct", "ConstructionStream.sample", _construct_work),
    ("engine.executor", "repro.engine.executor", "accept_vector", _accept_work),
    ("engine.executor", "repro.engine.executor", "vote_matrix", _accept_work),
    ("engine.executor", "repro.engine.executor", "exact_single_trial_votes", _single_trial_work),
    ("engine.executor", "repro.engine.executor", "AcceptStream.sample", _stream_work),
    ("engine.executor", "repro.engine.construct", "FusedDecision.vote_row_exact", _votes_work),
    ("engine.membership", "repro.engine.construct", "MembershipProgram.bad_counts", None),
    ("engine.membership", "repro.engine.construct", "MembershipProgram.member_vector", None),
    ("engine.fusion", "repro.engine.fusion", "FusionContext.codes_for", None),
    ("engine.fusion", "repro.engine.fusion", "FusionContext.bad_counts_for", None),
    ("engine.fusion", "repro.engine.fusion", "FusionContext.member_vector_for", None),
    ("engine.cache", "repro.engine.cache", "ResultCache.get", _cache_get_work),
    ("engine.cache", "repro.engine.cache", "ResultCache.put", _cache_put_work),
)

#: Modules imported before patching, so every binding site already exists.
PRELOAD = (
    "repro.api",
    "repro.api.backends",
    "repro.harness.experiments",
    "repro.engine.fusion",
    "repro.stats.stopping",
)


class Instrumentation:
    """Wrap the :data:`TARGETS` (plus the fusion scope, the adaptive
    estimator and the fused vote sampler) so each call records a span into
    ``log``.  Results are untouched: a wrapper only times and counts.

    With ``layers=False`` only the fusion scope and the adaptive estimator
    are wrapped: they run once per sweep group or estimate (and once per
    stopping round), so the :data:`REPEAT_COUNTS` are recorded on untimed
    and timed passes alike at no measurable cost."""

    def __init__(
        self, log: SpanLog, extra_modules: Sequence[str] = (), layers: bool = True
    ) -> None:
        self.log = log
        self.extra_modules = tuple(extra_modules)
        self.layers = layers
        self._functions: List[Tuple[object, object]] = []  # (original, wrapper)
        self._methods: List[Tuple[type, str, object]] = []  # (class, name, original)

    # -- wrappers ---------------------------------------------------------- #
    def _traced(self, layer: str, name: str, original: Callable, work: Optional[Work]):
        log = self.log

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = log.open(layer, name)
            try:
                result = original(*args, **kwargs)
            finally:
                log.close(span)
            if work is not None:
                span.work = work(args, kwargs, result)
            return result

        return traced

    def _traced_estimate(self, original: Callable):
        """``sequential_estimate(target, draw)``: a ``stats`` span whose
        draw callback is a ``stats.draw`` child counting rounds and trials."""
        log = self.log

        @functools.wraps(original)
        def traced(target, draw, *args, **kwargs):
            def traced_draw(count):
                span = log.open("stats.draw", "draw")
                try:
                    return draw(count)
                finally:
                    log.close(span)
                    span.work = {"rounds": 1, "trials": int(count)}

            span = log.open("stats", "sequential_estimate")
            try:
                return original(target, traced_draw, *args, **kwargs)
            finally:
                log.close(span)

        return traced

    def _traced_scope(self, original: Callable):
        """``fusion_scope``: count the group's memo hits and misses on exit."""
        log = self.log

        @contextlib.contextmanager
        @functools.wraps(original)
        def traced(*args, **kwargs):
            with original(*args, **kwargs) as context:
                yield context
            log.count("fusion.hits", context.hits)
            log.count("fusion.misses", context.misses)

        return traced

    def _traced_vote_stream(self, original: Callable):
        """``FusedDecision.fast_vote_stream``: trace the returned sampler."""
        traced_sampler = self._traced

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sampler = original(*args, **kwargs)
            return traced_sampler("engine.executor", "fast_vote_stream", sampler, _votes_work)

        return traced

    # -- patching ---------------------------------------------------------- #
    @staticmethod
    def _program_modules():
        return [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]

    def _rebind(self, old: object, new: object) -> None:
        for module in self._program_modules():
            for attribute, value in list(vars(module).items()):
                if value is old:
                    setattr(module, attribute, new)

    def _patch(self, module_name: str, path: str, make: Callable[[Callable], Callable]) -> None:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            self._methods.append((owner, method, original))
            setattr(owner, method, make(original))
        else:
            original = getattr(module, path)
            wrapper = make(original)
            self._functions.append((original, wrapper))
            self._rebind(original, wrapper)

    def install(self) -> "Instrumentation":
        for name in PRELOAD + self.extra_modules:
            importlib.import_module(name)
        self._patch("repro.stats.stopping", "sequential_estimate", self._traced_estimate)
        self._patch("repro.engine.fusion", "fusion_scope", self._traced_scope)
        if not self.layers:
            return self
        for layer, module_name, path, work in TARGETS:
            self._patch(
                module_name,
                path,
                lambda original, layer=layer, path=path, work=work: self._traced(
                    layer, path, original, work
                ),
            )
        self._patch(
            "repro.engine.construct", "FusedDecision.fast_vote_stream", self._traced_vote_stream
        )
        return self

    def uninstall(self) -> None:
        for owner, method, original in reversed(self._methods):
            setattr(owner, method, original)
        for original, wrapper in reversed(self._functions):
            self._rebind(wrapper, original)
        self._methods.clear()
        self._functions.clear()

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()


# --------------------------------------------------------------------------- #
# Named per-layer metrics
# --------------------------------------------------------------------------- #
#: Per-layer counts that must repeat exactly across the passes of one seed
#: (a drift is a bug, not noise); every in-process pass records them.
REPEAT_COUNTS = ("fusion.hits", "fusion.misses", "stats.trials_used", "stats.rounds")


def _median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def layer_metrics(aggregate: Dict[str, object]) -> Dict[str, float]:
    """The named per-layer metrics of one traced pass (0 where a layer did
    no work on this workload)."""
    calls = aggregate.get("calls", {})
    self_s = aggregate.get("self_s", {})
    work = aggregate.get("work", {})
    durations = aggregate.get("durations", {})
    counters = aggregate.get("counters", {})

    def layer_self(layer: str) -> float:
        return float(self_s.get(layer, 0.0))

    draws = float(work.get("engine.executor:draws", 0))
    cells = float(work.get("engine.construct:cells", 0))
    hits = float(counters.get("fusion.hits", 0))
    misses = float(counters.get("fusion.misses", 0))
    gets = float(work.get("engine.cache:gets", 0))
    metrics = {
        "execute.calls": calls.get("engine.executor", 0),
        "execute.self_s": layer_self("engine.executor"),
        "execute.draws": draws,
        "execute.ns_per_draw": _ratio(layer_self("engine.executor") * 1e9, draws),
        "construct.calls": calls.get("engine.construct", 0),
        "construct.self_s": layer_self("engine.construct"),
        "construct.cells": cells,
        "construct.bytes": float(work.get("engine.construct:bytes", 0)),
        "construct.ns_per_cell": _ratio(layer_self("engine.construct") * 1e9, cells),
        "membership.self_s": layer_self("engine.membership"),
        "fusion.hits": hits,
        "fusion.misses": misses,
        "fusion.hit_ratio": _ratio(hits, hits + misses),
        "fusion.self_s": layer_self("engine.fusion"),
        "compile.calls": calls.get("engine.compiler", 0),
        "compile.self_s": layer_self("engine.compiler"),
        "harness.self_s": layer_self("harness"),
        "session.self_s": layer_self("api.session"),
        "backends.self_s": layer_self("api.backends"),
        "stats.calls": calls.get("stats", 0),
        "stats.self_s": layer_self("stats"),
        "stats.draw_self_s": layer_self("stats.draw"),
        "stats.trials_used": float(work.get("stats.draw:trials", 0)),
        "stats.rounds": float(work.get("stats.draw:rounds", 0)),
        "cache.get_calls": gets,
        "cache.put_calls": float(work.get("engine.cache:puts", 0)),
        "cache.get_s_p50": _median(durations.get("engine.cache:ResultCache.get", [])),
        "cache.put_s_p50": _median(durations.get("engine.cache:ResultCache.put", [])),
        "cache.hit_ratio": _ratio(float(work.get("engine.cache:hits", 0)), gets),
        "cache.bytes_written": float(work.get("engine.cache:bytes_written", 0)),
    }
    http = {endpoint: durations.get(f"service.http:{endpoint}", []) for endpoint in
            ("submit", "events", "status", "result")}
    metrics["http.requests"] = sum(len(values) for values in http.values())
    for endpoint, values in http.items():
        metrics[f"http.{endpoint}_s_p50"] = _median(values)
    metrics["http.self_s"] = layer_self("service.http")
    return metrics
