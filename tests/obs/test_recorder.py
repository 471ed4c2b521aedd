"""Unit tests for the telemetry core: spans, counters, histograms, the
ambient-recorder contextvar, and the null recorder's overhead bound."""

from __future__ import annotations

import time

import pytest

from repro.obs import (
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


class TestSpanTree:
    def test_nesting_follows_open_order(self):
        recorder = TraceRecorder()
        with recorder.span("outer", layer="top"):
            with recorder.span("inner-a"):
                pass
            with recorder.span("inner-b"):
                with recorder.span("leaf"):
                    pass
        assert [span.name for span in recorder.spans] == ["outer"]
        outer = recorder.spans[0]
        assert [child.name for child in outer.children] == ["inner-a", "inner-b"]
        assert [leaf.name for leaf in outer.children[1].children] == ["leaf"]
        assert outer.attributes == {"layer": "top"}

    def test_walk_is_depth_first(self):
        recorder = TraceRecorder()
        with recorder.span("a"):
            with recorder.span("b"):
                with recorder.span("c"):
                    pass
            with recorder.span("d"):
                pass
        assert [span.name for span in recorder.iter_spans()] == ["a", "b", "c", "d"]

    def test_sibling_roots(self):
        recorder = TraceRecorder()
        with recorder.span("first"):
            pass
        with recorder.span("second"):
            pass
        assert [span.name for span in recorder.spans] == ["first", "second"]
        assert recorder.current_span is None

    def test_durations_are_recorded(self):
        recorder = TraceRecorder()
        with recorder.span("timed"):
            time.sleep(0.01)
        span = recorder.spans[0]
        assert span.wall_seconds >= 0.01
        assert span.started_at > 0
        assert span.cpu_seconds >= 0.0

    def test_annotate_inside_block_and_via_recorder(self):
        recorder = TraceRecorder()
        with recorder.span("work") as span:
            span.annotate(rows=3)
            recorder.annotate(mode="fast")
        assert recorder.spans[0].attributes == {"rows": 3, "mode": "fast"}

    def test_exception_marks_span_and_propagates(self):
        recorder = TraceRecorder()
        with pytest.raises(ValueError):
            with recorder.span("failing"):
                raise ValueError("boom")
        span = recorder.spans[0]
        assert span.attributes["error"] == "ValueError"
        assert recorder.current_span is None  # stack unwound

    def test_span_dict_round_trip(self):
        recorder = TraceRecorder()
        with recorder.span("root", n=4):
            with recorder.span("child"):
                pass
        restored = Span.from_dict(recorder.spans[0].to_dict())
        assert restored.name == "root"
        assert restored.attributes == {"n": 4}
        assert [child.name for child in restored.children] == ["child"]
        assert restored.wall_seconds == recorder.spans[0].wall_seconds


class TestCountersAndHistograms:
    def test_counters_sum(self):
        recorder = TraceRecorder()
        recorder.counter("hits")
        recorder.counter("hits", 4)
        recorder.counter("misses", 2)
        assert recorder.counters == {"hits": 5, "misses": 2}

    def test_histogram_summary(self):
        recorder = TraceRecorder()
        for value in (1.0, 3.0, 2.0):
            recorder.histogram("latency", value)
        summary = recorder.histograms["latency"]
        assert summary.count == 3
        assert summary.minimum == 1.0
        assert summary.maximum == 3.0
        assert summary.mean == pytest.approx(2.0)

    def test_histogram_value_cap_keeps_summary_exact(self):
        summary = HistogramSummary()
        for index in range(HistogramSummary.MAX_VALUES + 10):
            summary.observe(float(index))
        assert len(summary.values) == HistogramSummary.MAX_VALUES
        assert summary.count == HistogramSummary.MAX_VALUES + 10
        assert summary.maximum == float(HistogramSummary.MAX_VALUES + 9)


class TestExportAndMerge:
    def test_export_shape(self):
        recorder = TraceRecorder()
        with recorder.span("root"):
            recorder.counter("n")
            recorder.histogram("h", 0.5)
        export = recorder.export()
        assert export["schema"] == TraceRecorder.EXPORT_SCHEMA
        assert export["spans"][0]["name"] == "root"
        assert export["counters"] == {"n": 1}
        assert export["histograms"]["h"]["count"] == 1

    def test_merge_grafts_under_open_span(self):
        worker = TraceRecorder()
        with worker.span("backend.worker", pid=123):
            worker.counter("engine.chunks", 3)
            worker.histogram("cache.lookup_seconds", 0.01)
        parent = TraceRecorder()
        parent.counter("engine.chunks", 1)
        with parent.span("backend.task"):
            parent.merge(worker.export())
        task = parent.spans[0]
        assert [child.name for child in task.children] == ["backend.worker"]
        assert parent.counters["engine.chunks"] == 4
        assert parent.histograms["cache.lookup_seconds"].count == 1

    def test_merge_without_open_span_adds_roots(self):
        worker = TraceRecorder()
        with worker.span("solo"):
            pass
        parent = TraceRecorder()
        parent.merge(worker.export())
        assert [span.name for span in parent.spans] == ["solo"]


class TestAmbientRecorder:
    def test_default_is_shared_null_recorder(self):
        assert get_recorder() is NULL_RECORDER
        assert isinstance(NULL_RECORDER, NullRecorder)
        assert not NULL_RECORDER.active

    def test_use_recorder_scopes_installation(self):
        recorder = TraceRecorder()
        with use_recorder(recorder) as installed:
            assert installed is recorder
            assert get_recorder() is recorder
        assert get_recorder() is NULL_RECORDER

    def test_push_pop_tokens_nest(self):
        first, second = TraceRecorder(), TraceRecorder()
        token_a = push_recorder(first)
        token_b = push_recorder(second)
        assert get_recorder() is second
        pop_recorder(token_b)
        assert get_recorder() is first
        pop_recorder(token_a)
        assert get_recorder() is NULL_RECORDER

    def test_null_recorder_span_is_annotatable_noop(self):
        with NULL_RECORDER.span("anything", x=1) as span:
            span.annotate(y=2)  # must not raise
        NULL_RECORDER.counter("c")
        NULL_RECORDER.histogram("h", 1.0)
        NULL_RECORDER.annotate(z=3)


class TestNullOverhead:
    def test_instrumented_noop_loop_stays_cheap(self):
        """The telemetry-off cost of an instrumented site — get_recorder plus
        a null span enter/exit plus a counter call — must stay far below
        engine-loop timescales (bound is loose for slow CI hosts)."""
        iterations = 100_000

        def instrumented() -> None:
            recorder = get_recorder()
            with recorder.span("engine.execute", op="stream", trials=64, offset=0):
                recorder.counter("engine.chunks")

        start = time.perf_counter()
        for _ in range(iterations):
            instrumented()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"null-recorder overhead too high: {elapsed:.3f}s/{iterations}"

    def test_base_recorder_is_the_null_behaviour(self):
        recorder = Recorder()
        with recorder.span("x") as span:
            span.annotate(a=1)
        assert not recorder.active
