"""Sink tests: JSONL round-trip, flattening, and the summary table."""

from __future__ import annotations

from repro.obs import (
    JsonlSink,
    MemorySink,
    TraceRecorder,
    iter_span_records,
    read_jsonl,
    render_summary,
    summarize,
    write_jsonl,
)


def sample_export():
    recorder = TraceRecorder()
    with recorder.span("session.request", experiment_id="E5"):
        with recorder.span("engine.compile", decider="amos"):
            pass
        with recorder.span("engine.execute", op="accept_vector"):
            recorder.counter("engine.chunks", 3)
    recorder.counter("cache.miss")
    recorder.histogram("cache.lookup_seconds", 0.002)
    recorder.histogram("cache.lookup_seconds", 0.004)
    return recorder.export()


class TestFlattening:
    def test_parent_ids_recover_the_tree(self):
        records = list(iter_span_records(sample_export()))
        assert [record["name"] for record in records] == [
            "session.request",
            "engine.compile",
            "engine.execute",
        ]
        root, compile_span, execute_span = records
        assert root["parent"] is None
        assert compile_span["parent"] == root["id"]
        assert execute_span["parent"] == root["id"]
        assert {record["id"] for record in records} == {0, 1, 2}

    def test_attributes_travel_with_records(self):
        records = list(iter_span_records(sample_export()))
        assert records[1]["attributes"] == {"decider": "amos"}


class TestJsonl:
    def test_round_trip(self, tmp_path):
        export = sample_export()
        path = write_jsonl(export, tmp_path / "trace.jsonl")
        records = read_jsonl(path)
        assert records[0] == {"record": "trace", "schema": 1}
        spans = [record for record in records if record["record"] == "span"]
        counters = {
            record["name"]: record["value"]
            for record in records
            if record["record"] == "counter"
        }
        histograms = [record for record in records if record["record"] == "histogram"]
        assert [span["name"] for span in spans] == [
            "session.request",
            "engine.compile",
            "engine.execute",
        ]
        assert counters == {"cache.miss": 1, "engine.chunks": 3}
        assert histograms[0]["name"] == "cache.lookup_seconds"
        assert histograms[0]["count"] == 2
        assert histograms[0]["values"] == [0.002, 0.004]

    def test_write_creates_parent_directories(self, tmp_path):
        path = write_jsonl(sample_export(), tmp_path / "deep" / "dir" / "trace.jsonl")
        assert path.is_file()

    def test_jsonl_sink_last_write_wins(self, tmp_path):
        sink = JsonlSink(tmp_path / "trace.jsonl")
        sink.write(sample_export())
        empty = TraceRecorder().export()
        sink.write(empty)
        records = read_jsonl(sink.path)
        assert len(records) == 1  # header only: the empty export replaced it


class TestSummaries:
    def test_summarize_aggregates_per_span_name(self):
        summary = summarize(sample_export())
        assert summary["spans"]["session.request"]["count"] == 1
        assert summary["spans"]["engine.execute"]["count"] == 1
        assert summary["counters"] == {"cache.miss": 1, "engine.chunks": 3}
        histogram = summary["histograms"]["cache.lookup_seconds"]
        assert histogram["count"] == 2
        assert histogram["mean"] == 0.003

    def test_render_summary_mentions_every_signal(self):
        text = render_summary(summarize(sample_export()))
        for needle in (
            "session.request",
            "engine.execute",
            "cache.miss",
            "engine.chunks",
            "cache.lookup_seconds",
        ):
            assert needle in text

    def test_render_summary_prints_the_aggregated_figures(self):
        """The table shows the summary's per-name totals, one row per span
        name, not the raw export's individual spans."""
        summary = {
            "spans": {"engine.execute": {"count": 3, "wall_seconds": 1.5, "cpu_seconds": 0.25}},
            "counters": {"engine.chunks": 7},
            "histograms": {
                "cache.lookup_seconds": {"count": 2, "mean": None, "min": 0.5, "max": 1}
            },
        }
        rows = render_summary(summary).splitlines()
        assert [row for row in rows if row.startswith("engine.execute")] == [
            f"{'engine.execute':<36} {3:>7d} {1.5:>10.4f} {0.25:>10.4f}"
        ]
        assert f"{'engine.chunks':<36} {7:>7d}" in rows
        histogram_row = next(row for row in rows if row.startswith("cache.lookup_seconds"))
        assert histogram_row.split() == ["cache.lookup_seconds", "2", "-", "0.5", "1"]

    def test_render_summary_of_empty_export(self):
        text = render_summary(summarize(TraceRecorder().export()))
        assert "(no spans recorded)" in text

    def test_memory_sink_collects(self):
        sink = MemorySink()
        sink.write(sample_export())
        sink.write(sample_export())
        assert len(sink.exports) == 2
