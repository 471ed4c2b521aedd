"""End-to-end telemetry: Session root spans, cache counters, cross-process
merge under the process-pool backend, and the bit-identity invariant.

The experiments here run real registry specs at quick-preset scale, at
seeds 0 and 10_000.
"""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.engine.cache import ResultCache
from repro.obs import NULL_RECORDER, TraceRecorder, get_recorder

EXPERIMENT = "E5"  # engine-capable, quick preset runs in well under a second


def span_names(recorder):
    return [span.name for span in recorder.iter_spans()]


def request_roots(recorder):
    return [span for span in recorder.spans if span.name == "session.request"]


class TestSessionTracing:
    def test_root_span_nests_engine_and_cache_spans(self, tmp_path):
        recorder = TraceRecorder()
        session = Session(cache=tmp_path, telemetry=recorder)
        report = session.run(EXPERIMENT, preset="quick")
        assert report.ok

        roots = request_roots(recorder)
        assert len(roots) == 1
        root = roots[0]
        assert root.attributes["experiment_id"] == EXPERIMENT
        assert root.attributes["preset"] == "quick"
        assert root.attributes["from_cache"] is False
        assert root.attributes["backend"] == "inline"
        assert root.attributes["cache_key"]
        nested = {span.name for span in root.walk()}
        assert {"backend.task", "engine.compile", "engine.execute", "cache.write"} <= nested
        # The probe lookup runs in the batch probe phase, before the root
        # span opens — it appears as a sibling, not a child.
        assert "cache.lookup" in span_names(recorder)
        assert recorder.counters["cache.miss"] == 1
        assert recorder.counters["cache.write"] == 1
        assert recorder.counters["engine.chunks"] >= 1
        assert recorder.histograms["cache.lookup_seconds"].count == 1

    def test_cache_hit_root_span_and_counters(self, tmp_path):
        cache = ResultCache(tmp_path)
        recorder = TraceRecorder()
        Session(cache=cache, telemetry=recorder).run(EXPERIMENT, preset="quick")
        Session(cache=cache, telemetry=recorder).run(EXPERIMENT, preset="quick")

        assert recorder.counters["cache.miss"] == 1
        assert recorder.counters["cache.hit"] == 1
        assert recorder.counters["cache.write"] == 1
        roots = request_roots(recorder)
        assert [root.attributes["from_cache"] for root in roots] == [False, True]
        # Both requests address the same canonical key.
        assert roots[0].attributes["cache_key"] == roots[1].attributes["cache_key"]

    def test_ambient_recorder_restored_after_run(self, tmp_path):
        session = Session(cache=tmp_path, telemetry=TraceRecorder())
        list(session.run_iter([session.request(EXPERIMENT, preset="quick")]))
        assert get_recorder() is NULL_RECORDER

    def test_telemetry_true_makes_a_fresh_trace_recorder(self):
        session = Session(cache=None, telemetry=True)
        assert isinstance(session.telemetry, TraceRecorder)
        assert Session(cache=None).telemetry is NULL_RECORDER
        with pytest.raises(TypeError):
            Session(cache=None, telemetry="yes")

    def test_stats_spans_appear_for_precision_runs(self):
        recorder = TraceRecorder()
        session = Session(cache=None, telemetry=recorder, precision=0.05)
        session.run(EXPERIMENT, preset="quick")
        names = span_names(recorder)
        assert "stats.sequential_estimate" in names
        assert recorder.counters["stats.rounds"] >= 1
        assert recorder.counters["stats.trials"] >= 1
        assert recorder.histograms["stats.ci_half_width"].count >= 1


class TestProcessPoolMerge:
    def test_worker_spans_merge_in_submission_order(self, tmp_path):
        recorder = TraceRecorder()
        session = Session(cache=None, parallel=2, telemetry=recorder)
        requests = [
            session.request("E5", preset="quick"),
            session.request("E3", preset="quick"),
        ]
        reports = session.run_many(requests)
        assert [report.ok for report in reports] == [True, True]

        roots = request_roots(recorder)
        assert [root.attributes["experiment_id"] for root in roots] == ["E5", "E3"]
        for root in roots:
            tasks = [span for span in root.walk() if span.name == "backend.task"]
            assert len(tasks) == 1
            task = tasks[0]
            assert task.attributes["backend"] == "process-pool"
            assert task.attributes["queue_wait_seconds"] >= 0.0
            workers = [span for span in task.children if span.name == "backend.worker"]
            assert len(workers) == 1
            assert isinstance(workers[0].attributes["pid"], int)
            # The worker's engine spans came through the export/merge path.
            assert "engine.execute" in {span.name for span in workers[0].walk()}
        # Worker-side counters summed into the parent recorder.
        assert recorder.counters["engine.chunks"] >= 2

    def test_pool_without_telemetry_skips_the_traced_wrapper(self):
        session = Session(cache=None, parallel=2)
        report = session.run(EXPERIMENT, preset="quick")
        assert report.ok
        assert session.telemetry is NULL_RECORDER


class TestBitIdentity:
    @pytest.mark.parametrize("seed", [0, 10_000])
    @pytest.mark.parametrize(
        "parallel", [pytest.param(1, id="inline"), pytest.param(2, id="process-pool")]
    )
    def test_results_identical_with_telemetry_on_and_off(self, seed, parallel):
        def run(telemetry):
            session = Session(cache=None, seed=seed, parallel=parallel, telemetry=telemetry)
            assert session.backend.name == ("inline" if parallel == 1 else "process-pool")
            return session.run(EXPERIMENT, preset="quick").result.to_dict()

        recorder = TraceRecorder()
        assert run(None) == run(recorder)
        # ... and telemetry really recorded something in the second run.
        assert any(span.name == "session.request" for span in recorder.iter_spans())
