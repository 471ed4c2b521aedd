"""Error-path coverage for repro.api.backends and progress semantics.

Worker exception propagation (inline and process pool), malformed result
records, and progress-callback ordering when the cache serves part of a
request batch.
"""

from __future__ import annotations

import pytest

from repro.api import InlineBackend, ProcessPoolBackend, Session
from repro.harness.registry import ExperimentRegistry, ExperimentSpec, ParameterSpec
from repro.harness.results import ExperimentResult


def _toy_result(experiment_id="TOY", matches=True):
    result = ExperimentResult(experiment_id=experiment_id, title="toy", paper_claim="none")
    result.add_row(value=1)
    result.matches_paper = matches
    return result


def _registry_with(runner, experiment_id="TOY"):
    spec = ExperimentSpec(
        id=experiment_id,
        title="toy",
        runner=runner,
        parameters=(ParameterSpec("seed", "int", 0),),
        quick={},
    )
    return ExperimentRegistry([spec])


class TestWorkerExceptionPropagation:
    def test_inline_backend_surfaces_runner_exceptions(self):
        def exploding(seed=0):
            raise RuntimeError("boom at seed %d" % seed)

        backend = InlineBackend()
        payload = {"experiment_id": "TOY", "parameters": {"seed": 3}}
        with pytest.raises(RuntimeError, match="boom at seed 3"):
            list(backend.execute([[payload]], registry=_registry_with(exploding)))

    def test_inline_backend_is_lazy_until_iterated(self):
        """execute() returns a generator: submission itself must not run
        anything, so callers control when failures surface."""

        calls = []

        def recording(seed=0):
            calls.append(seed)
            return _toy_result()

        backend = InlineBackend()
        iterator = backend.execute(
            [[{"experiment_id": "TOY", "parameters": {}}]], registry=_registry_with(recording)
        )
        assert calls == []
        list(iterator)
        assert calls == [0]

    def test_pool_backend_propagates_worker_exceptions(self):
        """An unknown experiment id raises inside a worker process (batches
        of two or more groups genuinely fan out — a single group runs
        in-process); the pool must re-raise in the caller instead of hanging
        or yielding garbage."""
        backend = ProcessPoolBackend(max_workers=2)
        payloads = [
            [{"experiment_id": "E999", "parameters": {}}],
            [{"experiment_id": "E998", "parameters": {}}],
        ]
        with pytest.raises(KeyError):
            list(backend.execute(payloads))

    def test_pool_backend_yields_good_results_before_a_failing_payload(self):
        """Submission-order streaming: results before the poisoned payload
        arrive intact, then the worker exception surfaces."""
        backend = ProcessPoolBackend(max_workers=2)
        payloads = [
            [{"experiment_id": "E5", "parameters": {"f_values": [1], "n": 24, "trials": 60}}],
            [{"experiment_id": "E999", "parameters": {}}],
        ]
        iterator = backend.execute(payloads)
        first = next(iterator)
        assert first.experiment_id == "E5" and first.rows
        with pytest.raises(KeyError):
            next(iterator)

    def test_pool_backend_validation_errors_propagate(self):
        """A declared-but-ill-typed parameter fails spec validation inside
        the worker; the error must carry the offending parameter."""
        backend = ProcessPoolBackend(max_workers=2)
        payloads = [
            [{"experiment_id": "E5", "parameters": {"trials": "many"}}],
            [{"experiment_id": "E5", "parameters": {"trials": "several"}}],
        ]
        with pytest.raises(Exception, match="trials"):
            list(backend.execute(payloads))


class TestMalformedResults:
    def test_corrupt_result_payload_from_backend_fails_loudly(self):
        """A backend yielding a record that is not an ExperimentResult dict
        must raise at conversion, not fabricate a result."""
        from repro.api.backends import _result_from

        with pytest.raises((KeyError, TypeError)):
            _result_from({"rows": []})


class TestWireCrossing:
    def test_decoded_request_is_what_runs(self):
        """A request that crossed the wire runs with its decoded parameters:
        tuple-valued parameters arrive at the runner as lists."""
        import json

        from repro.api.backends import execute_payload
        from repro.api.session import RunRequest
        from repro.api.wire import decode_request, encode_request

        seen = {}

        def recording(sizes=(1, 2)):
            seen["sizes"] = sizes
            return _toy_result()

        registry = ExperimentRegistry(
            [
                ExperimentSpec(
                    id="TOY",
                    title="toy",
                    runner=recording,
                    parameters=(ParameterSpec("sizes", "seq[int]", [1, 2]),),
                    quick={},
                )
            ]
        )
        text = json.dumps(encode_request(RunRequest.create("TOY", {"sizes": (5, 6)})))
        assert '"sizes": [5, 6]' in text
        record = execute_payload(decode_request(json.loads(text)).to_payload(), registry)
        assert seen["sizes"] == [5, 6]
        assert ExperimentResult.from_dict(record).rows == [{"value": 1}]


class TestProgressOrderingUnderCaching:
    def _session(self, tmp_path, registry, **kwargs):
        return Session(cache=tmp_path / "cache", registry=registry, **kwargs)

    def test_cached_and_fresh_events_interleave_in_request_order(self, tmp_path):
        registry = _registry_with(lambda seed=0: _toy_result())
        events = []
        session = self._session(tmp_path, registry, progress=events.append)

        first = session.run("TOY", seed=1)
        assert not first.from_cache
        assert [event.kind for event in events] == ["start", "done"]
        assert events[-1].report is not None and events[-1].report.duration_seconds >= 0

        events.clear()
        # Second batch: seed=1 is cached, seed=2 is fresh.  Events must
        # arrive in request order with correct indexes and totals.
        requests = [session.request("TOY", seed=1), session.request("TOY", seed=2)]
        reports = session.run_many(requests)
        kinds = [(event.kind, event.index, event.total) for event in events]
        assert kinds == [("cached", 0, 2), ("start", 1, 2), ("done", 1, 2)]
        assert reports[0].from_cache and not reports[1].from_cache
        cached_event = events[0]
        assert cached_event.report is not None and cached_event.report.from_cache

    def test_per_call_progress_callback_suppresses_the_session_one(self, tmp_path):
        registry = _registry_with(lambda seed=0: _toy_result())
        session_events, call_events = [], []
        session = self._session(tmp_path, registry, progress=session_events.append)
        session.run("TOY", seed=7, progress=call_events.append)
        assert session_events == []
        assert [event.kind for event in call_events] == ["start", "done"]

    def test_cache_write_happens_before_the_done_event(self, tmp_path):
        """A consumer reacting to ``done`` may immediately read the cache
        path; the entry must already be on disk."""
        registry = _registry_with(lambda seed=0: _toy_result())
        observed = {}

        def on_event(event):
            if event.kind == "done":
                observed["exists"] = event.report.cache_path.exists()

        session = self._session(tmp_path, registry, progress=on_event)
        session.run("TOY", seed=3)
        assert observed["exists"] is True
