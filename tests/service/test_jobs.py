"""Tests for the service's job queue (repro.service.jobs)."""

from __future__ import annotations

import asyncio

import pytest

from repro.api.session import RunRequest
from repro.engine.cache import ResultCache
from repro.errors import JobNotFound, ServiceUnavailable
from repro.harness.registry import ExperimentRegistry, SpecValidationError
from repro.service import JobManager, JobState


def run(coroutine):
    return asyncio.run(coroutine)


class TestLifecycle:
    def test_submit_executes_and_reports(self, registry, tmp_path, req):
        async def main():
            manager = JobManager(registry=registry, cache=tmp_path / "cache")
            job, deduplicated = await manager.submit(req(registry, "STUB"))
            assert not deduplicated
            await manager.wait(job.id)
            await manager.close()
            return job

        job = run(main())
        assert job.state == JobState.DONE
        assert job.report is not None and job.report.result.experiment_id == "STUB"
        assert not job.from_cache
        assert job.report.cache_path is not None and job.report.cache_path.is_file()
        assert [event["event"] for event in job.events] == ["start", "done"]

    def test_failed_runner_yields_failed_state_with_payload(self, registry, req):
        async def main():
            manager = JobManager(registry=registry, cache=None)
            job, _ = await manager.submit(req(registry, "BOOM"))
            await manager.wait(job.id)
            await manager.close()
            return job

        job = run(main())
        assert job.state == JobState.FAILED
        assert job.report is None
        assert job.error["error"] == "internal"
        assert "exploded" in job.error["message"]
        assert job.error_status == 500
        assert [event["event"] for event in job.events] == ["start", "failed"]

    def test_unknown_experiment_rejected_at_submission(self, registry):
        async def main():
            manager = JobManager(registry=registry, cache=None)
            with pytest.raises(SpecValidationError, match="unknown experiment"):
                await manager.submit(RunRequest.create("NOPE", {}))
            await manager.close()

        run(main())

    def test_unknown_job_id_raises_job_not_found(self, registry):
        async def main():
            manager = JobManager(registry=registry, cache=None)
            with pytest.raises(JobNotFound):
                manager.get("j999999-deadbeef")
            with pytest.raises(JobNotFound):
                async for _ in manager.events("nope"):
                    pass
            await manager.close()

        run(main())

    def test_closed_manager_refuses_submissions(self, registry, req):
        async def main():
            manager = JobManager(registry=registry, cache=None)
            await manager.close()
            with pytest.raises(ServiceUnavailable):
                await manager.submit(req(registry, "STUB"))

        run(main())

    def test_max_workers_validated(self, registry):
        with pytest.raises(ValueError):
            JobManager(registry=registry, cache=None, max_workers=0)


class TestSingleFlight:
    def test_concurrent_identical_submissions_execute_once(self, gate, tmp_path, req):
        """The acceptance shape: 8 concurrent identical submissions -> one
        execution, 8 subscribers, one service.execute span."""
        registry = ExperimentRegistry([gate.spec()])

        async def main():
            manager = JobManager(registry=registry, cache=tmp_path / "cache")
            request = req(registry, "GATED")
            first, _ = await manager.submit(request)
            outcomes = [await manager.submit(request) for _ in range(7)]
            gate.open()
            await manager.wait(first.id)
            await manager.close()
            return manager, first, outcomes

        manager, first, outcomes = run(main())
        assert gate.calls == 1
        assert all(job is first for job, _ in outcomes)
        assert all(deduplicated for _, deduplicated in outcomes)
        assert first.subscribers == 8
        metrics = manager.metrics()
        assert metrics["spans"]["service.execute"]["count"] == 1
        assert metrics["counters"]["service.executions"] == 1
        assert metrics["counters"]["service.deduplicated"] == 7
        assert metrics["counters"]["service.submissions"] == 8

    def test_distinct_parameters_do_not_deduplicate(self, gate, tmp_path, req):
        registry = ExperimentRegistry([gate.spec()])

        async def main():
            manager = JobManager(registry=registry, cache=tmp_path / "cache")
            a, _ = await manager.submit(req(registry, "GATED", n=1))
            b, dedup = await manager.submit(req(registry, "GATED", n=2))
            gate.open()
            await manager.wait(a.id)
            await manager.wait(b.id)
            await manager.close()
            return a, b, dedup

        a, b, dedup = run(main())
        assert a is not b and not dedup
        assert gate.calls == 2

    def test_terminal_jobs_leave_the_inflight_table(self, registry, tmp_path, req):
        """A submission after completion is a fresh job (served by the
        cache), not a subscriber of the finished one."""

        async def main():
            manager = JobManager(registry=registry, cache=tmp_path / "cache")
            request = req(registry, "STUB")
            first, _ = await manager.submit(request)
            await manager.wait(first.id)
            second, deduplicated = await manager.submit(request)
            await manager.close()
            return first, second, deduplicated

        first, second, deduplicated = run(main())
        assert second is not first and not deduplicated
        assert second.from_cache and second.state == JobState.DONE
        assert [event["event"] for event in second.events] == ["cached"]
        assert second.report.result.to_dict() == first.report.result.to_dict()


class TestCacheIntegration:
    def test_cache_hit_across_managers(self, registry, tmp_path, req):
        cache = ResultCache(tmp_path / "cache")

        async def first_run():
            manager = JobManager(registry=registry, cache=cache)
            job, _ = await manager.submit(req(registry, "STUB"))
            await manager.wait(job.id)
            await manager.close()
            return job

        async def second_run():
            manager = JobManager(registry=registry, cache=cache)
            job, _ = await manager.submit(req(registry, "STUB"))
            await manager.close()
            return manager, job

        executed = run(first_run())
        manager, cached = run(second_run())
        assert cached.from_cache and cached.state == JobState.DONE
        assert cached.report.result.to_dict() == executed.report.result.to_dict()
        assert manager.metrics()["counters"].get("service.executions", 0) == 0

    def test_cache_disabled_always_executes(self, registry, req):
        async def main():
            manager = JobManager(registry=registry, cache=None)
            request = req(registry, "STUB")
            first, _ = await manager.submit(request)
            await manager.wait(first.id)
            second, _ = await manager.submit(request)
            await manager.wait(second.id)
            await manager.close()
            return manager

        manager = run(main())
        assert manager.metrics()["counters"]["service.executions"] == 2


class TestEvents:
    def test_events_replay_after_terminal(self, registry, tmp_path, req):
        async def main():
            manager = JobManager(registry=registry, cache=tmp_path / "cache")
            job, _ = await manager.submit(req(registry, "STUB"))
            await manager.wait(job.id)
            replayed = [event async for event in manager.events(job.id)]
            await manager.close()
            return job, replayed

        job, replayed = run(main())
        assert [event["event"] for event in replayed] == ["start", "done"]
        assert all(event["job_id"] == job.id for event in replayed)
        assert all(event["schema"] == 1 for event in replayed)

    def test_live_stream_sees_start_before_done(self, gate, tmp_path, req):
        registry = ExperimentRegistry([gate.spec()])

        async def main():
            manager = JobManager(registry=registry, cache=tmp_path / "cache")
            job, _ = await manager.submit(req(registry, "GATED"))
            stream = manager.events(job.id)
            task = asyncio.ensure_future(_collect(stream))
            await asyncio.sleep(0)  # let the stream subscribe
            gate.open()
            events = await task
            await manager.close()
            return events

        async def _collect(stream):
            return [event async for event in stream]

        events = run(main())
        assert [event["event"] for event in events] == ["start", "done"]


class TestMetrics:
    def test_metrics_shape(self, registry, tmp_path, req):
        async def main():
            manager = JobManager(registry=registry, cache=tmp_path / "cache")
            job, _ = await manager.submit(req(registry, "STUB"))
            await manager.wait(job.id)
            await manager.close()
            return manager.metrics()

        metrics = run(main())
        assert metrics["kind"] == "metrics"
        assert metrics["jobs"] == {"queued": 0, "running": 0, "done": 1, "failed": 0}
        assert metrics["inflight"] == 0
        assert metrics["spans"]["service.execute"]["count"] == 1
        assert metrics["spans"]["service.queue_wait"]["count"] == 1
        assert metrics["cache"]["enabled"] is True
        assert metrics["counters"]["cache.miss"] == 1
        assert "stats" not in metrics["cache"]
        assert metrics["cache"]["disk"]["entries"] == 1
