"""Chaos and recovery tests for the JobManager: journal replay after a
crash, retry/timeout supervision, admission control, and graceful drain.

Crashes are simulated the honest way: a manager is abandoned without
``close()`` (its event loop simply goes away, like a SIGKILL would take it),
and a fresh manager is pointed at the same journal + cache directories."""

from __future__ import annotations

import asyncio

import pytest

from repro.errors import (
    JobTimeoutError,
    QueueFullError,
    RetriesExhaustedError,
    ShuttingDownError,
)
from repro.faults import FaultPlan, tear_journal_tail
from repro.harness.registry import ExperimentRegistry, ExperimentSpec, ParameterSpec
from repro.service import JobManager, JobState
from repro.service.journal import JobJournal
from tests.service.conftest import Gate, make_result, stub_spec


def run(coroutine):
    return asyncio.run(coroutine)


def flaky_spec(failures, experiment_id="FLAKY"):
    """A runner that fails retryably ``failures`` times, then succeeds."""
    state = {"calls": 0}

    def runner(n=3, seed=0):
        state["calls"] += 1
        if state["calls"] <= failures:
            raise OSError(f"transient blip #{state['calls']}")
        return make_result(experiment_id, n=n, seed=seed)

    spec = ExperimentSpec(
        id=experiment_id,
        title="flaky spec",
        runner=runner,
        parameters=(ParameterSpec("n", "int", 3), ParameterSpec("seed", "int", 0)),
    )
    return spec, state


def sticky_spec(experiment_id="STICKY"):
    """A runner that always raises a non-retryable (taxonomy) error."""

    def runner(n=3):
        from repro.errors import WireFormatError

        raise WireFormatError("deterministically broken")

    return ExperimentSpec(
        id=experiment_id,
        title="sticky failure",
        runner=runner,
        parameters=(ParameterSpec("n", "int", 3),),
    )


FAST = {"base": 0.01, "jitter": 0.0}


def fast_backoff():
    from repro.retry import BackoffPolicy

    return BackoffPolicy(base=0.01, factor=1.0, cap=0.01, jitter=0.0)


class TestRetries:
    def test_retryable_failures_retry_until_success(self, req):
        spec, state = flaky_spec(failures=2)
        registry = ExperimentRegistry([spec])

        async def main():
            manager = JobManager(
                registry=registry, cache=None, max_retries=3, backoff=fast_backoff()
            )
            job, _ = await manager.submit(req(registry, "FLAKY"))
            await manager.wait(job.id)
            await manager.close()
            return manager, job

        manager, job = run(main())
        assert job.state == JobState.DONE
        assert state["calls"] == 3
        assert job.attempt == 2
        kinds = [event["event"] for event in job.events]
        assert kinds == ["start", "retry", "start", "retry", "start", "done"]
        metrics = manager.metrics()
        assert metrics["counters"]["service.retries"] == 2
        assert metrics["spans"]["service.retry"]["count"] == 2

    def test_exhausted_budget_fails_with_retries_exhausted(self, req):
        spec, state = flaky_spec(failures=10)
        registry = ExperimentRegistry([spec])

        async def main():
            manager = JobManager(
                registry=registry, cache=None, max_retries=2, backoff=fast_backoff()
            )
            job, _ = await manager.submit(req(registry, "FLAKY"))
            await manager.wait(job.id)
            await manager.close()
            return job

        job = run(main())
        assert job.state == JobState.FAILED
        assert state["calls"] == 3  # initial + 2 retries
        assert job.error["error"] == "retries_exhausted"
        assert job.error_status == RetriesExhaustedError.http_status
        assert job.error["details"]["attempts"] == 3
        assert job.error["details"]["last_error"]["error"] == "internal"
        assert "blip #3" in job.error["details"]["last_error"]["message"]

    def test_non_retryable_failures_fail_fast_despite_budget(self, req):
        registry = ExperimentRegistry([sticky_spec()])

        async def main():
            manager = JobManager(
                registry=registry, cache=None, max_retries=5, backoff=fast_backoff()
            )
            job, _ = await manager.submit(req(registry, "STICKY"))
            await manager.wait(job.id)
            await manager.close()
            return manager, job

        manager, job = run(main())
        assert job.state == JobState.FAILED
        assert job.attempt == 0
        assert job.error["error"] == "wire_format"
        assert "service.retries" not in manager.metrics()["counters"]

    def test_injected_worker_faults_retry_deterministically(self, req):
        """The chaos shape: a seeded plan injects two worker crashes; the
        job recovers on the third attempt and the plan's log proves the
        exact sequence."""
        registry = ExperimentRegistry([stub_spec()])
        plan = FaultPlan(seed=11).fail("worker.execute", times=2)

        async def main():
            manager = JobManager(
                registry=registry,
                cache=None,
                max_retries=3,
                backoff=fast_backoff(),
                faults=plan,
            )
            job, _ = await manager.submit(req(registry, "STUB"))
            await manager.wait(job.id)
            await manager.close()
            return job

        job = run(main())
        assert job.state == JobState.DONE and job.attempt == 2
        assert plan.fired == (
            ("worker.execute", 0, "fail"),
            ("worker.execute", 1, "fail"),
        )


class TestTimeouts:
    def test_deadline_expiry_fails_with_job_timeout(self, req):
        gate = Gate()  # never opened: the attempt wedges
        registry = ExperimentRegistry([gate.spec()])

        async def main():
            manager = JobManager(registry=registry, cache=None, job_timeout=0.15)
            job, _ = await manager.submit(req(registry, "GATED"))
            await manager.wait(job.id)
            await manager.close()
            return manager, job

        manager, job = run(main())
        gate.open()  # release the abandoned worker thread
        assert job.state == JobState.FAILED
        assert job.error["error"] == "job_timeout"
        assert job.error_status == JobTimeoutError.http_status
        assert manager.metrics()["counters"]["service.timeouts"] == 1

    def test_timed_out_attempt_releases_its_slot(self, req):
        """A wedged execution must not eat the worker pool: with one slot
        and one wedged job, the next job still runs."""
        gate = Gate()
        registry = ExperimentRegistry([gate.spec(), stub_spec()])

        async def main():
            manager = JobManager(
                registry=registry, cache=None, max_workers=1, job_timeout=0.15
            )
            wedged, _ = await manager.submit(req(registry, "GATED"))
            healthy, _ = await manager.submit(req(registry, "STUB"))
            await manager.wait(wedged.id)
            await manager.wait(healthy.id)
            await manager.close()
            return wedged, healthy

        wedged, healthy = run(main())
        gate.open()
        assert wedged.state == JobState.FAILED
        assert healthy.state == JobState.DONE

    def test_late_result_from_wedged_thread_is_discarded(self, req):
        gate = Gate()
        registry = ExperimentRegistry([gate.spec()])

        async def main():
            manager = JobManager(registry=registry, cache=None, job_timeout=0.15)
            job, _ = await manager.submit(req(registry, "GATED"))
            await manager.wait(job.id)
            gate.open()  # the abandoned thread now finishes and delivers late
            for _ in range(200):
                await asyncio.sleep(0.01)
                if manager.recorder.counters.get("service.stale_results"):
                    break
            await manager.close()
            return manager, job

        manager, job = run(main())
        assert job.state == JobState.FAILED  # the timeout verdict stands
        assert manager.recorder.counters.get("service.stale_results") == 1


class TestAdmissionControl:
    def test_queue_full_rejects_with_retry_hint(self, req):
        gate = Gate()
        registry = ExperimentRegistry([gate.spec()])

        async def main():
            manager = JobManager(
                registry=registry, cache=None, max_workers=1, max_queue=1
            )
            running, _ = await manager.submit(req(registry, "GATED", n=1))
            queued, _ = await manager.submit(req(registry, "GATED", n=2))
            with pytest.raises(QueueFullError) as info:
                await manager.submit(req(registry, "GATED", n=3))
            gate.open()
            await manager.wait(running.id)
            await manager.wait(queued.id)
            await manager.close()
            return manager, info.value

        manager, error = run(main())
        assert error.http_status == 429
        assert error.details["max_queue"] == 1
        assert error.details["retry_after"] > 0
        assert manager.metrics()["counters"]["service.rejected"] == 1
        # no accepted job was dropped
        assert manager.metrics()["jobs"]["done"] == 2

    def test_duplicate_submissions_bypass_admission(self, req):
        """Single-flight joins consume no queue slot, so saturation never
        rejects a request the service can answer for free."""
        gate = Gate()
        registry = ExperimentRegistry([gate.spec()])

        async def main():
            manager = JobManager(
                registry=registry, cache=None, max_workers=1, max_queue=1
            )
            first, _ = await manager.submit(req(registry, "GATED", n=1))
            await manager.submit(req(registry, "GATED", n=2))  # fills the queue
            joined, deduplicated = await manager.submit(req(registry, "GATED", n=1))
            gate.open()
            await manager.wait(first.id)
            await manager.close()
            return first, joined, deduplicated

        first, joined, deduplicated = run(main())
        assert joined is first and deduplicated

    def test_priorities_dispatch_high_first(self, req):
        order = []

        def recording_runner(n=3, seed=0):
            order.append(n)
            return make_result("REC", n=n, seed=seed)

        rec = ExperimentSpec(
            id="REC",
            title="records its dispatch order",
            runner=recording_runner,
            parameters=(ParameterSpec("n", "int", 3), ParameterSpec("seed", "int", 0)),
        )
        gate = Gate()
        registry = ExperimentRegistry([gate.spec(), rec])

        async def main():
            manager = JobManager(registry=registry, cache=None, max_workers=1)
            blocker, _ = await manager.submit(req(registry, "GATED"))
            low, _ = await manager.submit(req(registry, "REC", n=1), priority=0)
            high, _ = await manager.submit(req(registry, "REC", n=2), priority=5)
            gate.open()
            await manager.wait(low.id)
            await manager.wait(high.id)
            await manager.close()

        run(main())
        assert order == [2, 1]  # priority 5 dispatched before priority 0


class TestJournalReplay:
    def test_terminal_job_replays_from_cache(self, registry, tmp_path, req):
        dirs = {"journal_dir": tmp_path / "journal", "cache": tmp_path / "cache"}

        async def first_life():
            manager = JobManager(registry=registry, **dirs)
            await manager.start()
            job, _ = await manager.submit(req(registry, "STUB"))
            await manager.wait(job.id)
            await manager.close()
            return job

        async def second_life():
            manager = JobManager(registry=registry, **dirs)
            requeued = await manager.start()
            job = manager.get(job_id)
            await manager.close()
            return manager, requeued, job

        first = run(first_life())
        job_id = first.id
        manager, requeued, job = run(second_life())
        assert requeued == 0
        assert job.state == JobState.DONE and job.from_cache
        assert [event["event"] for event in job.events] == ["cached"]
        assert job.report.result.to_dict() == first.report.result.to_dict()
        assert manager.metrics()["counters"].get("service.executions", 0) == 0

    def test_interrupted_job_reexecutes_to_identical_result(self, tmp_path, req):
        """The acceptance shape: kill mid-execution, restart on the same
        journal, the same job id completes to a bit-identical result."""
        dirs = dict(journal_dir=tmp_path / "journal", cache=tmp_path / "cache")
        gate1 = Gate()  # never opens: simulates dying mid-run
        registry1 = ExperimentRegistry([gate1.spec()])

        async def crash_life():
            manager = JobManager(registry=registry1, **dirs)
            await manager.start()
            job, _ = await manager.submit(req(registry1, "GATED", n=5, seed=3))
            for _ in range(100):
                await asyncio.sleep(0.01)
                if job.state == JobState.RUNNING:
                    break
            return job.id  # no close(): the "process" dies here

        job_id = run(crash_life())
        # gate1 stays closed: the orphaned worker thread is still wedged, so
        # nothing ever reached the cache — exactly the mid-execution kill.

        gate2 = Gate()
        gate2.open()
        registry2 = ExperimentRegistry([gate2.spec()])

        async def second_life():
            manager = JobManager(registry=registry2, **dirs)
            requeued = await manager.start()
            job = await manager.wait(job_id)
            await manager.close()
            return manager, requeued, job

        manager, requeued, job = run(second_life())
        gate1.open()  # release the orphaned first-life thread
        assert requeued == 1
        assert manager.metrics()["counters"]["service.replayed"] == 1
        assert job.state == JobState.DONE and not job.from_cache
        # bit-identical to an uninterrupted run at the same parameters/seed
        expected = make_result("GATED", n=5, seed=3)
        assert job.report.result.to_dict() == expected.to_dict()

    def test_torn_tail_is_skipped_not_fatal(self, registry, tmp_path, req):
        dirs = dict(journal_dir=tmp_path / "journal", cache=tmp_path / "cache")

        async def first_life():
            manager = JobManager(registry=registry, **dirs)
            await manager.start()
            job, _ = await manager.submit(req(registry, "STUB"))
            await manager.wait(job.id)
            await manager.close()
            return job.id

        job_id = run(first_life())
        journal_path = JobJournal(dirs["journal_dir"]).path
        tear_journal_tail(journal_path, drop_bytes=7)  # crash mid-append

        async def second_life():
            manager = JobManager(registry=registry, **dirs)
            await manager.start()
            job = manager.get(job_id)
            await manager.wait(job.id)
            await manager.close()
            return manager, job

        manager, job = run(second_life())
        assert manager.metrics()["counters"]["service.journal_torn"] == 1
        # the torn record was the terminal 'done'; the job re-executes (or is
        # cached) and still completes
        assert job.state == JobState.DONE

    def test_replay_with_evicted_cache_reexecutes(self, registry, tmp_path, req):
        """A journaled-done job whose cache entry was evicted must re-run to
        a fresh result, not 500."""
        from repro.engine.cache import ResultCache

        cache = ResultCache(tmp_path / "cache")
        journal_dir = tmp_path / "journal"

        async def first_life():
            manager = JobManager(registry=registry, cache=cache, journal_dir=journal_dir)
            await manager.start()
            job, _ = await manager.submit(req(registry, "STUB"))
            await manager.wait(job.id)
            await manager.close()
            return job

        first = run(first_life())
        cache.clear()  # every entry evicted between the two lives

        async def second_life():
            manager = JobManager(registry=registry, cache=cache, journal_dir=journal_dir)
            requeued = await manager.start()
            job = await manager.wait(first.id)
            await manager.close()
            return manager, requeued, job

        manager, requeued, job = run(second_life())
        assert requeued == 1
        assert job.state == JobState.DONE and not job.from_cache
        assert manager.metrics()["counters"]["service.executions"] == 1
        assert job.report.result.to_dict() == first.report.result.to_dict()

    def test_failed_job_replays_failed_with_payload(self, registry, tmp_path, req):
        dirs = dict(journal_dir=tmp_path / "journal", cache=None)

        async def first_life():
            manager = JobManager(registry=registry, **dirs)
            await manager.start()
            job, _ = await manager.submit(req(registry, "BOOM"))
            await manager.wait(job.id)
            await manager.close()
            return job.id

        job_id = run(first_life())

        async def second_life():
            manager = JobManager(registry=registry, **dirs)
            await manager.start()
            job = manager.get(job_id)
            await manager.close()
            return job

        job = run(second_life())
        assert job.state == JobState.FAILED
        assert job.error["error"] == "internal"
        assert "exploded" in job.error["message"]
        assert job.error_status == 500

    def test_removed_engine_value_replays_to_a_typed_failure(self, tmp_path):
        """A journal written by an older server may hold a submit whose engine
        value no longer exists (``engine="fast"``).  Replay must not crash:
        the job re-runs and fails with the registry's typed 400 error."""
        from repro.api.session import PRESET_QUICK, RunRequest
        from repro.api.wire import encode_request
        from repro.harness.registry import REGISTRY

        parameters = REGISTRY["E1"].resolve(preset=PRESET_QUICK)
        parameters["engine"] = "fast"
        request = RunRequest.create("E1", parameters, preset=PRESET_QUICK)
        journal = JobJournal(tmp_path / "journal")
        journal.append(
            "submit", "j000001-00000000", request=encode_request(request),
            cache_key="0" * 64, priority=0,
        )
        journal.close()

        async def restart():
            manager = JobManager(journal_dir=tmp_path / "journal", cache=None)
            requeued = await manager.start()
            job = await manager.wait("j000001-00000000")
            await manager.close()
            return requeued, job

        requeued, job = run(restart())
        assert requeued == 1
        assert job.state == JobState.FAILED
        assert job.error["error"] == "parameter_value"
        assert "'fast'" in job.error["message"]
        assert job.error_status == 400

    def test_replay_compacts_the_journal(self, registry, tmp_path, req):
        dirs = dict(journal_dir=tmp_path / "journal", cache=tmp_path / "cache")

        async def noisy_life():
            manager = JobManager(registry=registry, **dirs)
            await manager.start()
            for n in range(4):
                job, _ = await manager.submit(req(registry, "STUB", n=n))
                await manager.wait(job.id)
            await manager.close()

        run(noisy_life())
        journal = JobJournal(dirs["journal_dir"])
        raw_before = journal.describe()["records"]

        async def second_life():
            manager = JobManager(registry=registry, **dirs)
            await manager.start()
            await manager.close()

        run(second_life())
        assert journal.describe()["records"] <= raw_before
        # submits survive; per-job state collapses to submit + terminal
        assert journal.describe()["records"] == 8

    def test_new_ids_do_not_collide_with_replayed_ones(self, registry, tmp_path, req):
        dirs = dict(journal_dir=tmp_path / "journal", cache=tmp_path / "cache")

        async def first_life():
            manager = JobManager(registry=registry, **dirs)
            await manager.start()
            job, _ = await manager.submit(req(registry, "STUB", n=1))
            await manager.wait(job.id)
            await manager.close()
            return job.id

        old_id = run(first_life())

        async def second_life():
            manager = JobManager(registry=registry, **dirs)
            await manager.start()
            job, _ = await manager.submit(req(registry, "STUB", n=2))
            await manager.wait(job.id)
            await manager.close()
            return job.id

        new_id = run(second_life())
        assert new_id != old_id
        assert int(new_id[1:7]) > int(old_id[1:7])


class TestGracefulDrain:
    def test_drain_refuses_new_work_and_finishes_running(self, registry, req, tmp_path):
        gate = Gate()
        registry = ExperimentRegistry([gate.spec()])

        async def main():
            manager = JobManager(
                registry=registry, cache=None, journal_dir=tmp_path / "journal"
            )
            await manager.start()
            job, _ = await manager.submit(req(registry, "GATED"))
            close_task = asyncio.ensure_future(manager.close())
            await asyncio.sleep(0.05)
            with pytest.raises(ShuttingDownError):
                await manager.submit(req(registry, "GATED", n=9))
            gate.open()
            await close_task
            return job

        job = run(main())
        assert job.state == JobState.DONE  # the running job was not dropped

    def test_queued_jobs_survive_drain_via_journal(self, tmp_path, req):
        gate = Gate()
        registry = ExperimentRegistry([gate.spec(), stub_spec()])
        dirs = dict(journal_dir=tmp_path / "journal", cache=tmp_path / "cache")

        async def draining_life():
            manager = JobManager(registry=registry, max_workers=1, **dirs)
            await manager.start()
            running, _ = await manager.submit(req(registry, "GATED"))
            queued, _ = await manager.submit(req(registry, "STUB"))
            assert queued.state == JobState.QUEUED
            close_task = asyncio.ensure_future(manager.close())
            await asyncio.sleep(0.05)
            gate.open()
            await close_task
            return running, queued

        running, queued = run(draining_life())
        assert running.state == JobState.DONE
        assert queued.state == JobState.QUEUED  # never ran, never dropped

        async def next_life():
            manager = JobManager(registry=registry, **dirs)
            requeued = await manager.start()
            job = await manager.wait(queued.id)
            await manager.close()
            return requeued, job

        requeued, job = run(next_life())
        assert requeued == 1
        assert job.state == JobState.DONE
