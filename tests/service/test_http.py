"""End-to-end tests for the HTTP service (repro.service.http) through the
stdlib client (repro.api.client)."""

from __future__ import annotations

import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import Client, Session
from repro.errors import JobNotFound, ReproError, WireFormatError
from repro.harness.registry import ExperimentRegistry
from repro.service import ServiceThread


@pytest.fixture
def service(registry, tmp_path):
    with ServiceThread(port=0, registry=registry, cache=tmp_path / "cache") as thread:
        yield thread


@pytest.fixture
def client(service, registry):
    return Client(service.url, registry=registry)


def _get(url):
    """A raw GET returning (status, parsed body) without raising."""
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, json.loads(response.read().decode("utf8"))
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read().decode("utf8"))


class TestEndpoints:
    def test_health(self, client):
        assert client.health() == {"schema": 1, "kind": "health", "status": "ok"}

    def test_experiments_lists_the_registry(self, client):
        listed = client.experiments()
        assert [entry["experiment_id"] for entry in listed] == ["STUB", "BOOM"]
        assert listed[0]["title"] == "stub spec"

    def test_submit_wait_result_roundtrip(self, client):
        job = client.submit("STUB")
        job.wait()
        assert job.state == "done"
        result = job.result()
        assert result.experiment_id == "STUB"
        assert result.verdict == "pass"
        record = client.result_record(job.id)
        assert record["kind"] == "experiment_result"
        assert record["provenance"]["job_id"] == job.id
        assert record["provenance"]["from_cache"] is False

    def test_status_reports_job_record(self, client):
        job = client.submit("STUB").wait()
        record = client.status(job.id)
        assert record["kind"] == "job"
        assert record["state"] == "done"
        assert record["experiment_id"] == "STUB"
        assert record["cache_key"]

    def test_second_submission_is_served_cached(self, client):
        first = client.submit("STUB").wait()
        second = client.submit("STUB")
        assert second.state == "done" and second.from_cache
        assert [e["event"] for e in second.stream()] == ["cached"]
        assert second.result().to_dict() == first.result().to_dict()

    def test_metrics_exposes_spans_counters_and_cache(self, client):
        client.submit("STUB").wait()
        metrics = client.metrics()
        assert metrics["kind"] == "metrics"
        assert metrics["spans"]["service.execute"]["count"] == 1
        assert metrics["spans"]["service.request"]["count"] >= 1
        assert metrics["counters"]["service.executions"] == 1
        assert metrics["cache"]["enabled"] is True

    def test_sse_stream_orders_start_before_done(self, client):
        job = client.submit("STUB")
        kinds = [event["event"] for event in job.stream()]
        assert kinds == ["start", "done"]


class TestErrorMapping:
    def test_unknown_route_is_404(self, service):
        status, payload = _get(f"{service.url}/v1/nope")
        assert status == 404

    def test_wrong_method_is_405(self, service):
        status, _ = _get(f"{service.url}/v1/jobs")  # GET on a POST route
        assert status == 405

    def test_malformed_json_body_maps_to_wire_format(self, service):
        request = urllib.request.Request(
            f"{service.url}/v1/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400
        assert json.loads(info.value.read().decode("utf8"))["error"] == "wire_format"

    def test_missing_schema_field_maps_to_wire_format(self, service):
        request = urllib.request.Request(
            f"{service.url}/v1/jobs",
            data=json.dumps({"experiment_id": "STUB"}).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400

    def test_client_reraises_taxonomy_types(self, service, client):
        with pytest.raises(JobNotFound) as info:
            client.status("j999999-cafef00d")
        assert info.value.details["job_id"] == "j999999-cafef00d"
        with pytest.raises(WireFormatError):
            client._call("POST", "/v1/jobs", body={"schema": 99, "kind": "run_request"})

    def test_unknown_experiment_maps_to_spec_validation(self, service, registry):
        # Bypass client-side resolution (which would catch this first) by
        # posting a syntactically valid wire record for an unknown id.
        from repro.api.wire import WIRE_SCHEMA

        request = urllib.request.Request(
            f"{service.url}/v1/jobs",
            data=json.dumps(
                {
                    "schema": WIRE_SCHEMA,
                    "kind": "run_request",
                    "experiment_id": "NOPE",
                    "parameters": {},
                    "preset": "full",
                }
            ).encode(),
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400
        assert json.loads(info.value.read().decode("utf8"))["error"] == "spec_validation"

    def test_trial_count_below_one_is_rejected_at_submit(self, tmp_path):
        """A trial count below 1 fails parameter validation with a 400 at
        submit: no job is queued, so nothing runs or is retried."""
        from repro.api.wire import WIRE_SCHEMA

        with ServiceThread(port=0, cache=tmp_path / "cache", max_retries=2) as service:
            request = urllib.request.Request(
                f"{service.url}/v1/jobs",
                data=json.dumps(
                    {
                        "schema": WIRE_SCHEMA,
                        "kind": "run_request",
                        "experiment_id": "E5",
                        "parameters": {"f_values": [1], "n": 24, "trials": 0},
                        "preset": "quick",
                    }
                ).encode(),
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request, timeout=10)
            assert info.value.code == 400
            assert json.loads(info.value.read().decode("utf8"))["error"] == "parameter_value"
            status, metrics = _get(f"{service.url}/v1/metrics")
            assert status == 200
            assert sum(metrics["jobs"].values()) == 0

    def test_result_before_terminal_is_409(self, gate, tmp_path):
        registry = ExperimentRegistry([gate.spec()])
        with ServiceThread(port=0, registry=registry, cache=tmp_path / "cache") as service:
            client = Client(service.url, registry=registry)
            job = client.submit("GATED")
            status, payload = _get(f"{service.url}/v1/jobs/{job.id}/result")
            assert status == 409
            assert payload["error"] == "job_not_terminal"
            gate.open()
            job.wait()
            assert job.result().experiment_id == "GATED"

    def test_failed_job_result_returns_the_error_payload(self, client):
        job = client.submit("BOOM").wait()
        assert job.state == "failed"
        with pytest.raises(ReproError) as info:
            job.result()
        assert "exploded" in str(info.value)
        kinds = [event["event"] for event in job.stream()]
        assert kinds == ["start", "failed"]


class TestSingleFlightAcceptance:
    """The PR's acceptance criterion, over real HTTP with a real experiment:
    8 concurrent identical submissions -> exactly one backend execution and
    8 bit-identical results, each equal to an inline Session.run at the
    same seed."""

    def test_eight_concurrent_clients_one_execution(self, tmp_path):
        seed = 3
        with ServiceThread(port=0, cache=tmp_path / "cache") as service:
            url = service.url

            def submit_and_fetch(_):
                client = Client(url, seed=seed)
                job = client.submit("E1", preset="quick")
                job.wait()
                return client.result_record(job.id)

            with ThreadPoolExecutor(max_workers=8) as pool:
                records = list(pool.map(submit_and_fetch, range(8)))

            metrics = Client(url).metrics()

        # Exactly one execution, measured by the service.execute span count.
        assert metrics["spans"]["service.execute"]["count"] == 1
        assert metrics["counters"]["service.executions"] == 1
        assert metrics["counters"]["service.submissions"] == 8

        # All eight payloads bit-identical.
        bodies = [json.dumps(record["result"], sort_keys=True) for record in records]
        assert len(set(bodies)) == 1

        # And equal to the inline session at the same seed.
        inline = Session(seed=seed, cache=None).run("E1", preset="quick")
        assert records[0]["result"] == inline.result.to_dict()
        assert inline.result.verdict == "pass"
