"""Tests for the pluggable execution backends (repro.api.backends)."""

from __future__ import annotations

import pytest

from repro.api import (
    InlineBackend,
    ProcessPoolBackend,
    Session,
    resolve_backend,
)
from repro.api.backends import execute_payload


def _payloads(session, *ids):
    return [session.request(experiment_id, preset="quick").to_payload() for experiment_id in ids]


def _singletons(payloads):
    """One group per payload: how the session submits ordinary requests."""
    return [[payload] for payload in payloads]


class TestResolveBackend:
    def test_default_is_inline_unless_parallel(self):
        assert resolve_backend(None).name == "inline"
        assert resolve_backend(None, parallel=1).name == "inline"
        pool = resolve_backend(None, parallel=3)
        assert pool.name == "process-pool"
        assert pool.max_workers == 3

    def test_instances_pass_through(self):
        backend = InlineBackend()
        assert resolve_backend(backend) is backend
        pool = ProcessPoolBackend(max_workers=1)
        assert resolve_backend(pool, parallel=4) is pool

    @pytest.mark.parametrize("name", ["inline", "process-pool", "mainframe"])
    def test_backend_names_are_rejected(self, name):
        """Only instances select a backend; ``parallel`` picks the default."""
        with pytest.raises(TypeError, match="ExecutionBackend instance"):
            resolve_backend(name)

    @pytest.mark.parametrize(
        "backend",
        [
            None,
            pytest.param(InlineBackend(), id="inline"),
            pytest.param(ProcessPoolBackend(), id="process-pool"),
        ],
    )
    @pytest.mark.parametrize("parallel", [0, -3])
    def test_worker_counts_below_one_rejected(self, backend, parallel):
        with pytest.raises(ValueError, match="positive worker count"):
            resolve_backend(backend, parallel=parallel)

    def test_pool_worker_count_validated(self):
        with pytest.raises(ValueError):
            ProcessPoolBackend(max_workers=0)

    def test_pool_rejects_custom_registries(self):
        """Worker processes resolve ids through the importable global
        registry only; silently running the wrong specs is refused."""
        from repro.harness.registry import REGISTRY, ExperimentRegistry

        backend = ProcessPoolBackend(max_workers=2)
        with pytest.raises(ValueError, match="custom registry"):
            list(backend.execute([], registry=ExperimentRegistry()))
        # The shipped registry (what Session passes by default) is fine.
        assert list(backend.execute([], registry=REGISTRY)) == []


class TestExecutePayload:
    def test_resolves_through_the_registry(self):
        session = Session(seed=2, cache=None)
        payload = session.request("E5", preset="quick", trials=150).to_payload()
        record = execute_payload(payload)
        assert record["experiment_id"] == "E5"
        assert record["matches_paper"] is True

    def test_unknown_experiment_fails_loudly(self):
        with pytest.raises(KeyError):
            execute_payload({"experiment_id": "E99", "parameters": {}})


class TestBackendEquivalence:
    """Both backends produce identical results in submission order."""

    def test_inline_and_pool_agree_bit_for_bit(self):
        session = Session(seed=4, cache=None)
        payloads = [
            session.request("E5", preset="quick", trials=150).to_payload(),
            session.request("E1", preset="quick", trials=150).to_payload(),
        ]
        inline = [result.to_dict() for result in InlineBackend().execute(_singletons(payloads))]
        pooled = [
            result.to_dict()
            for result in ProcessPoolBackend(max_workers=2).execute(_singletons(payloads))
        ]
        assert [record["experiment_id"] for record in inline] == ["E5", "E1"]
        assert pooled == inline

    def test_inline_backend_is_lazy(self):
        session = Session(seed=4, cache=None)
        iterator = InlineBackend().execute(_singletons(_payloads(session, "E5", "E1")))
        first = next(iterator)
        assert first.experiment_id == "E5"
        iterator.close()  # abandoning the iterator must not raise
