"""Round-trip and envelope tests for the versioned wire format
(repro.api.wire)."""

from __future__ import annotations

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from repro.api.session import RunRequest  # noqa: E402
from repro.api.wire import (  # noqa: E402
    WIRE_SCHEMA,
    decode_request,
    decode_result,
    encode_request,
    encode_result,
)
from repro.errors import WireFormatError  # noqa: E402
from repro.harness.results import ExperimentResult  # noqa: E402

# --------------------------------------------------------------------------- #
# Strategies: the JSON-able values the stack actually transports.
# --------------------------------------------------------------------------- #
_scalars = st.one_of(
    st.integers(min_value=-(2**53), max_value=2**53),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.text(max_size=20),
    st.none(),
)
_param_values = st.one_of(_scalars, st.lists(_scalars, max_size=4))
_identifiers = st.text(
    alphabet=st.characters(whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters="_-"),
    min_size=1,
    max_size=12,
)
_parameters = st.dictionaries(_identifiers, _param_values, max_size=5)
_requests = st.builds(
    RunRequest.create,
    experiment_id=_identifiers,
    parameters=_parameters,
    preset=st.sampled_from(["full", "quick"]),
)
_rows = st.lists(st.dictionaries(_identifiers, _scalars, max_size=4), max_size=4)
_results = st.builds(
    ExperimentResult,
    experiment_id=_identifiers,
    title=st.text(max_size=20),
    paper_claim=st.text(max_size=20),
    parameters=_parameters,
    rows=_rows,
    matches_paper=st.sampled_from([True, False, None]),
    unresolved=st.booleans(),
    ci_low=st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
    ci_high=st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
    trials_used=st.one_of(st.none(), st.integers(min_value=0, max_value=10**9)),
    notes=st.text(max_size=20),
)


class TestRequestRoundTrip:
    @given(request=_requests)
    def test_decode_inverts_encode(self, request):
        assert decode_request(encode_request(request)) == request

    @given(request=_requests)
    def test_encoding_is_json_able_and_versioned(self, request):
        record = json.loads(json.dumps(encode_request(request)))
        assert record["schema"] == WIRE_SCHEMA
        assert record["kind"] == "run_request"
        assert decode_request(record) == request

    @given(request=_requests)
    def test_payload_mapping_encodes_like_the_request(self, request):
        assert encode_request(request.to_payload()) == encode_request(request)

    @given(request=_requests)
    def test_same_request_is_byte_identical_after_a_crossing(self, request):
        # Canonical JSON of a request survives a wire crossing byte for byte:
        # the receiving side re-encodes exactly what the sender wrote.
        text = json.dumps(encode_request(request), sort_keys=True)
        received = decode_request(json.loads(text))
        assert json.dumps(encode_request(received), sort_keys=True) == text

    @given(request=_requests)
    def test_round_trip_preserves_the_cache_key_inputs(self, request):
        # Tuple-valued parameters normalize to lists and back: the kwargs the
        # runner (and the cache key) see are unchanged by a wire crossing.
        assert decode_request(encode_request(request)).kwargs == request.kwargs


class TestResultRoundTrip:
    @given(result=_results)
    def test_decode_inverts_encode(self, result):
        assert decode_result(encode_result(result)).to_dict() == result.to_dict()

    @given(result=_results)
    def test_provenance_rides_alongside_without_touching_the_body(self, result):
        record = encode_result(result, from_cache=True, job_id="j1")
        assert record["provenance"] == {"from_cache": True, "job_id": "j1"}
        assert decode_result(record).to_dict() == result.to_dict()


class TestEnvelopeRejection:
    def test_wrong_schema_version_rejected(self):
        record = encode_request(RunRequest.create("E1", {}))
        record["schema"] = WIRE_SCHEMA + 1
        with pytest.raises(WireFormatError, match="unsupported wire schema"):
            decode_request(record)

    def test_wrong_kind_rejected_by_every_decoder(self):
        request_record = encode_request(RunRequest.create("E1", {}))
        with pytest.raises(WireFormatError, match="expected a 'experiment_result'"):
            decode_result(request_record)
        result_record = encode_result(ExperimentResult("E1", "t", "c"))
        with pytest.raises(WireFormatError, match="expected a 'run_request'"):
            decode_request(result_record)

    def test_non_mapping_rejected(self):
        with pytest.raises(WireFormatError, match="expected a run_request record"):
            decode_request(["not", "a", "mapping"])

    def test_request_without_experiment_id_rejected(self):
        with pytest.raises(WireFormatError, match="experiment_id"):
            encode_request({"parameters": {}})
        record = encode_request(RunRequest.create("E1", {}))
        record["experiment_id"] = ""
        with pytest.raises(WireFormatError, match="experiment_id"):
            decode_request(record)

    def test_request_with_ill_shaped_parameters_rejected(self):
        record = encode_request(RunRequest.create("E1", {}))
        for parameters in (None, [["n", 3]], "n=3"):
            record["parameters"] = parameters
            with pytest.raises(WireFormatError, match="parameters must be a mapping"):
                decode_request(record)

    def test_result_with_ill_shaped_body_rejected(self):
        record = encode_result(ExperimentResult("E1", "t", "c"))
        record["result"] = {"not": "a result"}
        with pytest.raises(WireFormatError, match="not an ExperimentResult"):
            decode_result(record)
        record["result"] = None
        with pytest.raises(WireFormatError, match="must be a mapping"):
            decode_result(record)
