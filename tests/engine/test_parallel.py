"""Tests for the process-pool fan-out and per-point seeds
(repro.engine.parallel), and for the engine's import layering."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine.parallel import imap, point_seed
from repro.obs import TraceRecorder, use_recorder


class TestDeterministicSeeding:
    def test_per_point_seeds_are_stable_and_distinct(self):
        seeds = [point_seed(7, {"n": n}) for n in (1, 2, 3)]
        assert len(set(seeds)) == 3
        assert seeds == [point_seed(7, {"n": n}) for n in (1, 2, 3)]

    def test_point_seed_ignores_key_order(self):
        assert point_seed(1, {"a": 1, "b": 2}) == point_seed(1, {"b": 2, "a": 1})

    def test_point_seed_canonicalizes_value_spellings(self):
        # The cache-key layer treats 1 and 1.0 as the same parameter value
        # and thaws tuples to lists; the derived seed must agree, or equal
        # points would run with different randomness depending on spelling.
        assert point_seed(7, {"f": 1}) == point_seed(7, {"f": 1.0})
        assert point_seed(7, {"xs": (1, 2)}) == point_seed(7, {"xs": [1, 2]})
        assert point_seed(7, {"xs": (1, (2.0, 3))}) == point_seed(7, {"xs": [1, [2, 3]]})

    def test_point_seed_canonicalization_keeps_distinct_values_distinct(self):
        assert point_seed(7, {"f": 1}) != point_seed(7, {"f": 2})
        assert point_seed(7, {"f": 1.5}) != point_seed(7, {"f": 1})
        # bool is a distinct parameter value, not the integer it subclasses.
        assert point_seed(7, {"f": True}) != point_seed(7, {"f": 1})

    def test_point_seed_is_a_nonnegative_31_bit_int(self):
        # Runners hand the seed to numpy and to TapeFactory, both of which
        # take a non-negative int; the derivation folds into [0, 2**31).
        for master in (0, 1, 2**40):
            for n in range(20):
                seed = point_seed(master, {"n": n, "eps": n / 7})
                assert isinstance(seed, int)
                assert 0 <= seed < 2**31

    def test_point_seed_depends_on_the_master_seed(self):
        point = {"n": 5, "eps": 0.25}
        assert len({point_seed(master, point) for master in range(10)}) == 10


def double_payload(payload):
    return {"doubled": payload["x"] * 2}


def delayed_identity(payload):
    time.sleep(payload["delay"])
    return payload["x"]


def failing_on_two(payload):
    if payload["x"] == 2:
        raise ValueError("payload 2 is bad")
    return payload["x"]


class TestMapPrimitives:
    PAYLOADS = [{"x": 1}, {"x": 2}, {"x": 3}]

    def test_map_preserves_submission_order(self):
        expected = [{"doubled": 2}, {"doubled": 4}, {"doubled": 6}]
        assert list(imap(double_payload, self.PAYLOADS, max_workers=2)) == expected

    def test_single_payload_short_circuits_the_pool(self):
        # One payload runs in-process even with workers configured (no pool
        # startup cost); unpicklable functions are therefore fine here.
        assert list(imap(lambda p: p["x"], [{"x": 9}], max_workers=4)) == [9]

    def test_order_holds_when_later_payloads_finish_first(self):
        payloads = [{"x": 1, "delay": 0.5}, {"x": 2, "delay": 0.0}, {"x": 3, "delay": 0.0}]
        assert list(imap(delayed_identity, payloads, max_workers=3)) == [1, 2, 3]

    def test_no_payloads_yield_nothing(self):
        assert list(imap(double_payload, [], max_workers=2)) == []

    def test_imap_runs_nothing_until_iterated(self):
        calls = []

        def recording(payload):
            calls.append(payload["x"])
            return payload["x"]

        iterator = imap(recording, [{"x": 1}], max_workers=1)
        assert calls == []  # a generator: no work before the first next()
        assert next(iterator) == 1
        assert calls == [1]
        assert list(iterator) == []

    def test_worker_exceptions_propagate(self):
        with pytest.raises(ValueError, match="payload 2 is bad"):
            list(imap(failing_on_two, self.PAYLOADS, max_workers=2))

    def test_default_worker_count_is_accepted(self):
        expected = [{"doubled": 2}, {"doubled": 4}, {"doubled": 6}]
        assert list(imap(double_payload, self.PAYLOADS, max_workers=None)) == expected

    def test_pool_submission_is_traced(self):
        recorder = TraceRecorder()
        with use_recorder(recorder):
            list(imap(double_payload, self.PAYLOADS, max_workers=2))
        submits = [span for span in recorder.iter_spans() if span.name == "parallel.submit"]
        assert len(submits) == 1
        assert submits[0].attributes["tasks"] == 3
        assert submits[0].attributes["max_workers"] == 2


def test_engine_imports_no_layer_above_it():
    """``import repro.engine`` loads only the engine and the layers below it
    (errors, local, obs, stats): core, harness and api dispatch into the
    engine, never the other way round."""
    src = Path(__file__).resolve().parents[2] / "src"
    script = (
        "import json, sys, repro.engine; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro.'))))"
    )
    environment = dict(os.environ, PYTHONPATH=str(src))
    output = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=environment,
    ).stdout
    packages = {name.split(".")[1] for name in json.loads(output)}
    assert packages <= {"engine", "errors", "local", "obs", "stats"}
    assert "engine" in packages
