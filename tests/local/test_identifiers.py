"""Tests for identity assignment schemes (repro.local.identifiers)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.local.identifiers import (
    consecutive_ids,
    random_distinct_ids,
    shuffled_consecutive_ids,
    validate_id_assignment,
)


class TestValidation:
    def test_accepts_distinct_positive(self):
        validate_id_assignment({"a": 1, "b": 2, "c": 10})

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            validate_id_assignment({"a": 1, "b": 1})

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError, match="positive"):
            validate_id_assignment({"a": 0})

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError, match="not an integer"):
            validate_id_assignment({"a": "x"})

    @pytest.mark.parametrize(
        "ids,message",
        [
            ({"a": 1, "b": 2.0, "c": "x"}, "identity of node 'b' is not an integer: 2.0"),
            (
                {"a": 1, "b": np.bool_(True)},
                f"identity of node 'b' is not an integer: {np.bool_(True)!r}",
            ),
            ({"a": 1, "b": 0}, "identity of node 'b' must be positive, got 0"),
            ({"a": 3, "b": -2, "c": 0}, "identity of node 'b' must be positive, got -2"),
            ({"a": 1, "b": False}, "identity of node 'b' must be positive, got False"),
            ({"a": 1, "b": 2, "c": 1, "d": 2}, "duplicate identity 1 (node 'c')"),
            ({"a": np.int64(1), "b": True}, "duplicate identity True (node 'b')"),
            # The first offender in node order, whatever its kind.
            ({"a": 2, "b": 2, "c": -1, "d": "x"}, "duplicate identity 2 (node 'b')"),
            ({"a": 2, "b": -1, "c": 2}, "identity of node 'b' must be positive, got -1"),
        ],
    )
    def test_each_error_names_the_first_offending_node(self, ids, message):
        with pytest.raises(ValueError) as raised:
            validate_id_assignment(ids)
        assert str(raised.value) == message

    def test_accepts_numpy_integers_and_bools(self):
        validate_id_assignment({"a": np.int64(3), "b": np.uint8(2), "c": True, "d": 10**30})
        validate_id_assignment({})


class TestConsecutive:
    def test_values_follow_order(self):
        ids = consecutive_ids(["x", "y", "z"])
        assert ids == {"x": 1, "y": 2, "z": 3}

    def test_custom_start(self):
        ids = consecutive_ids(["x", "y"], start=100)
        assert ids == {"x": 100, "y": 101}

    def test_start_must_be_positive(self):
        with pytest.raises(ValueError):
            consecutive_ids(["x"], start=0)


class TestShuffled:
    def test_is_permutation_of_range(self):
        ids = shuffled_consecutive_ids(list(range(20)), seed=3)
        assert sorted(ids.values()) == list(range(1, 21))

    def test_seed_reproducible(self):
        nodes = list(range(15))
        assert shuffled_consecutive_ids(nodes, seed=4) == shuffled_consecutive_ids(nodes, seed=4)

    def test_different_seed_usually_differs(self):
        nodes = list(range(15))
        assert shuffled_consecutive_ids(nodes, seed=1) != shuffled_consecutive_ids(nodes, seed=2)


class TestRandomDistinct:
    def test_distinct_and_in_range(self):
        ids = random_distinct_ids(list(range(50)), seed=0, low=10)
        values = list(ids.values())
        assert len(set(values)) == 50
        assert min(values) >= 10

    def test_range_too_small_raises(self):
        with pytest.raises(ValueError):
            random_distinct_ids(list(range(10)), low=1, high=5)

    def test_reproducible(self):
        nodes = list(range(10))
        assert random_distinct_ids(nodes, seed=9) == random_distinct_ids(nodes, seed=9)
