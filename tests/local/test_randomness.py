"""Tests for per-node private randomness (repro.local.randomness)."""

from __future__ import annotations

import pytest

from repro.local.randomness import RandomTape, TapeFactory, derive_seed


class TestDeriveSeed:
    def test_same_inputs_same_seed(self):
        assert derive_seed(7, "a", 1) == derive_seed(7, "a", 1)

    def test_different_components_different_seed(self):
        assert derive_seed(7, "a", 1) != derive_seed(7, "a", 2)

    def test_different_master_different_seed(self):
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_seed_is_nonnegative_64bit(self):
        seed = derive_seed(123456789, "node", 42)
        assert 0 <= seed < 2**64


class TestRandomTape:
    def test_same_seed_same_stream(self):
        a, b = RandomTape(5), RandomTape(5)
        assert a.bits(32) == b.bits(32)
        assert a.uniform() == b.uniform()

    def test_different_seeds_differ(self):
        a, b = RandomTape(5), RandomTape(6)
        assert a.bits(64) != b.bits(64)

    def test_bit_values(self):
        tape = RandomTape(0)
        values = {tape.bit() for _ in range(100)}
        assert values <= {0, 1}
        assert values == {0, 1}  # both values appear in 100 draws

    def test_bits_length_and_negative(self):
        tape = RandomTape(0)
        assert len(tape.bits(17)) == 17
        with pytest.raises(ValueError):
            tape.bits(-1)

    def test_uniform_range(self):
        tape = RandomTape(1)
        for _ in range(200):
            value = tape.uniform()
            assert 0.0 <= value < 1.0

    def test_randint_inclusive_bounds(self):
        tape = RandomTape(2)
        draws = [tape.randint(3, 5) for _ in range(300)]
        assert set(draws) == {3, 4, 5}

    def test_randint_empty_range_raises(self):
        with pytest.raises(ValueError):
            RandomTape(0).randint(5, 4)

    def test_choice(self):
        tape = RandomTape(3)
        items = ["a", "b", "c"]
        assert {tape.choice(items) for _ in range(100)} == set(items)

    def test_choice_empty_raises(self):
        with pytest.raises(ValueError):
            RandomTape(0).choice([])

    def test_bernoulli_extremes(self):
        tape = RandomTape(4)
        assert all(tape.bernoulli(1.0) for _ in range(50))
        assert not any(tape.bernoulli(0.0) for _ in range(50))

    def test_bernoulli_invalid_probability(self):
        with pytest.raises(ValueError):
            RandomTape(0).bernoulli(1.5)

    def test_bernoulli_rate_roughly_correct(self):
        tape = RandomTape(5)
        hits = sum(tape.bernoulli(0.3) for _ in range(5000))
        assert 0.25 < hits / 5000 < 0.35

    def test_permutation_is_permutation(self):
        tape = RandomTape(6)
        perm = tape.permutation(10)
        assert sorted(perm) == list(range(10))

    def test_draw_counter_and_reset(self):
        tape = RandomTape(7)
        tape.bits(10)
        tape.uniform()
        assert tape.draws == 11
        first = RandomTape(7).bits(5)
        tape.reset()
        assert tape.draws == 0
        assert tape.bits(5) == first

    def test_fork_independent_and_deterministic(self):
        tape = RandomTape(8)
        child_a = tape.fork("x")
        child_b = tape.fork("x")
        child_c = tape.fork("y")
        assert child_a.bits(32) == child_b.bits(32)
        assert RandomTape(8).fork("y").bits(32) == child_c.bits(32)


class TestTapeFactory:
    def test_same_identity_same_tape_object(self):
        factory = TapeFactory(0)
        assert factory.tape_for(3) is factory.tape_for(3)

    def test_identity_determines_stream(self):
        f1 = TapeFactory(42)
        f2 = TapeFactory(42)
        assert f1.tape_for(5).bits(32) == f2.tape_for(5).bits(32)

    def test_different_identities_different_streams(self):
        factory = TapeFactory(42)
        assert factory.tape_for(1).bits(64) != factory.tape_for(2).bits(64)

    def test_fresh_rewinds(self):
        factory = TapeFactory(9)
        consumed = factory.tape_for(1)
        consumed.bits(10)
        fresh = factory.fresh()
        assert fresh.tape_for(1).draws == 0
        assert fresh.tape_for(1).bits(5) == TapeFactory(9).tape_for(1).bits(5)

    def test_reseeded_changes_streams(self):
        assert (
            TapeFactory(1).tape_for(1).bits(64)
            != TapeFactory(2).tape_for(1).bits(64)
        )

    def test_salt_separates_factories(self):
        assert (
            TapeFactory(1, salt="a").tape_for(1).bits(64)
            != TapeFactory(1, salt="b").tape_for(1).bits(64)
        )

    def test_iteration_lists_created_tapes(self):
        factory = TapeFactory(0)
        factory.tape_for(1)
        factory.tape_for(2)
        assert {identity for identity, _tape in factory} == {1, 2}
