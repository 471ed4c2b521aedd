"""The counter-based tape stream (repro.local.randomness).

Draw ``k`` of the tape of node ``identity`` in trial ``trial`` of the stream
``(seed, salt)`` is ``U(node_key(derive_seed(seed, salt), trial, identity),
k)``.  The definition exists twice — pure-int scalar code behind
:class:`RandomTape` and numpy ``uint64`` block code behind the engine — and
these tests pin the two bit-equal, check the stream's basic statistics, and
check that the trial, not seed arithmetic, separates the executions of one
estimate.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.engine.construct import MAX_OUTPUT_VALUES  # noqa: E402
from repro.local.randomness import (  # noqa: E402
    UNIT,
    TapeFactory,
    counter_uniform,
    counter_uniforms,
    derive_seed,
    node_key,
    node_keys,
)

seeds = st.integers(0, 2**40)
salts = st.sampled_from(["", "amos-golden-ratio-decider", "far/construct", "hard/3", 7])
trials = st.integers(0, 2**32)
identities = st.integers(-(2**31), 2**40)
draw_indices = st.integers(0, 63)


#: The ``(salt, identity)`` of every engine site that reads the tapes
#: (executor votes, fused decide votes, construction outputs).
EXACT_SITES = [
    ("executor-exact", ("salt-a", 17)),
    ("construct-exact-decide", ("s", 23)),
    ("construct-exact-output", ("s", 23)),
]


def block_uniforms(seed, salt, trial, identity, draws):
    """Draws ``0 .. draws-1`` of one tape, through the engine's block code."""
    keys = node_keys(
        derive_seed(seed, salt), np.array([trial]), np.array([identity], dtype=np.int64)
    )
    return counter_uniforms(keys, draws)[0, 0]


def tape(seed, salt, trial, identity):
    return TapeFactory(seed, salt, trial=trial).tape_for(identity)


# --------------------------------------------------------------------------- #
# Scalar ≡ block
# --------------------------------------------------------------------------- #
class TestScalarEqualsBlock:
    @given(seed=seeds, salt=salts, trial=trials, identity=identities, k=draw_indices)
    @settings(max_examples=200, deadline=None)
    def test_uniform_draws_agree(self, seed, salt, trial, identity, k):
        block = block_uniforms(seed, salt, trial, identity, k + 1)
        reference = tape(seed, salt, trial, identity)
        assert [reference.uniform() for _ in range(k + 1)] == block.tolist()

    @given(
        seed=seeds,
        salt=salts,
        trial=trials,
        identity=identities,
        k=draw_indices,
        p=st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_bernoulli_agrees(self, seed, salt, trial, identity, k, p):
        reference = tape(seed, salt, trial, identity)
        for _ in range(k):
            reference.uniform()
        expected = block_uniforms(seed, salt, trial, identity, k + 1)[k] < p
        assert reference.bernoulli(p) == bool(expected)

    @given(
        seed=seeds,
        salt=salts,
        trial=trials,
        identity=identities,
        k=draw_indices,
        low=st.integers(-50, 50),
        size=st.integers(1, MAX_OUTPUT_VALUES),
    )
    @settings(max_examples=150, deadline=None)
    def test_randint_and_choice_agree(self, seed, salt, trial, identity, k, low, size):
        u = block_uniforms(seed, salt, trial, identity, k + 1)[k : k + 1]
        index = int((u * size).astype(np.intp)[0])
        for method in ("randint", "choice"):
            reference = tape(seed, salt, trial, identity)
            for _ in range(k):
                reference.uniform()
            if method == "randint":
                assert reference.randint(low, low + size - 1) == low + index
            else:
                assert reference.choice(range(low, low + size)) == low + index
            assert reference.draws == k + 1

    @pytest.mark.parametrize("size", [1, 2, 3, 5, 7, 1000, 4095, MAX_OUTPUT_VALUES])
    def test_the_largest_uniform_stays_inside_the_range(self, size):
        largest = 1.0 - UNIT
        assert int(largest * size) == size - 1
        assert int((np.array([largest]) * size).astype(np.intp)[0]) == size - 1

    def test_keys_and_counters_match_the_definition(self):
        base = derive_seed(3, "s")
        keys = node_keys(base, np.arange(5), np.array([1, 2, 40], dtype=np.int64))
        for trial in range(5):
            for column, identity in enumerate((1, 2, 40)):
                assert int(keys[trial, column]) == node_key(base, trial, identity)
                assert counter_uniforms(keys[trial : trial + 1, column], 3)[0, 2] == (
                    counter_uniform(node_key(base, trial, identity), 2)
                )

    @pytest.mark.parametrize("seed", [0, 1, 10_000])
    @pytest.mark.parametrize("label,site", EXACT_SITES, ids=[s[0] for s in EXACT_SITES])
    def test_exact_sites_compute_the_reference_tapes(self, seed, label, site):
        salt, identity = site
        keys = node_keys(derive_seed(seed, salt), np.arange(6), np.array([identity]))
        block = counter_uniforms(keys, 8)
        for trial in range(6):
            reference = tape(seed, salt, trial, identity)
            assert [reference.uniform() for _ in range(8)] == block[trial, 0].tolist()


# --------------------------------------------------------------------------- #
# Every key component separates streams
# --------------------------------------------------------------------------- #
class TestDistinctStreams:
    #: ``(seed, salt, trial, identity)`` of the stream the others differ from.
    BASE = (0, "salt", 0, 1)

    @pytest.mark.parametrize(
        "position,value", [(1, "other-salt"), (2, 1), (3, 2)], ids=["salt", "trial", "identity"]
    )
    def test_distinct_components_give_distinct_streams(self, position, value):
        changed = list(self.BASE)
        changed[position] = value
        assert not np.array_equal(
            block_uniforms(*self.BASE, 32), block_uniforms(*changed, 32)
        )

    def test_distant_seeds_give_distinct_streams(self):
        distant = (10_000,) + self.BASE[1:]
        assert not np.array_equal(
            block_uniforms(*self.BASE, 32), block_uniforms(*distant, 32)
        )


# --------------------------------------------------------------------------- #
# Statistics across adjacent trials, identities and seeds
# --------------------------------------------------------------------------- #
class TestStreamStatistics:
    @staticmethod
    def _grid():
        """Draws 0..3 of identities 1..50 in trials 0..199, for seeds 0 and
        1: 80,000 uniforms from adjacent keys on every axis."""
        blocks = [
            counter_uniforms(
                node_keys(derive_seed(seed, "stats"), np.arange(200), np.arange(1, 51)), 4
            )
            for seed in (0, 1)
        ]
        return np.stack(blocks)

    def test_mean_and_variance(self):
        values = self._grid().ravel()
        n = values.size
        # 6 standard errors: a sound stream fails with probability ~1e-9.
        assert abs(values.mean() - 0.5) < 6 * math.sqrt(1 / 12 / n)
        assert abs(values.var() - 1 / 12) < 6 * math.sqrt(1 / 180 / n)
        assert values.min() >= 0.0 and values.max() < 1.0

    @pytest.mark.parametrize("axis", [0, 1, 2, 3], ids=["seed", "trial", "identity", "draw"])
    def test_lag_one_correlation_vanishes(self, axis):
        grid = self._grid()
        first = np.take(grid, np.arange(grid.shape[axis] - 1), axis=axis).ravel()
        second = np.take(grid, np.arange(1, grid.shape[axis]), axis=axis).ravel()
        correlation = np.corrcoef(first, second)[0, 1]
        assert abs(correlation) < 6 / math.sqrt(first.size)

    def test_three_way_randint_is_uniform(self):
        counts = np.bincount((self._grid().ravel() * 3).astype(np.intp), minlength=3)
        expected = counts.sum() / 3
        chi_square = float(((counts - expected) ** 2 / expected).sum())
        # P(χ²₂ > 30) ≈ 3e-7.
        assert chi_square < 30.0


# --------------------------------------------------------------------------- #
# Adjacent seeds and trials are independent streams
# --------------------------------------------------------------------------- #
class TestAdjacentSeeds:
    @pytest.mark.parametrize("shift", [1, 7_919, 104_729, 1_000_003, 15_485_863])
    def test_seed_plus_one_never_replays_a_shifted_trial(self, shift):
        """Under ``seed * K + trial`` master seeds, seed ``s`` at trial
        ``t + K`` replayed seed ``s + 1`` at trial ``t``; with the trial in
        the key, no shift of the trial index lines two seeds up."""
        for trial in (0, 5):
            shifted = tape(0, "random-3-coloring/0", trial + shift, 11)
            adjacent = tape(1, "random-3-coloring/0", trial, 11)
            assert [shifted.uniform() for _ in range(4)] != [
                adjacent.uniform() for _ in range(4)
            ]

    def test_estimate_success_probability_keys_trials_not_seeds(self, monkeypatch):
        """The reference loop of ``estimate_success_probability`` draws trial
        ``t`` of seed ``s`` from ``TapeFactory(s, salt, trial=t)``."""
        import repro.core.construction as construction
        from repro.algorithms.coloring.random_coloring import RandomColoringConstructor
        from repro.core.lcl import ProperColoring
        from repro.graphs.families import cycle_network

        made = []

        class RecordingFactory(TapeFactory):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append((self.master_seed, self.salt, self.trial))

        monkeypatch.setattr(construction, "TapeFactory", RecordingFactory)
        constructor = RandomColoringConstructor(3)
        for seed in (4, 5):
            construction.estimate_success_probability(
                constructor, ProperColoring(3), [cycle_network(6)], trials=3, seed=seed,
                engine="off",
            )
        salt = f"{constructor.name}/0"
        assert made == [(seed, salt, trial) for seed in (4, 5) for trial in range(3)]

    def test_adjacent_seeds_give_independent_acceptance_estimates(self):
        """Under ``seed + trial`` master seeds, the estimates at seeds ``s``
        and ``s + 1`` shared all but one trial and never differed by more
        than ``1/trials``."""
        from repro.core.decision import AmosDecider
        from repro.core.languages import SELECTED, Configuration
        from repro.graphs.families import cycle_network

        network = cycle_network(9)
        selected = set(network.nodes()[:1])
        configuration = Configuration(
            network, {node: SELECTED if node in selected else "" for node in network.nodes()}
        )
        trials = 200
        rates = [
            AmosDecider().acceptance_probability(
                configuration, trials=trials, seed=seed, engine="off"
            )
            for seed in range(10)
        ]
        gaps = [abs(a - b) for a, b in zip(rates, rates[1:])]
        assert max(gaps) > 1.5 / trials
