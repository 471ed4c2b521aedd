"""Differential fuzz: engine vs reference on random graphs × random deciders.

Random small graphs (cycles, paths, stars, grids, random regular graphs) are
paired with random single-coin deciders (per-node Bernoulli probabilities
derived from the node identity through generated parameters).  For every
pair the engine must be **bit-identical** to the reference loop
(``engine="off"``) at seeds 0, 1 and 10_000 — the trial is part of every
tape key, so adjacent seeds are as independent as distant ones — and
invariant to the ``max_bytes`` working-set bound.
"""

from __future__ import annotations

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.decision import RandomizedDecider, estimate_guarantee  # noqa: E402
from repro.core.languages import Configuration, DistributedLanguage  # noqa: E402
from repro.engine.compiler import coin, compile_decision  # noqa: E402
from repro.engine.executor import accept_vector, vote_matrix  # noqa: E402
from repro.graphs.families import (  # noqa: E402
    cycle_network,
    grid_network,
    path_network,
    star_network,
)
from repro.graphs.random_graphs import random_regular_network  # noqa: E402

#: The master seeds of the differential contract: distant and adjacent.
SEEDS = (0, 1, 10_000)


def _network(kind: str, size: int):
    if kind == "cycle":
        return cycle_network(3 + size)
    if kind == "path":
        return path_network(2 + size, ids="consecutive")
    if kind == "star":
        return star_network(2 + size)
    if kind == "grid":
        return grid_network(2 + size % 3, 2 + size % 2)
    even = 4 + size + ((4 + size) % 2)
    return random_regular_network(even, 3, seed=size)


networks = st.builds(
    _network,
    kind=st.sampled_from(["cycle", "path", "star", "grid", "regular"]),
    size=st.integers(0, 9),
)

probability_tables = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=6
)


def _decider_from(table, name="fuzzed-single-coin-decider"):
    """A single-coin decider whose per-node bias is a pure function of the
    node's identity — the rule and its one-coin ``vote_program`` are the
    same table lookup, so the engine compilation is honest by construction."""

    def p_of(ball) -> float:
        return table[ball.center_id() % len(table)]

    return RandomizedDecider(
        rule=lambda ball, tape: tape.bernoulli(p_of(ball)),
        radius=0,
        guarantee=0.51,
        name=name,
        vote_program=lambda ball: coin(p_of(ball)),
    )


class _EveryConfiguration(DistributedLanguage):
    name = "fuzz-universal-language"

    def contains(self, configuration) -> bool:
        return True


class TestExactModeIsBitIdenticalToReference:
    @given(network=networks, table=probability_tables)
    @settings(max_examples=30, deadline=None)
    def test_acceptance_probability_engines_agree_at_distant_seeds(self, network, table):
        decider = _decider_from(table)
        configuration = Configuration(network, {node: 0 for node in network.nodes()})
        for seed in SEEDS:
            reference = decider.acceptance_probability(
                configuration, trials=40, seed=seed, engine="off"
            )
            exact = decider.acceptance_probability(
                configuration, trials=40, seed=seed, engine="exact"
            )
            assert exact == reference

    @given(network=networks, table=probability_tables)
    @settings(max_examples=20, deadline=None)
    def test_estimate_guarantee_engines_agree_at_distant_seeds(self, network, table):
        decider = _decider_from(table)
        configuration = Configuration(network, {node: 0 for node in network.nodes()})
        language = _EveryConfiguration()
        for seed in SEEDS:
            reference = estimate_guarantee(
                decider, language, [configuration], trials=25, seed=seed, engine="off"
            )
            exact = estimate_guarantee(
                decider, language, [configuration], trials=25, seed=seed, engine="exact"
            )
            assert exact.per_configuration == reference.per_configuration

    @given(network=networks, table=probability_tables, seed=st.sampled_from(SEEDS))
    @settings(max_examples=20, deadline=None)
    def test_exact_votes_replay_the_reference_decide(self, network, table, seed):
        decider = _decider_from(table)
        configuration = Configuration(network, {node: 0 for node in network.nodes()})
        compiled = compile_decision(decider, configuration)
        votes = vote_matrix(compiled, 3, seed=seed, salt=decider.name)
        from repro.local.randomness import TapeFactory

        for trial in range(3):
            outcome = decider.decide(
                configuration, tape_factory=TapeFactory(seed, salt=decider.name, trial=trial)
            )
            expected = np.array(
                [outcome.votes[node] for node in compiled.nodes], dtype=bool
            )
            assert np.array_equal(votes[trial], expected)


class TestChunkSizeInvariance:
    @given(network=networks, table=probability_tables, seed=st.sampled_from(SEEDS))
    @settings(max_examples=30, deadline=None)
    def test_accept_vector_is_max_bytes_invariant(self, network, table, seed):
        decider = _decider_from(table)
        configuration = Configuration(network, {node: 0 for node in network.nodes()})
        compiled = compile_decision(decider, configuration)
        default = accept_vector(compiled, 48, seed=seed)
        tiny = accept_vector(compiled, 48, seed=seed, max_bytes=64)
        assert np.array_equal(default, tiny)
