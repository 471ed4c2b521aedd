"""Engine ↔ reference-path equivalence (the subsystem's acceptance test).

The engine must reproduce the legacy accept/reject stream **bit for bit**
under a fixed seed — same trial-by-trial outcomes, hence identical
statistics.  Its estimates must also match the closed-form acceptance
probabilities within Monte-Carlo tolerance and agree exactly on
deterministic configurations.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decision import (
    AmosDecider,
    LocalCheckerDecider,
    ResilientDecider,
    estimate_guarantee,
)
from repro.core.languages import SELECTED, Amos, Configuration
from repro.core.lcl import ProperColoring
from repro.core.relaxations import f_resilient
from repro.engine.compiler import compile_decision
from repro.engine.executor import accept_vector, exact_single_trial_votes, vote_matrix
from repro.graphs.families import cycle_network
from repro.local.randomness import TapeFactory


def amos_configuration(n, selected_positions):
    network = cycle_network(n)
    nodes = network.nodes()
    return Configuration(
        network,
        {
            node: (SELECTED if index in selected_positions else "")
            for index, node in enumerate(nodes)
        },
    )


def broken_coloring(n, conflicts):
    network = cycle_network(n)
    nodes = network.nodes()
    colors = {node: (index % 3) + 1 for index, node in enumerate(nodes)}
    step = max(3, n // max(conflicts, 1))
    for planted in range(conflicts):
        index = planted * step
        colors[nodes[index]] = colors[nodes[index + 1]]
    return Configuration(network, colors)


def legacy_per_trial_accepts(decider, configuration, trials, seed):
    """The reference stream: one decide() per trial, seeded exactly like
    Decider.acceptance_probability."""
    accepts = []
    for trial in range(trials):
        factory = TapeFactory(seed, salt=decider.name, trial=trial)
        accepts.append(decider.decide(configuration, tape_factory=factory).accepted)
    return np.array(accepts, dtype=bool)


CASES = [
    ("amos-2-selected", AmosDecider(), amos_configuration(20, {0, 9})),
    ("amos-all-selected", AmosDecider(), amos_configuration(12, set(range(12)))),
    ("resilient-2-conflicts", ResilientDecider(ProperColoring(3), f=2), broken_coloring(21, 2)),
]


class TestExactModeBitIdentity:
    @pytest.mark.parametrize("label,decider,configuration", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("seed", [0, 17])
    def test_per_trial_stream_identical_to_reference(self, label, decider, configuration, seed):
        trials = 60
        reference = legacy_per_trial_accepts(decider, configuration, trials, seed)
        compiled = compile_decision(decider, configuration)
        engine = accept_vector(compiled, trials, seed=seed, salt=decider.name)
        assert np.array_equal(engine, reference)

    def test_acceptance_probability_engine_auto_equals_off(self):
        decider, configuration = CASES[0][1], CASES[0][2]
        for seed in (0, 5):
            off = decider.acceptance_probability(configuration, trials=80, seed=seed, engine="off")
            auto = decider.acceptance_probability(
                configuration, trials=80, seed=seed, engine="auto"
            )
            exact = decider.acceptance_probability(
                configuration, trials=80, seed=seed, engine="exact"
            )
            assert off == auto == exact

    def test_estimate_guarantee_engine_auto_equals_off(self):
        one = amos_configuration(15, {0})
        two = amos_configuration(15, {0, 7})
        off = estimate_guarantee(
            AmosDecider(), Amos(), [one, two], trials=120, seed=9, engine="off"
        )
        auto = estimate_guarantee(
            AmosDecider(), Amos(), [one, two], trials=120, seed=9, engine="auto"
        )
        assert off.per_configuration == auto.per_configuration

    def test_resilient_guarantee_identical_streams(self):
        language = ProperColoring(3)
        decider = ResilientDecider(language, f=2)
        relaxed = f_resilient(language, 2)
        configurations = [broken_coloring(18, 1), broken_coloring(18, 3)]
        off = estimate_guarantee(
            decider, relaxed, configurations, trials=150, seed=3, engine="off"
        )
        auto = estimate_guarantee(
            decider, relaxed, configurations, trials=150, seed=3, engine="auto"
        )
        assert off.per_configuration == auto.per_configuration

    def test_single_trial_votes_match_decide(self):
        decider, configuration = CASES[2][1], CASES[2][2]
        compiled = compile_decision(decider, configuration)
        for master_seed in (1, 42):
            outcome = decider.decide(
                configuration, tape_factory=TapeFactory(master_seed, salt="any-salt")
            )
            votes = exact_single_trial_votes(compiled, master_seed, "any-salt")
            assert {node: bool(v) for node, v in zip(compiled.nodes, votes)} == outcome.votes

    def test_single_trial_votes_at_later_trials_match_decide(self):
        """``trial=t`` reads the tapes of ``TapeFactory(seed, salt, trial=t)``,
        which are also row ``t`` of the vote matrix."""
        decider, configuration = CASES[2][1], CASES[2][2]
        compiled = compile_decision(decider, configuration)
        matrix = vote_matrix(compiled, 8, seed=42, salt="any-salt")
        for trial in (1, 7):
            outcome = decider.decide(
                configuration, tape_factory=TapeFactory(42, salt="any-salt", trial=trial)
            )
            votes = exact_single_trial_votes(compiled, 42, "any-salt", trial=trial)
            assert {node: bool(v) for node, v in zip(compiled.nodes, votes)} == outcome.votes
            assert np.array_equal(votes, matrix[trial])


class TestDistribution:
    def test_matches_closed_form_acceptance(self):
        """Engine estimates must agree with the exact product formula
        Pr[all accept] = Π p_v within Monte-Carlo tolerance."""
        for label, decider, configuration in CASES:
            compiled = compile_decision(decider, configuration)
            estimate = float(
                np.count_nonzero(accept_vector(compiled, 6000, seed=2)) / 6000
            )
            assert estimate == pytest.approx(
                compiled.deterministic_accept_probability, abs=0.03
            ), label

    def test_deterministic_decider_is_exact(self):
        decider = LocalCheckerDecider(ProperColoring(3))
        good = broken_coloring(18, 0)
        bad = broken_coloring(18, 2)
        for configuration, expected in ((good, True), (bad, False)):
            compiled = compile_decision(decider, configuration)
            accepted = accept_vector(compiled, 10, seed=0)
            assert bool(accepted.all()) is expected
            assert bool(accepted.any()) is expected

    def test_reproducible_per_seed(self):
        decider, configuration = CASES[0][1], CASES[0][2]
        compiled = compile_decision(decider, configuration)
        a = accept_vector(compiled, 100, seed=4)
        b = accept_vector(compiled, 100, seed=4)
        c = accept_vector(compiled, 100, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_vote_matrix_columns_follow_probabilities(self):
        decider, configuration = CASES[2][1], CASES[2][2]
        compiled = compile_decision(decider, configuration)
        votes = vote_matrix(compiled, 4000, seed=1)
        assert votes.shape == (4000, compiled.n_nodes)
        rates = votes.mean(axis=0)
        deterministic = np.isin(np.arange(compiled.n_nodes), compiled.random_index, invert=True)
        assert np.allclose(rates[deterministic], compiled.probabilities[deterministic])
        assert np.allclose(
            rates[compiled.random_index],
            compiled.probabilities[compiled.random_index],
            atol=0.04,
        )


class TestEngineParameterValidation:
    @pytest.mark.parametrize("engine", ["warp", "fast"])
    def test_unknown_engine_value_rejected(self, engine):
        decider, configuration = CASES[0][1], CASES[0][2]
        with pytest.raises(ValueError):
            decider.acceptance_probability(configuration, trials=10, engine=engine)

    def test_explicit_engine_on_non_compilable_decider_raises(self, proper_three_coloring):
        from repro.core.decision import RandomizedDecider

        decider = RandomizedDecider(lambda ball, tape: True, radius=0, guarantee=0.9)
        with pytest.raises(TypeError):
            decider.acceptance_probability(proper_three_coloring, trials=10, engine="exact")
        # "auto" falls back to the reference loop instead.
        assert decider.acceptance_probability(proper_three_coloring, trials=10) == 1.0
