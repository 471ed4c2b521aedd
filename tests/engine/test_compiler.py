"""Tests for the decision compiler (repro.engine.compiler)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decision import (
    AmosDecider,
    DeterministicDecider,
    LocalCheckerDecider,
    RandomizedDecider,
    ResilientDecider,
    golden_ratio_guarantee,
)
from repro.core.languages import SELECTED, Configuration
from repro.core.lcl import ProperColoring
from repro.engine.compiler import Coin, coin, compile_decision, const, is_compilable
from repro.graphs.families import cycle_network
from repro.obs import TraceRecorder, use_recorder
from tests.conftest import fallback_counters


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


class TestIsCompilable:
    def test_concrete_deciders_are_compilable(self):
        assert is_compilable(AmosDecider())
        assert is_compilable(ResilientDecider(ProperColoring(3), f=2))
        assert is_compilable(LocalCheckerDecider(ProperColoring(3)))

    def test_plain_randomized_rule_is_not(self):
        decider = RandomizedDecider(lambda ball, tape: True, radius=0, guarantee=0.9)
        assert not is_compilable(decider)

    def test_randomized_rule_with_vote_program_is(self):
        decider = RandomizedDecider(
            lambda ball, tape: tape.bernoulli(0.9),
            radius=0,
            guarantee=0.9,
            vote_program=lambda ball: coin(0.9),
        )
        assert is_compilable(decider)

    def test_vote_probability_alone_is_not_compilable(self):
        """``vote_program`` is the compiler's only entry contract: a decider
        carrying just the retired single-coin ``vote_probability`` attribute
        stays on the reference path, and ``auto`` counts that fallback as
        ``engine.fallback.no_program``."""
        configuration = amos_configuration(9, {0, 4})
        decider = RandomizedDecider(
            lambda ball, tape: tape.bernoulli(0.9), radius=0, guarantee=0.9
        )
        decider.vote_probability = lambda ball: 0.9
        assert not is_compilable(decider)
        with use_recorder(TraceRecorder()) as recorder:
            auto = decider.acceptance_probability(configuration, trials=50, seed=3, engine="auto")
        assert fallback_counters(recorder.counters) == {"engine.fallback.no_program": 1}
        off = decider.acceptance_probability(configuration, trials=50, seed=3, engine="off")
        assert auto == off

    def test_vote_probability_keyword_is_rejected(self):
        with pytest.raises(TypeError, match="vote_probability"):
            RandomizedDecider(
                lambda ball, tape: tape.bernoulli(0.9),
                radius=0,
                guarantee=0.9,
                vote_probability=lambda ball: 0.9,
            )

    def test_compile_rejects_non_compilable(self, proper_three_coloring):
        decider = RandomizedDecider(lambda ball, tape: True, radius=0, guarantee=0.9)
        with pytest.raises(TypeError):
            compile_decision(decider, proper_three_coloring)


class TestCompiledProbabilities:
    def test_amos_classification(self):
        configuration = amos_configuration(9, {0, 4})
        compiled = compile_decision(AmosDecider(), configuration)
        p = golden_ratio_guarantee()
        expected = np.where(
            [output == SELECTED for output in configuration.outputs.values()], p, 1.0
        )
        # Node order of the compiled form is the network's node order, which
        # matches the configuration's outputs iteration order here.
        assert np.allclose(compiled.probabilities, expected)
        assert len(compiled.random_index) == 2
        assert not compiled.always_rejects

    def test_resilient_classification(self, broken_three_coloring):
        language = ProperColoring(3)
        decider = ResilientDecider(language, f=1)
        compiled = compile_decision(decider, broken_three_coloring)
        bad = set(language.bad_nodes(broken_three_coloring))
        for position, node in enumerate(compiled.nodes):
            expected = decider.p_bad_ball if node in bad else 1.0
            assert compiled.probabilities[position] == pytest.approx(expected)
        # Exact closed form: Pr[all accept] = p^{|F(G)|}.
        assert compiled.deterministic_accept_probability == pytest.approx(
            decider.theoretical_acceptance(len(bad))
        )

    def test_local_checker_is_all_deterministic(self, broken_three_coloring):
        compiled = compile_decision(
            LocalCheckerDecider(ProperColoring(3)), broken_three_coloring
        )
        assert set(np.unique(compiled.probabilities)) <= {0.0, 1.0}
        assert len(compiled.random_index) == 0
        assert compiled.always_rejects

    def test_deterministic_decider_compiles_to_constants(self):
        configuration = amos_configuration(9, {0, 4})
        decider = DeterministicDecider(lambda ball: ball.center_output() != SELECTED, radius=0)
        for node in configuration.nodes():
            ball = configuration.ball(node, 0)
            assert decider.vote_program(ball) == const(decider.vote(ball))
        compiled = compile_decision(decider, configuration)
        assert len(compiled.random_index) == 0
        assert compiled.max_draws == 0
        assert compiled.always_rejects
        assert decider.acceptance_probability(configuration, trials=20, seed=1) == 0.0

    def test_single_coin_programs_follow_the_rule(self, broken_three_coloring):
        """Amos and the resilient decider vote ``const(True)`` on the balls
        their rule accepts outright and one coin of the rule's bias on the
        rest."""
        selected_cycle = amos_configuration(9, {0, 4})
        amos = AmosDecider()
        for node in selected_cycle.nodes():
            ball = selected_cycle.ball(node, amos.radius)
            if ball.center_output() == SELECTED:
                assert amos.vote_program(ball) == Coin(golden_ratio_guarantee())
            else:
                assert amos.vote_program(ball) == const(True)
        language = ProperColoring(3)
        resilient = ResilientDecider(language, f=1)
        bad = set(language.bad_nodes(broken_three_coloring))
        assert bad
        for node in broken_three_coloring.nodes():
            ball = broken_three_coloring.ball(node, resilient.radius)
            expected = Coin(resilient.p_bad_ball) if node in bad else const(True)
            assert resilient.vote_program(ball) == expected

    def test_toy_noisy_decider_is_one_coin_per_nonzero_output(self):
        """E6's toy decider accepts a zero output surely and any other
        output with probability 1 - p, so Pr[all accept] = (1 - p)^k."""
        from repro.harness.experiments import _toy_noisy_decider

        network = cycle_network(8)
        nodes = network.nodes()
        configuration = Configuration(
            network, {node: (1 if index in (1, 5, 6) else 0) for index, node in enumerate(nodes)}
        )
        p = 0.8
        decider = _toy_noisy_decider(p)
        compiled = compile_decision(decider, configuration)
        expected = [1.0 - p if configuration.outputs[node] else 1.0 for node in compiled.nodes]
        assert np.allclose(compiled.probabilities, expected)
        assert len(compiled.random_index) == 3
        assert compiled.deterministic_accept_probability == pytest.approx((1.0 - p) ** 3)

    def test_invalid_probability_rejected(self, proper_three_coloring):
        decider = RandomizedDecider(
            lambda ball, tape: True,
            radius=0,
            guarantee=0.9,
            vote_program=lambda ball: coin(1.5),
        )
        with pytest.raises(ValueError, match="must lie in"):
            compile_decision(decider, proper_three_coloring)


class TestCompiledNodeOrder:
    def test_identities_follow_node_order(self, small_cycle):
        configuration = Configuration(small_cycle, {node: "" for node in small_cycle.nodes()})
        compiled = compile_decision(AmosDecider(), configuration)
        assert list(compiled.identities) == [
            small_cycle.identity(node) for node in compiled.nodes
        ]
