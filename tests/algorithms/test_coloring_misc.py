"""Tests for random coloring, greedy coloring, and color reduction."""

from __future__ import annotations

import pytest

from repro.algorithms.coloring.greedy import GreedyColoringConstructor, greedy_coloring_by_identity
from repro.algorithms.coloring.random_coloring import (
    RandomColoringAlgorithm,
    RandomColoringConstructor,
    expected_proper_fraction,
)
from repro.algorithms.coloring.reduction import ColorReductionAlgorithm, ColorReductionConstructor
from repro.analysis.metrics import fraction_bad_nodes
from repro.core.construction import BallConstructor, estimate_success_probability
from repro.core.languages import Configuration
from repro.core.lcl import ProperColoring
from repro.core.relaxations import eps_slack
from repro.graphs.families import cycle_network, grid_network, star_network
from repro.graphs.random_graphs import random_regular_network
from repro.local.algorithm import FunctionBallAlgorithm
from repro.local.randomness import TapeFactory
from repro.local.simulator import Simulator


class TestRandomColoring:
    def test_outputs_in_palette(self, small_cycle, tapes):
        constructor = RandomColoringConstructor(3)
        outputs = constructor.construct(small_cycle, tape_factory=tapes)
        assert set(outputs.values()) <= {1, 2, 3}

    def test_palette_validation(self):
        with pytest.raises(ValueError):
            RandomColoringAlgorithm(0)

    def test_requires_tape(self, small_cycle):
        algorithm = RandomColoringAlgorithm(3)
        ball = None
        from repro.local.ball import collect_ball

        ball = collect_ball(small_cycle, small_cycle.nodes()[0], 0)
        with pytest.raises(ValueError):
            algorithm.compute(ball, None)

    def test_equality_is_on_num_colors(self):
        three = RandomColoringConstructor(3)
        assert three == RandomColoringConstructor(3)
        assert hash(three) == hash(RandomColoringConstructor(3))
        assert three != RandomColoringConstructor(4)
        assert three.algorithm == RandomColoringAlgorithm(3)
        assert hash(three.algorithm) == hash(RandomColoringAlgorithm(3))
        assert three.algorithm != RandomColoringAlgorithm(4)
        assert three != three.algorithm

    def test_ball_constructor_over_a_lambda_equals_only_itself(self):
        def build():
            return BallConstructor(FunctionBallAlgorithm(lambda ball: 1, radius=0))

        constructor = build()
        assert constructor == constructor
        assert constructor != build()

    def test_expected_proper_fraction_values(self):
        assert expected_proper_fraction(3, 2) == pytest.approx(4 / 9)
        assert expected_proper_fraction(4, 0) == 1.0
        with pytest.raises(ValueError):
            expected_proper_fraction(0)
        with pytest.raises(ValueError):
            expected_proper_fraction(3, -1)

    def test_fraction_of_bad_nodes_matches_expectation_on_cycle(self):
        network = cycle_network(600)
        constructor = RandomColoringConstructor(3)
        configuration = constructor.configuration(network, tape_factory=TapeFactory(11))
        bad_fraction = fraction_bad_nodes(ProperColoring(3), configuration)
        assert bad_fraction == pytest.approx(1 - expected_proper_fraction(3, 2), abs=0.08)

    def test_solves_eps_slack_with_good_probability(self):
        # The paper's ε-slack claim: with constant probability a 1 − ε
        # fraction of the nodes is properly colored.  With ε = 0.7 the
        # expected bad fraction (5/9 ≈ 0.56) is comfortably below ε, so the
        # success probability is high.
        network = cycle_network(120)
        constructor = RandomColoringConstructor(3)
        relaxed = eps_slack(ProperColoring(3), 0.7)
        estimate = estimate_success_probability(
            constructor, relaxed, [network], trials=200, seed=2
        )
        assert estimate.success_probability > 0.9


class TestGreedyColoring:
    @pytest.mark.parametrize(
        "network_factory",
        [
            lambda: cycle_network(15),
            lambda: grid_network(4, 5),
            lambda: star_network(6),
            lambda: random_regular_network(20, 3, seed=3),
        ],
    )
    def test_produces_proper_coloring_with_at_most_delta_plus_one_colors(self, network_factory):
        network = network_factory()
        colors = greedy_coloring_by_identity(network)
        configuration = Configuration(network, colors)
        assert ProperColoring().contains(configuration)
        assert max(colors.values()) <= network.max_degree() + 1

    def test_palette_size_enforcement(self):
        network = star_network(5)
        with pytest.raises(RuntimeError):
            greedy_coloring_by_identity(network, palette_size=1)

    def test_constructor_wrapper(self, small_grid):
        constructor = GreedyColoringConstructor()
        configuration = constructor.configuration(small_grid)
        assert ProperColoring().contains(configuration)
        assert constructor.rounds() is None  # global baseline, no LOCAL round count


class TestColorReduction:
    def test_reduces_palette_while_staying_proper(self):
        network = random_regular_network(24, 3, seed=4)
        base = greedy_coloring_by_identity(network)  # ≤ 4 colors
        # Spread the base coloring to a wasteful 8-color palette first.
        wasteful = {node: base[node] + 4 for node in network.nodes()}
        instance = network.with_inputs(wasteful)
        constructor = ColorReductionConstructor(initial_palette=8, target_palette=4)
        configuration = constructor.configuration(instance)
        assert ProperColoring(4).contains(configuration)
        assert constructor.last_rounds == 4

    def test_round_complexity_is_palette_difference(self):
        algorithm = ColorReductionAlgorithm(9, 5)
        assert algorithm.total_rounds() == 4
        constructor = ColorReductionConstructor(9, 5)
        assert constructor.rounds() == 4

    def test_already_small_palette_needs_zero_rounds(self, small_cycle):
        colors = {node: (index % 3) + 1 for index, node in enumerate(small_cycle.nodes())}
        instance = small_cycle.with_inputs(colors)
        constructor = ColorReductionConstructor(3, 3)
        configuration = constructor.configuration(instance)
        assert constructor.last_rounds == 0
        assert configuration.outputs == colors

    def test_invalid_palettes_rejected(self):
        with pytest.raises(ValueError):
            ColorReductionAlgorithm(3, 0)
        with pytest.raises(ValueError):
            ColorReductionAlgorithm(3, 5)

    def test_invalid_input_color_rejected(self, small_cycle):
        instance = small_cycle.with_inputs({node: 99 for node in small_cycle.nodes()})
        with pytest.raises(ValueError):
            Simulator(instance).run(ColorReductionAlgorithm(8, 4), rounds=1)
