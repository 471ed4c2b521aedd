"""Tests for LD/BPLD deciders (repro.core.decision)."""

from __future__ import annotations

import math
import random

import pytest

from repro.core.decision import (
    AmosDecider,
    DeterministicDecider,
    DecisionOutcome,
    LocalCheckerDecider,
    RandomizedDecider,
    ResilientDecider,
    estimate_guarantee,
    golden_ratio_guarantee,
    majority_success_probability,
    per_draw_probability_for_majority,
    resilient_probability_window,
)
from repro.core.languages import SELECTED, Amos, Configuration
from repro.core.lcl import ProperColoring
from repro.core.relaxations import f_resilient
from repro.graphs.families import cycle_network
from repro.local.randomness import TapeFactory


def plant_conflicts(network, conflicts):
    """A 3-coloring of a cycle with exactly ``conflicts`` conflicting edges,
    obtained by copying a neighbour's color onto well-separated nodes."""
    nodes = network.nodes()
    colors = {node: (index % 3) + 1 for index, node in enumerate(nodes)}
    step = max(3, len(nodes) // max(conflicts, 1))
    planted = 0
    index = 0
    while planted < conflicts:
        colors[nodes[index]] = colors[nodes[index + 1]]
        planted += 1
        index += step
    return Configuration(network, colors)


class TestHelpers:
    def test_golden_ratio_value(self):
        p = golden_ratio_guarantee()
        assert p == pytest.approx((math.sqrt(5) - 1) / 2)
        # The defining identity used in the error analysis: 1 − p² = p.
        assert 1 - p * p == pytest.approx(p)

    @pytest.mark.parametrize("f", [1, 2, 5, 10])
    def test_resilient_window_properties(self, f):
        low, high = resilient_probability_window(f)
        assert 0 < low < high < 1
        mid = math.sqrt(low * high)
        assert mid**f > 0.5
        assert mid ** (f + 1) < 0.5

    def test_resilient_window_requires_positive_f(self):
        with pytest.raises(ValueError):
            resilient_probability_window(0)


class TestDecisionOutcome:
    def test_accept_reject(self):
        assert DecisionOutcome({1: True, 2: True}).accepted
        assert DecisionOutcome({1: True, 2: False}).rejected

    def test_rejecting_nodes(self):
        outcome = DecisionOutcome({1: True, 2: False, 3: False})
        assert set(outcome.rejecting_nodes()) == {2, 3}

    def test_accepted_far_from(self, small_path):
        nodes = small_path.nodes()
        configuration = Configuration(small_path, {node: "" for node in nodes})
        votes = {node: True for node in nodes}
        votes[nodes[0]] = False
        outcome = DecisionOutcome(votes)
        # The unique rejection is at distance 0 from nodes[0]: far-acceptance
        # holds for any distance ≥ 0 around that node ...
        assert outcome.accepted_far_from(configuration, nodes[0], 0)
        # ... but not around the other end of the path.
        assert not outcome.accepted_far_from(configuration, nodes[6], 2)

    def test_rejecting_nodes_within(self, small_path):
        nodes = small_path.nodes()
        configuration = Configuration(small_path, {node: "" for node in nodes})
        votes = {node: True for node in nodes}
        votes[nodes[2]] = False
        outcome = DecisionOutcome(votes)
        assert outcome.rejecting_nodes_within(configuration, nodes[0], 2) == [nodes[2]]
        assert outcome.rejecting_nodes_within(configuration, nodes[6], 2) == []

    def test_rejection_at_exactly_the_cutoff_distance(self, small_path):
        """Both events treat the cutoff inclusively: a rejection at distance
        exactly d is *within* d, and far-acceptance (strictly beyond d)
        ignores it."""
        nodes = small_path.nodes()
        configuration = Configuration(small_path, {node: "" for node in nodes})
        votes = {node: True for node in nodes}
        votes[nodes[3]] = False  # distance exactly 3 from nodes[0]
        outcome = DecisionOutcome(votes)
        assert outcome.rejecting_nodes_within(configuration, nodes[0], 3) == [nodes[3]]
        assert outcome.rejecting_nodes_within(configuration, nodes[0], 2) == []
        assert outcome.accepted_far_from(configuration, nodes[0], 3)
        assert not outcome.accepted_far_from(configuration, nodes[0], 2)

    def test_disconnected_rejector_is_infinitely_far(self):
        """A rejecting node in another component is beyond every finite
        cutoff: never 'within', always 'far'."""
        import networkx as nx

        from repro.local.network import Network

        graph = nx.Graph()
        graph.add_edges_from([("a", "b")])
        graph.add_node("island")
        network = Network(graph)
        configuration = Configuration(network, {node: "" for node in network.nodes()})
        outcome = DecisionOutcome({"a": True, "b": True, "island": False})
        assert outcome.rejecting_nodes_within(configuration, "a", 10**6) == []
        assert not outcome.accepted_far_from(configuration, "a", 10**6)
        # From the island's own perspective the rejection is at distance 0.
        assert outcome.rejecting_nodes_within(configuration, "island", 0) == ["island"]

    def test_queried_node_itself_rejecting(self, small_path):
        """The centre is at distance 0: inside every 'within' ball, outside
        every 'far' event (0 > d is false for all d ≥ 0)."""
        nodes = small_path.nodes()
        configuration = Configuration(small_path, {node: "" for node in nodes})
        votes = {node: True for node in nodes}
        votes[nodes[0]] = False
        outcome = DecisionOutcome(votes)
        assert outcome.rejecting_nodes_within(configuration, nodes[0], 0) == [nodes[0]]
        assert outcome.accepted_far_from(configuration, nodes[0], 0)
        assert outcome.accepted_far_from(configuration, nodes[0], 5)


class TestDeterministicDecider:
    def test_local_checker_is_exact(self, proper_three_coloring, broken_three_coloring):
        decider = LocalCheckerDecider(ProperColoring(3))
        assert decider.decide(proper_three_coloring).accepted
        assert decider.decide(broken_three_coloring).rejected

    def test_local_checker_rejecting_nodes_are_the_bad_nodes(self, broken_three_coloring):
        language = ProperColoring(3)
        decider = LocalCheckerDecider(language)
        outcome = decider.decide(broken_three_coloring)
        assert set(outcome.rejecting_nodes()) == set(language.bad_nodes(broken_three_coloring))

    def test_acceptance_probability_is_zero_or_one(self, proper_three_coloring):
        decider = LocalCheckerDecider(ProperColoring(3))
        assert decider.acceptance_probability(proper_three_coloring) == 1.0

    def test_custom_rule(self, proper_three_coloring):
        always_reject = DeterministicDecider(lambda ball: False, radius=0)
        assert always_reject.decide(proper_three_coloring).rejected


class TestRandomizedDecider:
    def test_guarantee_validated(self):
        with pytest.raises(ValueError):
            RandomizedDecider(lambda ball, tape: True, radius=0, guarantee=0.4)

    def test_requires_tape(self, proper_three_coloring):
        decider = RandomizedDecider(lambda ball, tape: True, radius=0, guarantee=0.9)
        ball = proper_three_coloring.ball(proper_three_coloring.nodes()[0], 0)
        with pytest.raises(ValueError):
            decider.vote(ball, None)

    def test_same_tape_factory_replays_same_outcome(self, small_cycle):
        configuration = Configuration(
            small_cycle, {node: SELECTED for node in small_cycle.nodes()}
        )
        decider = AmosDecider()
        outcome_a = decider.decide(configuration, tape_factory=TapeFactory(3))
        outcome_b = decider.decide(configuration, tape_factory=TapeFactory(3))
        assert outcome_a.votes == outcome_b.votes


class TestAmosDecider:
    def test_yes_instance_acceptance_close_to_p(self, small_cycle):
        nodes = small_cycle.nodes()
        one_selected = Configuration(
            small_cycle, {node: (SELECTED if node == nodes[0] else "") for node in nodes}
        )
        rate = AmosDecider().acceptance_probability(one_selected, trials=3000, seed=1)
        assert rate == pytest.approx(golden_ratio_guarantee(), abs=0.03)

    def test_no_selected_always_accepts(self, small_cycle):
        empty = Configuration(small_cycle, {node: "" for node in small_cycle.nodes()})
        assert AmosDecider().acceptance_probability(empty, trials=200) == 1.0

    def test_two_selected_rejection_at_least_p(self, small_cycle):
        nodes = small_cycle.nodes()
        two = Configuration(
            small_cycle,
            {node: (SELECTED if node in (nodes[0], nodes[4]) else "") for node in nodes},
        )
        rate = AmosDecider().acceptance_probability(two, trials=3000, seed=2)
        assert 1 - rate >= golden_ratio_guarantee() - 0.03

    def test_radius_zero(self):
        assert AmosDecider().radius == 0


class TestResilientDecider:
    def test_probability_window_respected(self):
        language = ProperColoring(3)
        decider = ResilientDecider(language, f=3)
        low, high = resilient_probability_window(3)
        assert low < decider.p_bad_ball < high
        assert decider.guarantee > 0.5

    def test_custom_probability_outside_window_rejected(self):
        with pytest.raises(ValueError):
            ResilientDecider(ProperColoring(3), f=2, acceptance_probability=0.5)

    def test_good_configuration_always_accepted(self, proper_three_coloring):
        decider = ResilientDecider(ProperColoring(3), f=2)
        assert decider.acceptance_probability(proper_three_coloring, trials=50) == 1.0

    def test_theoretical_acceptance_matches_measurement(self):
        network = cycle_network(30)
        decider = ResilientDecider(ProperColoring(3), f=2)
        configuration = plant_conflicts(network, conflicts=2)
        bad = ProperColoring(3).violation_count(configuration)
        rate = decider.acceptance_probability(configuration, trials=4000, seed=3)
        assert rate == pytest.approx(decider.theoretical_acceptance(bad), abs=0.03)

    def test_guarantee_on_yes_and_no_instances(self):
        network = cycle_network(36)
        f = 2
        language = ProperColoring(3)
        relaxed = f_resilient(language, f)
        decider = ResilientDecider(language, f=f)
        yes_instance = plant_conflicts(network, conflicts=1)  # 2 bad balls ≤ f
        no_instance = plant_conflicts(network, conflicts=3)  # 6 bad balls > f
        assert relaxed.contains(yes_instance)
        assert not relaxed.contains(no_instance)
        estimate = estimate_guarantee(
            decider, relaxed, [yes_instance, no_instance], trials=1500, seed=4
        )
        assert estimate.guarantee > 0.5


class TestEstimateGuarantee:
    def test_deterministic_decider_single_run(self, proper_three_coloring, broken_three_coloring):
        decider = LocalCheckerDecider(ProperColoring(3))
        estimate = estimate_guarantee(
            decider, ProperColoring(3), [proper_three_coloring, broken_three_coloring], trials=5
        )
        assert estimate.guarantee == 1.0
        assert estimate.worst_member_rate == 1.0
        assert estimate.worst_non_member_rate == 1.0

    def test_member_and_non_member_rates_tracked(self, small_cycle):
        nodes = small_cycle.nodes()
        one = Configuration(
            small_cycle, {node: (SELECTED if node == nodes[0] else "") for node in nodes}
        )
        two = Configuration(
            small_cycle,
            {node: (SELECTED if node in (nodes[0], nodes[4]) else "") for node in nodes},
        )
        estimate = estimate_guarantee(AmosDecider(), Amos(), [one, two], trials=1200, seed=5)
        assert estimate.worst_member_rate == pytest.approx(golden_ratio_guarantee(), abs=0.05)
        assert estimate.worst_non_member_rate >= golden_ratio_guarantee() - 0.05
        assert estimate.guarantee > 0.5

    def test_empty_workload_gives_nan(self):
        estimate = estimate_guarantee(AmosDecider(), Amos(), [], trials=10)
        assert math.isnan(estimate.guarantee)


def _bisection_200_steps(target, repetitions):
    """The majority calibration as a fixed 200-step bisection."""
    low, high = 0.0, 1.0
    for _ in range(200):
        mid = (low + high) / 2.0
        if majority_success_probability(mid, repetitions) < target:
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


class TestMajorityCalibration:
    def test_stopping_at_convergence_matches_200_steps_bit_for_bit(self):
        rng = random.Random(1995)
        pairs = [(rng.random(), rng.choice((1, 2, 3, 5, 9, 15))) for _ in range(2_000)]
        # Targets near the ends, where 200 halvings do not reach adjacent
        # floats (a bias near 0) or reach them early.
        pairs += [
            (target, repetitions)
            for target in (5e-324, 1e-300, 1e-12, 0.5, 1 - 1e-12, math.nextafter(1.0, 0.0))
            for repetitions in (1, 2, 3, 5, 9, 15)
        ]
        per_draw_probability_for_majority.cache_clear()
        for target, repetitions in pairs:
            assert per_draw_probability_for_majority(target, repetitions) == (
                _bisection_200_steps(target, repetitions)
            ), (target, repetitions)

    def test_memoized(self):
        per_draw_probability_for_majority.cache_clear()
        first = per_draw_probability_for_majority(0.75, 3)
        assert per_draw_probability_for_majority(0.75, 3) == first
        assert per_draw_probability_for_majority.cache_info().hits == 1

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.5, 1.5])
    def test_target_outside_the_open_interval_raises(self, target):
        with pytest.raises(ValueError, match="strictly inside"):
            per_draw_probability_for_majority(target, 3)
