"""Tests for the LCL languages (repro.core.lcl)."""

from __future__ import annotations

import random

import pytest

from repro.algorithms.matching.proposal_matching import greedy_maximal_matching
from repro.algorithms.mis.greedy_mis import greedy_mis_by_identity
from repro.core.languages import Configuration
from repro.core.lcl import (
    MaximalIndependentSet,
    MaximalMatching,
    MinimalDominatingSet,
    NotAllEqualLLL,
    PredicateLCL,
    ProperColoring,
)
from repro.core.relaxations import eps_slack, f_resilient
from repro.graphs.families import cycle_network, grid_network, path_network, star_network
from repro.graphs.random_graphs import bounded_degree_gnp_network, random_regular_network


class TestProperColoring:
    def test_valid_coloring_has_no_bad_nodes(self, proper_three_coloring):
        language = ProperColoring(3)
        assert language.contains(proper_three_coloring)
        assert language.bad_nodes(proper_three_coloring) == []
        assert language.violation_count(proper_three_coloring) == 0

    def test_conflict_makes_both_endpoints_bad(self, broken_three_coloring):
        language = ProperColoring(3)
        bad = language.bad_nodes(broken_three_coloring)
        nodes = broken_three_coloring.nodes()
        assert set(bad) == {nodes[0], nodes[1]}
        assert not language.contains(broken_three_coloring)

    def test_palette_enforced(self, small_cycle):
        colors = {node: index + 10 for index, node in enumerate(small_cycle.nodes())}
        configuration = Configuration(small_cycle, colors)
        assert ProperColoring().contains(configuration)  # proper, unrestricted palette
        assert not ProperColoring(3).contains(configuration)  # out of palette

    def test_non_integer_color_rejected_with_palette(self, small_cycle):
        colors = {node: "red" for node in small_cycle.nodes()}
        configuration = Configuration(small_cycle, colors)
        assert not ProperColoring(3).contains(configuration)

    def test_fraction_bad(self, broken_three_coloring):
        assert ProperColoring(3).fraction_bad(broken_three_coloring) == pytest.approx(2 / 9)

    def test_name(self):
        assert ProperColoring(3).name == "3-coloring"
        assert ProperColoring().name == "proper-coloring"


class TestMaximalIndependentSet:
    def test_greedy_mis_is_valid(self, cubic_graph):
        outputs = greedy_mis_by_identity(cubic_graph)
        assert MaximalIndependentSet().contains(Configuration(cubic_graph, outputs))

    def test_adjacent_members_are_bad(self, small_path):
        outputs = {node: True for node in small_path.nodes()}
        language = MaximalIndependentSet()
        configuration = Configuration(small_path, outputs)
        assert not language.contains(configuration)
        assert len(language.bad_nodes(configuration)) == 7

    def test_empty_set_violates_maximality(self, small_cycle):
        outputs = {node: False for node in small_cycle.nodes()}
        assert not MaximalIndependentSet().contains(Configuration(small_cycle, outputs))

    def test_non_maximal_hole_detected(self, small_path):
        nodes = small_path.nodes()
        outputs = {node: False for node in nodes}
        outputs[nodes[0]] = True
        outputs[nodes[4]] = True
        # Node 2 has no neighbour in the set and is not in the set: bad.
        language = MaximalIndependentSet()
        assert nodes[2] in language.bad_nodes(Configuration(small_path, outputs))


class TestMaximalMatching:
    def test_greedy_matching_is_valid(self, cubic_graph):
        outputs = greedy_maximal_matching(cubic_graph)
        assert MaximalMatching().contains(Configuration(cubic_graph, outputs))

    def test_partner_must_be_neighbour(self, small_path):
        nodes = small_path.nodes()
        outputs = {node: None for node in nodes}
        outputs[nodes[0]] = small_path.identity(nodes[5])  # not adjacent
        language = MaximalMatching()
        assert nodes[0] in language.bad_nodes(Configuration(small_path, outputs))

    def test_partner_must_reciprocate(self, small_path):
        nodes = small_path.nodes()
        outputs = {node: None for node in nodes}
        outputs[nodes[0]] = small_path.identity(nodes[1])
        # nodes[1] does not declare nodes[0] back.
        language = MaximalMatching()
        assert nodes[0] in language.bad_nodes(Configuration(small_path, outputs))

    def test_unmatched_pair_of_neighbours_violates_maximality(self, small_path):
        outputs = {node: None for node in small_path.nodes()}
        assert not MaximalMatching().contains(Configuration(small_path, outputs))

    def test_empty_matching_on_empty_graph_is_fine(self):
        net = path_network(1)
        assert MaximalMatching().contains(Configuration(net, {net.nodes()[0]: None}))


class TestMinimalDominatingSet:
    def test_greedy_mis_is_minimal_dominating(self, cubic_graph):
        outputs = greedy_mis_by_identity(cubic_graph)
        assert MinimalDominatingSet().contains(Configuration(cubic_graph, outputs))

    def test_all_nodes_is_not_minimal(self, small_cycle):
        outputs = {node: True for node in small_cycle.nodes()}
        assert not MinimalDominatingSet().contains(Configuration(small_cycle, outputs))

    def test_empty_set_is_not_dominating(self, small_cycle):
        outputs = {node: False for node in small_cycle.nodes()}
        assert not MinimalDominatingSet().contains(Configuration(small_cycle, outputs))

    def test_radius_is_two(self):
        assert MinimalDominatingSet().radius == 2

    def test_single_center_dominates_star(self):
        net = star_network(5)
        outputs = {node: False for node in net.nodes()}
        outputs[net.nodes()[0]] = True
        assert MinimalDominatingSet().contains(Configuration(net, outputs))


class TestNotAllEqualLLL:
    def test_alternating_bits_satisfy(self, small_path):
        outputs = {node: index % 2 for index, node in enumerate(small_path.nodes())}
        assert NotAllEqualLLL().contains(Configuration(small_path, outputs))

    def test_monochromatic_assignment_fails_everywhere(self, small_cycle):
        outputs = {node: 1 for node in small_cycle.nodes()}
        language = NotAllEqualLLL()
        configuration = Configuration(small_cycle, outputs)
        assert language.violation_count(configuration) == 9

    def test_single_flipped_bit_rescues_neighbourhoods(self, small_cycle):
        nodes = small_cycle.nodes()
        outputs = {node: 1 for node in nodes}
        outputs[nodes[0]] = 0
        language = NotAllEqualLLL()
        bad = language.bad_nodes(Configuration(small_cycle, outputs))
        # Nodes at distance >= 2 from the flipped node still see a
        # monochromatic closed neighbourhood: 9 nodes minus the flipped node
        # and its two neighbours.
        assert nodes[0] not in bad
        assert nodes[1] not in bad
        assert len(bad) == 6


class TestPredicateLCL:
    def test_wraps_predicate_and_radius(self, small_cycle):
        language = PredicateLCL(
            is_bad=lambda ball: ball.center_output() == "bad",
            radius=1,
            name="no-bad-labels",
        )
        outputs = {node: "ok" for node in small_cycle.nodes()}
        assert language.contains(Configuration(small_cycle, outputs))
        outputs[small_cycle.nodes()[3]] = "bad"
        configuration = Configuration(small_cycle, outputs)
        assert language.bad_nodes(configuration) == [small_cycle.nodes()[3]]
        assert language.radius == 1


# --------------------------------------------------------------------------- #
# Every membership query reads the spec
# --------------------------------------------------------------------------- #
def _colors(network, rng):
    """Colors 1..4: out of palette for 2- and 3-coloring, conflicts likely."""
    return {node: rng.choice((1, 2, 3, 4)) for node in network.nodes()}


def _flags(network, rng):
    return {node: rng.random() < 0.4 for node in network.nodes()}


def _bits(network, rng):
    return {node: rng.randrange(2) for node in network.nodes()}


def _partners(network, rng):
    """A random matching (reciprocal partners), then one node pointing at a
    random identity, which may break reciprocity or adjacency."""
    partner = {node: None for node in network.nodes()}
    edges = network.edges()
    rng.shuffle(edges)
    for u, v in edges:
        if partner[u] is None and partner[v] is None and rng.random() < 0.7:
            partner[u], partner[v] = network.identity(v), network.identity(u)
    stray = rng.choice(network.nodes())
    partner[stray] = network.identity(rng.choice(network.nodes()))
    return partner


LANGUAGES = {
    "3-coloring": (lambda: ProperColoring(3), _colors),
    "2-coloring": (lambda: ProperColoring(2), _colors),
    "proper-coloring": (ProperColoring, _colors),
    "mis": (MaximalIndependentSet, _flags),
    "matching": (MaximalMatching, _partners),
    "mds": (MinimalDominatingSet, _flags),
    "nae": (NotAllEqualLLL, _bits),
}

NETWORKS = {
    "cycle": lambda: cycle_network(9, ids="shuffled", seed=3),
    "path": lambda: path_network(7),
    "grid": lambda: grid_network(3, 4, ids="random", seed=1),
    "star": lambda: star_network(5),
    "cubic": lambda: random_regular_network(12, 3, seed=1),
    # Two isolated nodes: balls with no neighbour at all.
    "sparse-gnp": lambda: bounded_degree_gnp_network(15, 0.1, max_degree=4, seed=2, connect=False),
}


class TestMembershipQueriesReadTheSpec:
    """``bad_mask`` (ProperColoring's array override included), ``bad_nodes``,
    ``violation_count``, ``contains``, ``fraction_bad`` and ``at_most_bad``
    (the early-exit spec loop without an override) all agree with
    ``is_bad_ball`` run on every ball, and so do the f-resilient and
    ε-slack relaxations built on them."""

    @pytest.mark.parametrize("network_name", sorted(NETWORKS))
    @pytest.mark.parametrize("language_name", sorted(LANGUAGES))
    def test_every_query_agrees_with_is_bad_ball(self, language_name, network_name):
        make_language, sample = LANGUAGES[language_name]
        language, network = make_language(), NETWORKS[network_name]()
        nodes, n = network.nodes(), len(network)
        for seed in range(8):
            configuration = Configuration(network, sample(network, random.Random(seed)))
            spec = [
                bool(language.is_bad_ball(configuration.ball(node, language.radius)))
                for node in nodes
            ]
            count = sum(spec)
            assert language.bad_mask(configuration).tolist() == spec
            assert language.bad_nodes(configuration) == [v for v, bad in zip(nodes, spec) if bad]
            assert language.violation_count(configuration) == count
            assert language.contains(configuration) is (count == 0)
            assert language.fraction_bad(configuration) == count / n
            for budget in range(n + 1):
                assert language.at_most_bad(configuration, budget) is (count <= budget)
                assert f_resilient(language, budget).contains(configuration) is (count <= budget)
            for eps in (0.0, 0.25, 0.5, 1.0):
                relaxed = eps_slack(language, eps)
                allowed = int(eps * n)
                assert relaxed.contains(configuration) is (count <= allowed)
                assert relaxed.violation_count(configuration) == max(0, count - allowed)
