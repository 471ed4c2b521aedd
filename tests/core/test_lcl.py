"""Tests for the LCL languages (repro.core.lcl)."""

from __future__ import annotations

import pytest

from repro.algorithms.matching.proposal_matching import greedy_maximal_matching
from repro.algorithms.mis.greedy_mis import greedy_mis_by_identity
from repro.core.languages import Configuration
from repro.core.lcl import (
    FrugalColoring,
    MaximalIndependentSet,
    MaximalMatching,
    MinimalDominatingSet,
    NotAllEqualLLL,
    PredicateLCL,
    ProperColoring,
    WeakColoring,
)
from repro.graphs.families import path_network, star_network


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


class TestWeakColoring:
    def test_alternating_coloring_is_weak(self, small_path):
        colors = {node: index % 2 for index, node in enumerate(small_path.nodes())}
        assert WeakColoring().contains(Configuration(small_path, colors))

    def test_monochromatic_star_center_ok_leaves_bad(self):
        net = star_network(4)
        configuration = Configuration(net, {node: 0 for node in net.nodes()})
        bad = WeakColoring().bad_nodes(configuration)
        # Every node's whole neighbourhood is monochromatic, so all are bad.
        assert len(bad) == 5

    def test_star_with_distinct_center_is_weak(self):
        net = star_network(4)
        outputs = {node: 1 for node in net.nodes()}
        outputs[net.nodes()[0]] = 0  # centre differs from all leaves
        assert WeakColoring().contains(Configuration(net, outputs))

    def test_isolated_node_is_never_bad(self):
        net = path_network(1)
        assert WeakColoring().contains(Configuration(net, {net.nodes()[0]: 0}))

    def test_weak_coloring_weaker_than_proper(self, proper_three_coloring):
        # Any proper coloring (of a graph with min degree >= 1) is weak.
        assert WeakColoring().contains(proper_three_coloring)


class TestFrugalColoring:
    def test_proper_and_frugal(self):
        net = star_network(4)
        outputs = {net.nodes()[0]: 1}
        outputs.update({leaf: 2 + index for index, leaf in enumerate(net.nodes()[1:])})
        assert FrugalColoring(c=1).contains(Configuration(net, outputs))

    def test_color_repetition_in_neighbourhood_violates_frugality(self):
        net = star_network(4)
        outputs = {net.nodes()[0]: 1}
        outputs.update({leaf: 2 for leaf in net.nodes()[1:]})  # same color 4 times
        language = FrugalColoring(c=3)
        configuration = Configuration(net, outputs)
        assert not language.contains(configuration)
        assert language.bad_nodes(configuration) == [net.nodes()[0]]

    def test_conflict_is_also_bad(self, broken_three_coloring):
        assert not FrugalColoring(c=2).contains(broken_three_coloring)

    def test_frugality_parameter_validated(self):
        with pytest.raises(ValueError):
            FrugalColoring(c=0)

    def test_palette_enforced(self, small_cycle):
        outputs = {node: 100 + index for index, node in enumerate(small_cycle.nodes())}
        assert not FrugalColoring(c=2, num_colors=3).contains(Configuration(small_cycle, outputs))


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
