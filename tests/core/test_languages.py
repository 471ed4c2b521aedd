"""Tests for configurations and global languages (repro.core.languages)."""

from __future__ import annotations

import pytest

from repro.core.languages import SELECTED, Amos, Configuration, Majority, PredicateLanguage
from repro.graphs.families import path_network


def select(network, how_many):
    nodes = network.nodes()
    return Configuration(
        network,
        {node: (SELECTED if index < how_many else "") for index, node in enumerate(nodes)},
    )


class TestConfiguration:
    def test_requires_output_for_every_node(self, small_cycle):
        with pytest.raises(ValueError, match="missing"):
            Configuration(small_cycle, {small_cycle.nodes()[0]: 1})

    def test_output_of(self, proper_three_coloring):
        node = proper_three_coloring.nodes()[0]
        assert proper_three_coloring.output_of(node) == 1

    def test_outputs_are_frozen_copy(self, small_cycle):
        outputs = {node: 0 for node in small_cycle.nodes()}
        configuration = Configuration(small_cycle, outputs)
        outputs[small_cycle.nodes()[0]] = 99
        assert configuration.output_of(small_cycle.nodes()[0]) == 0

    def test_ball_carries_outputs(self, proper_three_coloring):
        node = proper_three_coloring.nodes()[2]
        ball = proper_three_coloring.ball(node, 1)
        assert ball.outputs is not None
        assert ball.center_output() == proper_three_coloring.output_of(node)

    def test_selected_nodes(self, small_cycle):
        configuration = select(small_cycle, 2)
        assert len(configuration.selected_nodes()) == 2

    def test_with_outputs_overrides(self, proper_three_coloring):
        node = proper_three_coloring.nodes()[0]
        updated = proper_three_coloring.with_outputs({node: 42})
        assert updated.output_of(node) == 42
        assert proper_three_coloring.output_of(node) == 1

    def test_len(self, proper_three_coloring):
        assert len(proper_three_coloring) == 9


class TestAmos:
    @pytest.mark.parametrize("selected,expected", [(0, True), (1, True), (2, False), (3, False)])
    def test_membership_threshold(self, small_cycle, selected, expected):
        assert Amos().contains(select(small_cycle, selected)) is expected

    def test_violation_count(self, small_cycle):
        amos = Amos()
        assert amos.violation_count(select(small_cycle, 0)) == 0
        assert amos.violation_count(select(small_cycle, 1)) == 0
        assert amos.violation_count(select(small_cycle, 4)) == 3

    def test_in_operator(self, small_cycle):
        assert select(small_cycle, 1) in Amos()
        assert select(small_cycle, 2) not in Amos()


class TestMajority:
    def test_half_selected_is_member(self):
        net = path_network(4)
        assert Majority().contains(select(net, 2))

    def test_minority_is_not_member(self):
        net = path_network(5)
        assert not Majority().contains(select(net, 2))

    def test_all_selected(self, small_cycle):
        assert Majority().contains(select(small_cycle, 9))

    def test_violation_count_counts_missing_selections(self):
        net = path_network(6)
        majority = Majority()
        assert majority.violation_count(select(net, 0)) == 3
        assert majority.violation_count(select(net, 3)) == 0


class TestPredicateLanguage:
    def test_wraps_predicate(self, small_cycle):
        language = PredicateLanguage(
            lambda config: all(value == 1 for value in config.outputs.values()),
            name="all-ones",
        )
        ones = Configuration(small_cycle, {node: 1 for node in small_cycle.nodes()})
        zeros = Configuration(small_cycle, {node: 0 for node in small_cycle.nodes()})
        assert language.contains(ones)
        assert not language.contains(zeros)

    def test_default_violation_count_is_indicator(self, small_cycle):
        language = PredicateLanguage(lambda config: False)
        configuration = Configuration(small_cycle, {node: 0 for node in small_cycle.nodes()})
        assert language.violation_count(configuration) == 1

    def test_custom_violation_counter(self, small_cycle):
        language = PredicateLanguage(
            lambda config: False,
            violation_counter=lambda config: sum(config.outputs.values()),
        )
        configuration = Configuration(small_cycle, {node: 2 for node in small_cycle.nodes()})
        assert language.violation_count(configuration) == 18
