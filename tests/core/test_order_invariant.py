"""Tests for order-invariant algorithms (repro.core.order_invariant)."""

from __future__ import annotations

import math

import pytest

from repro.core.lcl import ProperColoring
from repro.core.languages import Configuration
from repro.core.order_invariant import (
    OrderInvariantAlgorithm,
    TableBallAlgorithm,
    count_order_invariant_cycle_algorithms,
    cycle_ball_pattern,
    enumerate_cycle_ball_types,
    enumerate_order_invariant_cycle_algorithms,
    is_order_invariant_on,
    monochromatic_core,
)
from repro.core.relaxations import f_resilient
from repro.graphs.families import cycle_network
from repro.local.algorithm import FunctionBallAlgorithm
from repro.local.ball import collect_ball
from repro.local.simulator import run_ball_algorithm


class TestOrderInvariantWrapper:
    def test_rule_sees_ranks_not_values(self):
        algorithm = OrderInvariantAlgorithm(
            rule=lambda ball, ranks: ranks[ball.center],
            radius=1,
            name="center-rank",
        )
        small_ids = cycle_network(7, ids="consecutive")
        large_ids = cycle_network(7, ids="consecutive", id_start=1000)
        out_small = run_ball_algorithm(small_ids, algorithm)
        out_large = run_ball_algorithm(large_ids, algorithm)
        assert list(out_small.values()) == list(out_large.values())

    def test_wrapper_passes_empirical_invariance_check(self):
        algorithm = OrderInvariantAlgorithm(
            rule=lambda ball, ranks: ranks[ball.center], radius=1
        )
        assert is_order_invariant_on(algorithm, cycle_network(9, ids="shuffled", seed=2))

    def test_id_dependent_algorithm_fails_the_check(self):
        algorithm = FunctionBallAlgorithm(
            lambda ball: ball.center_id() % 2, radius=0, name="id-parity"
        )
        assert not is_order_invariant_on(algorithm, cycle_network(9, ids="shuffled", seed=2))

    def test_check_rejects_randomized_algorithms(self):
        algorithm = FunctionBallAlgorithm(
            lambda ball, tape: tape.bit(), radius=0, randomized=True
        )
        with pytest.raises(ValueError):
            is_order_invariant_on(algorithm, cycle_network(5))


class TestTableBallAlgorithm:
    def test_lookup_and_default(self, small_cycle):
        ball = collect_ball(small_cycle, small_cycle.nodes()[4], 1)
        key = ball.canonical_key(ids="order")
        algorithm = TableBallAlgorithm({key: "hit"}, radius=1, default="miss")
        outputs = run_ball_algorithm(small_cycle, algorithm)
        # The consecutive-identity cycle has identical interior ball types, so
        # most nodes hit the table entry.
        assert "hit" in outputs.values()
        assert set(outputs.values()) <= {"hit", "miss"}

    def test_order_mode_is_order_invariant(self, small_cycle):
        ball = collect_ball(small_cycle, small_cycle.nodes()[4], 1)
        algorithm = TableBallAlgorithm(
            {ball.canonical_key(ids="order"): 1}, radius=1, default=0
        )
        assert is_order_invariant_on(algorithm, small_cycle)


class TestCycleBallPatterns:
    def test_pattern_length_and_reflection_canonical(self):
        net = cycle_network(11, ids="shuffled", seed=5)
        ball = collect_ball(net, net.nodes()[3], 2)
        pattern = cycle_ball_pattern(ball)
        assert len(pattern) == 5
        assert pattern <= tuple(reversed(pattern))

    def test_consecutive_cycle_interior_patterns_identical(self):
        net = cycle_network(15, ids="consecutive")
        patterns = set()
        for identity in range(2, 15):  # interior of the core for radius 1
            node = net.node_with_identity(identity)
            patterns.add(cycle_ball_pattern(collect_ball(net, node, 1)))
        assert len(patterns) == 1

    def test_pattern_requires_path_shaped_ball(self):
        net = cycle_network(4)
        ball = collect_ball(net, net.nodes()[0], 2)  # radius 2 wraps the 4-cycle
        with pytest.raises(ValueError):
            cycle_ball_pattern(ball)

    def test_radius_zero_single_type(self):
        assert enumerate_cycle_ball_types(0) == [(0,)]

    def test_radius_one_three_types(self):
        types = enumerate_cycle_ball_types(1)
        assert len(types) == 3  # 3!/2

    def test_radius_two_sixty_types(self):
        assert len(enumerate_cycle_ball_types(2)) == math.factorial(5) // 2

    def test_counting_formula(self):
        assert count_order_invariant_cycle_algorithms(0, 3) == 3
        assert count_order_invariant_cycle_algorithms(1, 3) == 27
        assert count_order_invariant_cycle_algorithms(1, 2) == 8


class TestEnumeration:
    def test_enumeration_size_matches_count(self):
        algorithms = list(enumerate_order_invariant_cycle_algorithms(1, [1, 2, 3]))
        assert len(algorithms) == 27

    def test_enumerated_algorithms_are_order_invariant(self):
        net = cycle_network(9, ids="shuffled", seed=7)
        for algorithm in list(enumerate_order_invariant_cycle_algorithms(1, [1, 2]))[:4]:
            assert is_order_invariant_on(algorithm, net, attempts=2)

    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            list(enumerate_order_invariant_cycle_algorithms(2, [1, 2, 3], limit=10))


class TestMonochromaticCore:
    def test_core_identities(self):
        assert monochromatic_core(10, 1) == list(range(2, 10))
        assert monochromatic_core(10, 2) == list(range(3, 9))

    def test_core_empty_for_tiny_cycles(self):
        assert monochromatic_core(3, 2) == []

    def test_core_nodes_get_identical_outputs(self):
        """The Section 4 argument: every order-invariant radius-1 algorithm is
        monochromatic on the core of the consecutively-labelled cycle."""
        n = 12
        net = cycle_network(n, ids="consecutive")
        core_identities = set(monochromatic_core(n, 1))
        for algorithm in enumerate_order_invariant_cycle_algorithms(1, [1, 2, 3]):
            outputs = run_ball_algorithm(net, algorithm)
            core_outputs = {
                outputs[node] for node in net.nodes() if net.identity(node) in core_identities
            }
            assert len(core_outputs) == 1

    def test_no_order_invariant_algorithm_solves_resilient_coloring(self):
        """Consequently no radius-1 order-invariant algorithm solves the
        f-resilient 3-coloring of the consecutive cycle once n is large
        enough (Corollary 1's application)."""
        n = 16
        f = 3
        net = cycle_network(n, ids="consecutive")
        relaxed = f_resilient(ProperColoring(3), f)
        for algorithm in enumerate_order_invariant_cycle_algorithms(1, [1, 2, 3]):
            outputs = run_ball_algorithm(net, algorithm)
            configuration = Configuration(net, outputs)
            assert not relaxed.contains(configuration)
