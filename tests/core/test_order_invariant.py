"""Tests for order-invariant algorithms (repro.core.order_invariant)."""

from __future__ import annotations

import math

import pytest

from repro.core.lcl import ProperColoring
from repro.core.languages import Configuration
from repro.core.order_invariant import (
    CyclePatternAlgorithm,
    count_order_invariant_cycle_algorithms,
    cycle_ball_pattern,
    cycle_ball_patterns,
    enumerate_cycle_ball_types,
    enumerate_order_invariant_cycle_algorithms,
    monochromatic_core,
)
from repro.core.relaxations import f_resilient
from repro.graphs.families import cycle_network
from repro.local.ball import collect_ball
from repro.local.simulator import run_ball_algorithm


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
        """Outputs are unchanged under an order-preserving relabelling."""
        net = cycle_network(9, ids="shuffled", seed=7)
        relabelled = net.with_ids({node: 7 * ident + 3 for node, ident in net.ids.items()})
        for algorithm in list(enumerate_order_invariant_cycle_algorithms(1, [1, 2]))[:4]:
            assert run_ball_algorithm(relabelled, algorithm) == run_ball_algorithm(net, algorithm)

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


class TestBallTypeCounting:
    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_types_are_the_reflection_classes_of_rank_orders(self, radius):
        length = 2 * radius + 1
        types = enumerate_cycle_ball_types(radius)
        assert types == sorted(set(types))
        assert all(sorted(pattern) == list(range(length)) for pattern in types)
        assert all(pattern <= tuple(reversed(pattern)) for pattern in types)
        assert len(types) == max(1, math.factorial(length) // 2)

    @pytest.mark.parametrize("num_outputs", [1, 2, 3])
    @pytest.mark.parametrize("radius", [0, 1, 2, 3])
    def test_count_is_one_output_per_ball_type(self, radius, num_outputs):
        """Claim 2's ``N``: one table entry per ball type."""
        types = len(enumerate_cycle_ball_types(radius))
        assert count_order_invariant_cycle_algorithms(radius, num_outputs) == num_outputs**types


class TestPatternsOfCycles:
    """:func:`cycle_ball_patterns` on whole cycles: one enumerated type per
    node, unchanged by order-preserving relabelling, carried along by
    rotating or reflecting the identities, and what a pattern table reads."""

    @pytest.mark.parametrize("scheme", ["consecutive", "shuffled", "random"])
    @pytest.mark.parametrize("radius", [1, 2, 3])
    def test_patterns_follow_the_identity_order(self, radius, scheme):
        n = 13
        net = cycle_network(n, ids=scheme, seed=radius)
        patterns = cycle_ball_patterns(net, radius)
        nodes = net.nodes()
        assert patterns == [cycle_ball_pattern(collect_ball(net, v, radius)) for v in nodes]
        types = enumerate_cycle_ball_types(radius)
        assert set(patterns) <= set(types)

        scaled = net.with_ids({v: 5 * net.identity(v) + 2 for v in nodes})
        assert cycle_ball_patterns(scaled, radius) == patterns
        rotated = net.with_ids({v: net.identity(nodes[(i + 1) % n]) for i, v in enumerate(nodes)})
        assert cycle_ball_patterns(rotated, radius) == patterns[1:] + patterns[:1]
        reflected = net.with_ids({v: net.identity(nodes[-i % n]) for i, v in enumerate(nodes)})
        assert cycle_ball_patterns(reflected, radius) == [patterns[-i % n] for i in range(n)]

        algorithm = CyclePatternAlgorithm({t: i for i, t in enumerate(types)}, radius, default=-1)
        outputs = run_ball_algorithm(net, algorithm)
        assert algorithm.outputs_at(patterns) == [outputs[v] for v in nodes]
        assert -1 not in outputs.values()

    @pytest.mark.parametrize("n,radius", [(7, 1), (10, 1), (10, 2), (16, 2), (15, 3), (9, 4)])
    def test_core_is_exactly_the_increasing_pattern(self, n, radius):
        """On the consecutive cycle the nodes whose ball reads increasing
        identities are the core, ``n - 2t`` of them; every other ball holds
        the wrap-around pair ``{1, n}``."""
        net = cycle_network(n, ids="consecutive")
        increasing = tuple(range(2 * radius + 1))
        patterns = cycle_ball_patterns(net, radius)
        core = [net.identity(v) for v, p in zip(net.nodes(), patterns) if p == increasing]
        assert core == monochromatic_core(n, radius)
        assert len(core) == n - 2 * radius
