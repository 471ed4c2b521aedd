"""Property-based tests (hypothesis) on the core invariants.

These check structural invariants the paper's framework relies on:

* ball extraction agrees with graph distances and the boundary-edge rule;
* order-preserving relabelling never changes an enumerated order-invariant
  algorithm's outputs, and never changes cycle ball patterns;
* the enumerated order-invariant algorithms, evaluated once per ball class,
  give ``run_ball_algorithm``'s outputs and bad-ball counts;
* the relaxation hierarchy L ⊆ L_f ⊆ L_{f+1} and the bad-ball count algebra;
* the resilient decider's acceptance probability formula p^{|F(G)|};
* gluing preserves identities, degree bounds, and connectivity.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.decision import ResilientDecider, resilient_probability_window
from repro.core.languages import Configuration
from repro.core.lcl import ProperColoring
from repro.core.order_invariant import (
    CyclePatternAlgorithm,
    cycle_ball_patterns,
    enumerate_order_invariant_cycle_algorithms,
)
from repro.core.relaxations import eps_slack, f_resilient
from repro.graphs.families import cycle_network
from repro.graphs.operations import disjoint_union, glue_instances
from repro.harness.experiments import _coloring, _order_invariant_colorings
from repro.local.ball import collect_ball
from repro.local.simulator import run_ball_algorithm

SETTINGS = settings(
    max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
cycle_sizes = st.integers(min_value=3, max_value=20)
seeds = st.integers(min_value=0, max_value=10_000)
radii = st.integers(min_value=0, max_value=3)


def relabel_in_order(network, values):
    """The network with the i-th smallest identity replaced by ``values[i]``
    (increasing ``values`` keep the identity order)."""
    ranked = sorted(network.nodes(), key=network.identity)
    return network.with_ids({node: values[rank] for rank, node in enumerate(ranked)})


def random_coloring_strategy(n: int, colors: int = 3):
    return st.lists(
        st.integers(min_value=1, max_value=colors), min_size=n, max_size=n
    )


# --------------------------------------------------------------------------- #
# Balls
# --------------------------------------------------------------------------- #
class TestBallProperties:
    @SETTINGS
    @given(n=cycle_sizes, seed=seeds, radius=radii)
    def test_ball_members_are_exactly_nodes_within_radius(self, n, seed, radius):
        network = cycle_network(n, ids="shuffled", seed=seed)
        center = network.nodes()[seed % n]
        ball = collect_ball(network, center, radius)
        expected = {
            node
            for node, distance in network.distances_from(center).items()
            if distance <= radius
        }
        assert set(ball.graph.nodes()) == expected

    @SETTINGS
    @given(n=cycle_sizes, seed=seeds, radius=st.integers(min_value=1, max_value=3))
    def test_no_edge_joins_two_boundary_nodes(self, n, seed, radius):
        network = cycle_network(n, ids="shuffled", seed=seed)
        center = network.nodes()[seed % n]
        ball = collect_ball(network, center, radius)
        for u, v in ball.graph.edges():
            assert not (
                ball.distances[u] == radius and ball.distances[v] == radius
            )

    @SETTINGS
    @given(n=cycle_sizes, seed=seeds)
    def test_cycle_ball_patterns_invariant_under_relabelling(self, n, seed):
        network = cycle_network(n, ids="shuffled", seed=seed)
        relabelled = relabel_in_order(network, [7 + 13 * index for index in range(n)])
        assert cycle_ball_patterns(relabelled, 1) == cycle_ball_patterns(network, 1)


# --------------------------------------------------------------------------- #
# Order invariance
# --------------------------------------------------------------------------- #
class TestOrderInvarianceProperties:
    @SETTINGS
    @given(n=cycle_sizes, seed=seeds, index=st.integers(min_value=0, max_value=26))
    def test_enumerated_algorithm_unchanged_by_relabelling(self, n, seed, index):
        network = cycle_network(n, ids="shuffled", seed=seed)
        algorithm = list(enumerate_order_invariant_cycle_algorithms(1, (1, 2, 3)))[index]
        baseline = run_ball_algorithm(network, algorithm)
        relabelled = relabel_in_order(network, [v * 3 + 2 for v in range(1, n + 1)])
        assert run_ball_algorithm(relabelled, algorithm) == baseline


class TestBallClassEvaluation:
    """The enumerated order-invariant algorithms evaluated once per ball
    class agree with :func:`run_ball_algorithm`, one ball per node per
    algorithm (the specification)."""

    @SETTINGS
    @given(
        n=cycle_sizes,
        seed=seeds,
        ids=st.sampled_from(["consecutive", "shuffled", "random"]),
        radius=st.sampled_from([0, 1]),
    )
    def test_per_class_outputs_and_bad_counts_equal_the_spec(self, n, seed, ids, radius):
        network = cycle_network(n, ids=ids, seed=seed)
        base = ProperColoring(3)
        patterns = cycle_ball_patterns(network, radius)
        codes, bad_counts = _order_invariant_colorings(network, radius, base)
        algorithms = list(enumerate_order_invariant_cycle_algorithms(radius, [1, 2, 3]))
        assert len(codes) == len(bad_counts) == len(algorithms)
        for algorithm, row, bad in zip(algorithms, codes, bad_counts):
            expected = run_ball_algorithm(network, algorithm)
            assert algorithm.outputs_at(patterns) == [expected[node] for node in network.nodes()]
            configuration = _coloring(network, row)
            assert configuration.outputs == expected
            assert bad == base.violation_count(Configuration(network, expected))

    @pytest.mark.parametrize("n,radius", [(3, 2), (4, 2), (6, 3)])
    def test_cycle_too_short_for_the_radius_raises_the_spec_error(self, n, radius):
        network = cycle_network(n)
        with pytest.raises(ValueError) as spec:
            run_ball_algorithm(network, CyclePatternAlgorithm({}, radius))
        with pytest.raises(ValueError) as per_class:
            cycle_ball_patterns(network, radius)
        assert str(per_class.value) == str(spec.value)


# --------------------------------------------------------------------------- #
# Languages and relaxations
# --------------------------------------------------------------------------- #
class TestRelaxationProperties:
    @SETTINGS
    @given(n=cycle_sizes, colors=st.data())
    def test_resilience_hierarchy(self, n, colors):
        network = cycle_network(n)
        assignment = colors.draw(random_coloring_strategy(n))
        configuration = Configuration(
            network, {node: assignment[index] for index, node in enumerate(network.nodes())}
        )
        base = ProperColoring(3)
        bad = base.violation_count(configuration)
        for f in range(0, bad + 2):
            relaxed = f_resilient(base, f)
            assert relaxed.contains(configuration) == (bad <= f)
        # Membership is monotone in f.
        verdicts = [f_resilient(base, f).contains(configuration) for f in range(bad + 2)]
        assert verdicts == sorted(verdicts)

    @SETTINGS
    @given(n=cycle_sizes, colors=st.data(), eps=st.floats(min_value=0.0, max_value=1.0))
    def test_slack_membership_matches_fraction(self, n, colors, eps):
        network = cycle_network(n)
        assignment = colors.draw(random_coloring_strategy(n))
        configuration = Configuration(
            network, {node: assignment[index] for index, node in enumerate(network.nodes())}
        )
        base = ProperColoring(3)
        relaxed = eps_slack(base, eps)
        assert relaxed.contains(configuration) == (
            base.violation_count(configuration) <= int(eps * n)
        )

    @SETTINGS
    @given(n=cycle_sizes, colors=st.data())
    def test_bad_nodes_consistent_with_violation_count(self, n, colors):
        network = cycle_network(n)
        assignment = colors.draw(random_coloring_strategy(n))
        configuration = Configuration(
            network, {node: assignment[index] for index, node in enumerate(network.nodes())}
        )
        language = ProperColoring(3)
        assert len(language.bad_nodes(configuration)) == language.violation_count(configuration)


# --------------------------------------------------------------------------- #
# The resilient decider's acceptance formula
# --------------------------------------------------------------------------- #
class TestResilientDeciderProperties:
    @SETTINGS
    @given(f=st.integers(min_value=1, max_value=6))
    def test_probability_window_algebra(self, f):
        low, high = resilient_probability_window(f)
        decider = ResilientDecider(ProperColoring(3), f=f)
        assert low < decider.p_bad_ball < high
        assert decider.p_bad_ball**f > 0.5
        assert decider.p_bad_ball ** (f + 1) < 0.5
        assert decider.guarantee > 0.5

    @SETTINGS
    @given(f=st.integers(min_value=1, max_value=4), bad=st.integers(min_value=0, max_value=10))
    def test_theoretical_acceptance_monotone_in_bad_count(self, f, bad):
        decider = ResilientDecider(ProperColoring(3), f=f)
        assert decider.theoretical_acceptance(bad) >= decider.theoretical_acceptance(bad + 1)


# --------------------------------------------------------------------------- #
# Graph operations
# --------------------------------------------------------------------------- #
class TestOperationProperties:
    @SETTINGS
    @given(sizes=st.lists(st.integers(min_value=3, max_value=9), min_size=2, max_size=4))
    def test_disjoint_union_preserves_counts_and_identities(self, sizes):
        parts = [cycle_network(size) for size in sizes]
        union = disjoint_union(parts)
        assert union.number_of_nodes() == sum(sizes)
        assert union.number_of_edges() == sum(sizes)
        identities = list(union.ids.values())
        assert len(identities) == len(set(identities))

    @SETTINGS
    @given(
        sizes=st.lists(st.integers(min_value=4, max_value=9), min_size=2, max_size=4),
        anchor_offset=st.integers(min_value=0, max_value=3),
    )
    def test_gluing_invariants(self, sizes, anchor_offset):
        instances = [cycle_network(size) for size in sizes]
        anchors = [
            instance.nodes()[anchor_offset % instance.number_of_nodes()]
            for instance in instances
        ]
        glued = glue_instances(instances, anchors)
        network = glued.network
        assert network.is_connected()
        assert network.max_degree() <= max(3, max(net.max_degree() for net in instances))
        assert network.number_of_nodes() == sum(sizes) + 2 * len(sizes)
        identities = list(network.ids.values())
        assert len(identities) == len(set(identities))
