"""Tests for f-resilient and ε-slack relaxations (repro.core.relaxations)."""

from __future__ import annotations

import pytest

from repro.core.languages import Configuration
from repro.core.lcl import MinimalDominatingSet, ProperColoring
from repro.core.relaxations import EpsSlackLanguage, FResilientLanguage, eps_slack, f_resilient
from repro.graphs.families import cycle_network


def cycle_coloring_with_conflicts(n, conflicts):
    """A 3-coloring of C_n with ``conflicts`` planted conflicting edges, each
    producing two bad balls (the planted nodes are pairwise non-adjacent).

    Requires ``n`` divisible by 3 so the base coloring is cyclically proper
    and each plant creates exactly one conflicting edge.
    """
    assert n % 3 == 0, "use a cycle length divisible by 3"
    network = cycle_network(n)
    nodes = network.nodes()
    colors = {node: (index % 3) + 1 for index, node in enumerate(nodes)}
    step = max(3, n // max(conflicts, 1))
    for planted in range(conflicts):
        index = planted * step
        colors[nodes[index]] = colors[nodes[index + 1]]
    return Configuration(network, colors)


class TestFResilient:
    def test_zero_budget_equals_base_language(self):
        base = ProperColoring(3)
        relaxed = f_resilient(base, 0)
        good = cycle_coloring_with_conflicts(12, 0)
        bad = cycle_coloring_with_conflicts(12, 1)
        assert relaxed.contains(good) == base.contains(good)
        assert relaxed.contains(bad) == base.contains(bad)

    @pytest.mark.parametrize(
        "conflicts,f,expected", [(1, 2, True), (1, 1, False), (2, 4, True), (2, 3, False)]
    )
    def test_membership_threshold(self, conflicts, f, expected):
        # Each planted conflict creates exactly two bad balls.
        configuration = cycle_coloring_with_conflicts(24, conflicts)
        assert f_resilient(ProperColoring(3), f).contains(configuration) is expected

    def test_monotone_in_f(self):
        configuration = cycle_coloring_with_conflicts(24, 2)
        verdicts = [f_resilient(ProperColoring(3), f).contains(configuration) for f in range(0, 7)]
        # Once a configuration is accepted for some f, it stays accepted for larger f.
        assert verdicts == sorted(verdicts)

    def test_violation_count_is_excess_over_budget(self):
        configuration = cycle_coloring_with_conflicts(24, 3)  # 6 bad balls
        relaxed = f_resilient(ProperColoring(3), 4)
        assert relaxed.bad_ball_count(configuration) == 6
        assert relaxed.violation_count(configuration) == 2

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            FResilientLanguage(ProperColoring(3), -1)

    def test_radius_and_name_exposed(self):
        relaxed = f_resilient(MinimalDominatingSet(), 3)
        assert relaxed.radius == MinimalDominatingSet.radius
        assert "f=3" in relaxed.name


class TestEpsSlack:
    def test_eps_zero_equals_base(self):
        base = ProperColoring(3)
        relaxed = eps_slack(base, 0.0)
        good = cycle_coloring_with_conflicts(12, 0)
        bad = cycle_coloring_with_conflicts(12, 1)
        assert relaxed.contains(good)
        assert not relaxed.contains(bad)

    def test_eps_one_accepts_everything(self):
        relaxed = eps_slack(ProperColoring(3), 1.0)
        terrible = Configuration(
            cycle_network(10), {node: 1 for node in cycle_network(10).nodes()}
        )
        # Note: configuration built on a fresh (equal) network instance.
        network = cycle_network(10)
        terrible = Configuration(network, {node: 1 for node in network.nodes()})
        assert relaxed.contains(terrible)

    def test_allowed_bad_scales_with_n(self):
        relaxed = eps_slack(ProperColoring(3), 0.25)
        assert relaxed.allowed_bad(12) == 3
        assert relaxed.allowed_bad(100) == 25

    def test_membership_threshold(self):
        # 2 conflicts = 4 bad balls on 24 nodes ≈ 16.7% bad.
        configuration = cycle_coloring_with_conflicts(24, 2)
        assert eps_slack(ProperColoring(3), 0.2).contains(configuration)
        assert not eps_slack(ProperColoring(3), 0.15).contains(configuration)

    def test_violation_count(self):
        configuration = cycle_coloring_with_conflicts(24, 2)  # 4 bad balls
        relaxed = eps_slack(ProperColoring(3), 0.1)  # tolerates 2
        assert relaxed.violation_count(configuration) == 2
        assert relaxed.bad_ball_count(configuration) == 4

    def test_radius_and_name_exposed(self):
        relaxed = eps_slack(MinimalDominatingSet(), 0.25)
        assert relaxed.radius == MinimalDominatingSet.radius
        assert "eps=0.25" in relaxed.name

    def test_eps_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            EpsSlackLanguage(ProperColoring(3), 1.5)
        with pytest.raises(ValueError):
            EpsSlackLanguage(ProperColoring(3), -0.1)


class TestRelaxationHierarchy:
    def test_base_subset_of_resilient_subset_of_matching_slack(self):
        """L ⊆ L_f ⊆ ε-slack(L) whenever ε·n ≥ f, on a fixed instance size."""
        base = ProperColoring(3)
        n = 30
        f = 4
        eps = f / n
        resilient = f_resilient(base, f)
        slack = eps_slack(base, eps)
        for conflicts in range(0, 4):
            configuration = cycle_coloring_with_conflicts(n, conflicts)
            if base.contains(configuration):
                assert resilient.contains(configuration)
            if resilient.contains(configuration):
                assert slack.contains(configuration)
