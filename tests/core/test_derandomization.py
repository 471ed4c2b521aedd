"""Tests for the derandomization machinery (repro.core.derandomization).

The toy setting used throughout: the language **all-zeros** (every node must
output 0 — an LCL of radius 0), a deliberately faulty Monte-Carlo constructor
(every node outputs 1 with probability q, independently), and a randomized
decider that rejects a non-zero node with probability 0.8.  All the
probabilities of the proof are then known in closed form, so the empirical
estimates can be checked against both the exact values and the proof's
bounds.
"""

from __future__ import annotations

import pytest

from repro.core.construction import BallConstructor
from repro.core.decision import LocalCheckerDecider, RandomizedDecider
from repro.core.derandomization import (
    AmplificationReport,
    DerandomizationParameters,
    amplification_disjoint_union,
    amplification_glued,
    beta_from_algorithm_count,
    choose_anchor,
    diameter_requirement,
    far_acceptance_probability,
    find_hard_instances,
    mu_from_guarantee,
    nu_connected,
    nu_disconnected,
)
from repro.core.lcl import PredicateLCL
from repro.graphs.families import cycle_network
from repro.local.algorithm import FunctionBallAlgorithm

# --------------------------------------------------------------------------- #
# The toy language, constructor, and decider
# --------------------------------------------------------------------------- #
ALL_ZEROS = PredicateLCL(
    is_bad=lambda ball: ball.center_output() != 0, radius=0, name="all-zeros"
)

#: Per-node corruption probability of the faulty constructor.
Q = 0.05
#: Rejection probability of the randomized decider on a bad (non-zero) node.
REJECT_PROBABILITY = 0.8


def faulty_constructor(q: float = Q) -> BallConstructor:
    return BallConstructor(
        FunctionBallAlgorithm(
            lambda ball, tape: 1 if tape.bernoulli(q) else 0,
            radius=0,
            randomized=True,
            name=f"faulty-all-zeros(q={q})",
        )
    )


def perfect_constructor() -> BallConstructor:
    return BallConstructor(
        FunctionBallAlgorithm(lambda ball: 0, radius=0, name="perfect-all-zeros")
    )


def noisy_decider() -> RandomizedDecider:
    return RandomizedDecider(
        rule=lambda ball, tape: True
        if ball.center_output() == 0
        else not tape.bernoulli(REJECT_PROBABILITY),
        radius=0,
        guarantee=REJECT_PROBABILITY,
        name="noisy-all-zeros-decider",
    )


def instance_failure_probability(n: int, q: float = Q) -> float:
    """Exact probability that the faulty constructor fails on an n-node instance."""
    return 1.0 - (1.0 - q) ** n


class TestParameterFormulas:
    def test_beta_from_count(self):
        assert beta_from_algorithm_count(27) == pytest.approx(1 / 27)
        with pytest.raises(ValueError):
            beta_from_algorithm_count(0)

    @pytest.mark.parametrize("p,expected", [(1.0, 2), (0.9, 2), (0.75, 3), (0.7, 3), (0.6, 6)])
    def test_mu(self, p, expected):
        assert mu_from_guarantee(p) == expected

    def test_mu_strict_inequality_always_holds(self):
        for p in (0.51, 0.55, 0.6, 2 / 3, 0.75, 0.8, 0.9, 0.99, 1.0):
            mu = mu_from_guarantee(p)
            assert mu * (2 * p - 1) > 1.0 - 1e-12

    def test_mu_rejects_half(self):
        with pytest.raises(ValueError):
            mu_from_guarantee(0.5)

    def test_diameter_requirement(self):
        assert diameter_requirement(mu=3, t=2, t_prime=1) == 18
        with pytest.raises(ValueError):
            diameter_requirement(0, 1, 1)

    def test_nu_disconnected_makes_bound_small_enough(self):
        r, p, beta = 0.9, 0.8, 0.25
        nu = nu_disconnected(r, p, beta)
        assert ((1 - beta * p) ** nu) / p < r
        # One fewer instance would not be enough (up to the ceiling slack of 1).
        assert ((1 - beta * p) ** max(1, nu - 2)) / p >= r or nu <= 2

    def test_nu_connected_makes_bound_small_enough(self):
        r, p, beta = 0.9, 0.8, 0.2
        mu = mu_from_guarantee(p)
        nu_prime = nu_connected(r, p, beta, mu)
        per_instance = 1 - beta * (1 - p) / mu
        assert (per_instance**nu_prime) / p < r

    def test_nu_connected_without_mu_derives_it(self):
        assert nu_connected(0.9, 0.8, 0.2) == nu_connected(0.9, 0.8, 0.2, mu_from_guarantee(0.8))

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            nu_disconnected(0.0, 0.8, 0.2)
        with pytest.raises(ValueError):
            nu_disconnected(0.9, 0.4, 0.2)
        with pytest.raises(ValueError):
            nu_disconnected(0.9, 0.8, 0.0)
        with pytest.raises(ValueError):
            nu_disconnected(1.0, 1.0, 0.5)  # r·p must stay below 1


class TestDerandomizationParameters:
    def test_derived_quantities(self):
        params = DerandomizationParameters(r=0.9, p=0.8, beta=0.25, t=1, t_prime=2)
        assert params.mu == 2
        assert params.required_diameter == 2 * 2 * 3
        assert params.nu == nu_disconnected(0.9, 0.8, 0.25)
        assert params.nu_prime == nu_connected(0.9, 0.8, 0.25, 2)
        assert params.disconnected_bound() < 0.9
        assert params.connected_bound() < 0.9
        assert 0 < params.far_acceptance_threshold() < 1

    def test_validation(self):
        with pytest.raises(ValueError):
            DerandomizationParameters(r=0.9, p=0.8, beta=0.2, t=-1, t_prime=0)


class TestHardInstances:
    def test_faulty_constructor_yields_hard_instances(self):
        candidates = [cycle_network(10, id_start=1 + 100 * i) for i in range(4)]
        beta = 0.5 * instance_failure_probability(10)
        hard = find_hard_instances(
            faulty_constructor(), ALL_ZEROS, candidates, beta=beta, count=3, trials=300, seed=1
        )
        assert len(hard) == 3
        for instance in hard:
            assert instance.estimated_failure >= beta
            assert instance.estimated_failure == pytest.approx(
                instance_failure_probability(10), abs=0.1
            )

    def test_perfect_constructor_yields_none(self):
        candidates = [cycle_network(8)]
        with pytest.raises(RuntimeError):
            find_hard_instances(
                perfect_constructor(), ALL_ZEROS, candidates, beta=0.1, count=1, trials=10
            )


class TestFarAcceptance:
    def test_perfect_constructor_always_accepted_far(self):
        network = cycle_network(12)
        probability = far_acceptance_probability(
            perfect_constructor(),
            LocalCheckerDecider(ALL_ZEROS),
            network,
            network.nodes()[0],
            distance=0,
            trials=20,
        )
        assert probability == 1.0

    def test_faulty_constructor_far_acceptance_below_one(self):
        network = cycle_network(20)
        probability = far_acceptance_probability(
            faulty_constructor(0.3),
            LocalCheckerDecider(ALL_ZEROS),
            network,
            network.nodes()[0],
            distance=0,
            trials=200,
            seed=2,
        )
        # 19 "far" nodes each corrupt with probability 0.3: acceptance far
        # from u is 0.7^19, essentially zero.
        assert probability < 0.2

    def test_choose_anchor_returns_node_and_probability(self):
        network = cycle_network(10)
        anchor, probability = choose_anchor(
            faulty_constructor(),
            LocalCheckerDecider(ALL_ZEROS),
            network,
            distance=0,
            candidates=network.nodes()[:3],
            trials=50,
            seed=3,
        )
        assert anchor in network.nodes()[:3]
        assert 0.0 <= probability <= 1.0


class TestAmplification:
    def make_hard_instances(self, count, size=10):
        return [cycle_network(size, id_start=1 + 1000 * i) for i in range(count)]

    def test_disjoint_union_acceptance_decays_and_respects_bound(self):
        p = REJECT_PROBABILITY
        size = 10
        beta = instance_failure_probability(size)
        reports = []
        for nu in (1, 3, 6):
            report = amplification_disjoint_union(
                faulty_constructor(),
                noisy_decider(),
                ALL_ZEROS,
                self.make_hard_instances(nu, size),
                beta=beta,
                p=p,
                trials=400,
                seed=5,
            )
            reports.append(report)
            # The proof's bound (1 − βp)^ν holds up to Monte-Carlo noise.
            assert report.acceptance_estimate <= report.theoretical_bound + 0.07
            assert report.network_size == nu * size
            # Every per-instance failure estimate is at least β (up to noise).
            assert all(f >= beta - 0.1 for f in report.per_instance_failure)
        acceptances = [report.acceptance_estimate for report in reports]
        assert acceptances[0] > acceptances[1] > acceptances[2]

    def test_disjoint_union_acceptance_matches_exact_value(self):
        # Exact acceptance: every node independently accepts with probability
        # (1 − q) + q(1 − reject) — closed form available for this toy.
        size = 10
        nu = 4
        per_node = (1 - Q) + Q * (1 - REJECT_PROBABILITY)
        exact = per_node ** (size * nu)
        report = amplification_disjoint_union(
            faulty_constructor(),
            noisy_decider(),
            ALL_ZEROS,
            self.make_hard_instances(nu, size),
            beta=instance_failure_probability(size),
            p=REJECT_PROBABILITY,
            trials=600,
            seed=6,
        )
        assert report.acceptance_estimate == pytest.approx(exact, abs=0.06)

    def test_glued_amplification_connected_and_bounded(self):
        p = REJECT_PROBABILITY
        size = 10
        beta = instance_failure_probability(size)
        instances = self.make_hard_instances(4, size)
        report = amplification_glued(
            faulty_constructor(),
            noisy_decider(),
            ALL_ZEROS,
            instances,
            beta=beta,
            p=p,
            t=0,
            t_prime=0,
            anchors=[network.nodes()[0] for network in instances],
            trials=300,
            seed=7,
        )
        assert isinstance(report, AmplificationReport)
        # Gluing adds 2 nodes per instance.
        assert report.network_size == 4 * size + 8
        assert report.acceptance_estimate <= report.theoretical_bound + 0.07
        # Glued acceptance can only be lower than the disjoint-union bound
        # because the extra subdivision nodes can also be corrupted.
        assert report.membership_estimate <= report.theoretical_bound + 0.07

    def test_glued_amplification_chooses_anchors_when_missing(self):
        instances = self.make_hard_instances(2, 6)
        report = amplification_glued(
            faulty_constructor(),
            noisy_decider(),
            ALL_ZEROS,
            instances,
            beta=instance_failure_probability(6),
            p=REJECT_PROBABILITY,
            t=0,
            t_prime=0,
            trials=100,
            seed=8,
        )
        assert report.nu == 2

    def test_glued_needs_two_instances(self):
        with pytest.raises(ValueError):
            amplification_glued(
                faulty_constructor(),
                noisy_decider(),
                ALL_ZEROS,
                self.make_hard_instances(1),
                beta=0.3,
                p=0.8,
                t=0,
                t_prime=0,
            )

    def test_disjoint_needs_one_instance(self):
        with pytest.raises(ValueError):
            amplification_disjoint_union(
                faulty_constructor(), noisy_decider(), ALL_ZEROS, [], beta=0.3, p=0.8
            )
