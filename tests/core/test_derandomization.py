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

from repro.algorithms.coloring.random_coloring import RandomColoringConstructor
from repro.core.construction import BallConstructor
from repro.core.decision import (
    LocalCheckerDecider,
    ProgramDecider,
    RandomizedDecider,
    ResilientDecider,
)
from repro.core.derandomization import (
    AmplificationReport,
    DerandomizationParameters,
    _far_masks,
    amplification_disjoint_union,
    amplification_glued,
    choose_anchor,
    diameter_requirement,
    far_acceptance_probability,
    find_hard_instances,
    mu_from_guarantee,
    nu_connected,
    nu_disconnected,
)
from repro.core.lcl import PredicateLCL, ProperColoring
from repro.engine.compiler import all_of, coin
from repro.graphs.families import cycle_network, path_network
from repro.local.network import Network
from repro.harness.experiments import _toy_faulty_constructor, _toy_noisy_decider
from repro.local.algorithm import FunctionBallAlgorithm
from repro.obs import TraceRecorder, use_recorder
from tests.conftest import fallback_counters

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

    def test_far_acceptance_reads_the_votes_beyond_the_distance(self):
        # A radius-0 checker that rejects exactly the path's first node: the
        # trials accept far from that node at distance 0, and never far
        # from the other end at distance 2.
        network = path_network(7, ids="consecutive")
        nodes = network.nodes()
        decider = LocalCheckerDecider(
            PredicateLCL(
                is_bad=lambda ball: ball.center == nodes[0], radius=0, name="end-rejects"
            )
        )
        for node, distance, expected in ((nodes[0], 0, 1.0), (nodes[6], 2, 0.0)):
            probability = far_acceptance_probability(
                perfect_constructor(), decider, network, node, distance, trials=5
            )
            assert probability == expected

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


class TestFarMasks:
    """The far-node masks: node ``v`` is in ``u``'s mask at ``distance``
    exactly when ``dist(u, v) > distance`` — the nodes whose votes the
    "accepts far from u" event of Claim 4 reads."""

    def test_rejection_at_exactly_the_cutoff_is_not_far(self):
        network = path_network(7, ids="consecutive")
        nodes = network.nodes()
        (at_three,) = _far_masks(network, [nodes[0]], 3)
        (at_two,) = _far_masks(network, [nodes[0]], 2)
        # nodes[3] sits at distance exactly 3 from nodes[0].
        assert not at_three[3] and at_two[3]
        assert at_three.tolist() == [False] * 4 + [True] * 3

    def test_unreachable_node_counts_as_far(self):
        network = Network.from_edges(["a", "b", "island"], [("a", "b")])
        (mask,) = _far_masks(network, ["a"], 10**6)
        assert mask.tolist() == [False, False, True]
        # From the island's own side, the other component is the far part.
        (mask,) = _far_masks(network, ["island"], 0)
        assert mask.tolist() == [True, True, False]

    def test_queried_node_itself_is_never_far(self):
        network = path_network(7, ids="consecutive")
        nodes = network.nodes()
        for distance in (0, 5):
            (mask,) = _far_masks(network, [nodes[0]], distance)
            assert not mask[0]
        assert _far_masks(network, [nodes[0]], 0)[0].tolist() == [False] + [True] * 6

    def test_one_mask_per_candidate_in_node_order(self):
        network = cycle_network(6, ids="consecutive")
        nodes = network.nodes()
        masks = _far_masks(network, nodes[:3], 1)
        assert len(masks) == 3
        for candidate, mask in zip(nodes[:3], masks):
            distances = network.distances_from(candidate)
            assert mask.tolist() == [distances[node] > 1 for node in nodes]


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


# --------------------------------------------------------------------------- #
# The engine= contract of the derandomization estimators
# --------------------------------------------------------------------------- #
class _BeyondTheIRDecider(ProgramDecider):
    """A radius-0 decider whose vote needs 80 sequential draws, more than
    the vote-program IR can express, so it never fuses onto a construction."""

    name = "beyond-the-ir"
    radius = 0

    def vote_program(self, ball):
        return all_of(*[coin(0.999)] * 80)


def _instances(count, size=6):
    return [cycle_network(size, id_start=1 + 1000 * i) for i in range(count)]


class TestAutoFallbacks:
    """Under ``auto`` every estimate runs fused on the engine or on the
    reference loop; the result equals ``engine="off"`` and each fallback is
    counted with its reason."""

    @staticmethod
    def _fallbacks_of(estimate):
        """Run ``estimate(engine)`` on both engines, check they agree, and
        return the ``engine.fallback.*`` counts of the ``auto`` run."""
        off = estimate("off")
        with use_recorder(TraceRecorder()) as recorder:
            auto = estimate("auto")
        assert auto == off
        return fallback_counters(recorder.counters)

    def test_decider_beyond_the_ir_falls_back_in_every_estimator(self):
        constructor = _toy_faulty_constructor(0.1)
        decider = _BeyondTheIRDecider()
        network = cycle_network(6)
        common = dict(trials=40, seed=3)

        def far(engine):
            return far_acceptance_probability(
                constructor, decider, network, network.nodes()[0], 1, engine=engine, **common
            )

        def anchor(engine):
            return choose_anchor(constructor, decider, network, 1, engine=engine, **common)

        def disjoint(engine):
            return amplification_disjoint_union(
                constructor, decider, ALL_ZEROS, _instances(2), beta=0.1, p=0.8,
                engine=engine, **common,
            )

        def glued(engine):
            return amplification_glued(
                constructor, decider, ALL_ZEROS, _instances(2), beta=0.1, p=0.8,
                t=0, t_prime=0, engine=engine, **common,
            )

        assert self._fallbacks_of(far) == {"engine.fallback.beyond_ir": 1}
        assert self._fallbacks_of(anchor) == {"engine.fallback.beyond_ir": 1}
        # The union and each of its two instances: three estimates.
        assert self._fallbacks_of(disjoint) == {"engine.fallback.beyond_ir": 3}
        # Two anchor choices, then the glued graph and its two instances.
        assert self._fallbacks_of(glued) == {"engine.fallback.beyond_ir": 5}

    def test_non_fusing_decider_counts_one_declined_fusion(self):
        """A radius-1 decider does not fuse onto a compilable constructor:
        the whole estimate runs on the reference loop, counted once."""
        constructor = RandomColoringConstructor(3)
        decider = ResilientDecider(ProperColoring(3), f=1)
        network = cycle_network(12, ids="consecutive")

        def far(engine):
            return far_acceptance_probability(
                constructor, decider, network, network.nodes()[0], 2,
                trials=60, seed=4, engine=engine,
            )

        assert self._fallbacks_of(far) == {"engine.fallback.declined": 1}

    def test_constructor_without_program_counts_no_program(self):
        network = cycle_network(8)

        def far(constructor):
            return lambda engine: far_acceptance_probability(
                constructor, noisy_decider(), network, network.nodes()[0], 1,
                trials=40, seed=5, engine=engine,
            )

        assert self._fallbacks_of(far(faulty_constructor(0.2))) == {
            "engine.fallback.no_program": 1
        }
        # A deterministic constructor has no coins to batch: not a fallback.
        assert self._fallbacks_of(far(perfect_constructor())) == {}

    def test_removed_engine_value_raises(self):
        network = cycle_network(6)
        with pytest.raises(ValueError):
            far_acceptance_probability(
                _toy_faulty_constructor(0.1), noisy_decider(), network, network.nodes()[0],
                1, trials=10, engine="exact",
            )

    @pytest.mark.parametrize("engine", ["auto", "off"])
    def test_amplification_rejects_zero_trials(self, engine):
        """Every estimator rejects ``trials=0`` with the same message, on
        both engines (the fused pass and the reference loop alike)."""
        instances = _instances(2)
        common = dict(beta=0.1, p=0.8, trials=0, engine=engine)
        constructor, decider = _toy_faulty_constructor(0.1), _toy_noisy_decider(0.8)
        with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
            amplification_disjoint_union(constructor, decider, ALL_ZEROS, instances, **common)
        with pytest.raises(ValueError, match="trials must be at least 1, got 0"):
            amplification_glued(
                constructor, decider, ALL_ZEROS, instances, t=0, t_prime=0,
                anchors=[network.nodes()[0] for network in instances], **common,
            )
