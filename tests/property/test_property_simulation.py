"""Property-based tests on the simulator, the deciders' fast paths, and the
randomized baseline algorithms."""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.algorithms.mis.luby import LubyMISConstructor
from repro.core.decision import AmosDecider, ResilientDecider
from repro.core.languages import SELECTED, Configuration
from repro.core.lcl import MaximalIndependentSet, ProperColoring
from repro.graphs.families import cycle_network
from repro.graphs.random_graphs import bounded_degree_gnp_network
from repro.local.algorithm import FunctionBallAlgorithm, ball_algorithm_to_local
from repro.local.randomness import TapeFactory
from repro.local.simulator import Simulator, run_ball_algorithm

SETTINGS = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestSimulatorProperties:
    @SETTINGS
    @given(
        n=st.integers(min_value=4, max_value=30),
        p=st.floats(min_value=0.02, max_value=0.3),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_lift_agreement_on_random_graphs(self, n, p, seed):
        """Ball algorithms and their message-passing lifts agree on arbitrary
        bounded-degree graphs — the defining equivalence of the LOCAL model."""
        network = bounded_degree_gnp_network(n, p, max_degree=4, seed=seed)
        algorithm = FunctionBallAlgorithm(
            lambda ball: (len(ball), ball.graph.number_of_edges()),
            radius=2,
            name="size-signature",
        )
        direct = run_ball_algorithm(network, algorithm)
        lifted = Simulator(network).run(ball_algorithm_to_local(algorithm))
        assert {network.identity(v): out for v, out in direct.items()} == {
            network.identity(v): out for v, out in lifted.outputs.items()
        }

    @SETTINGS
    @given(n=st.integers(min_value=4, max_value=40), seed=st.integers(min_value=0, max_value=500))
    def test_same_seed_same_execution(self, n, seed):
        network = cycle_network(n)
        algorithm = FunctionBallAlgorithm(
            lambda ball, tape: tape.randint(0, 10**6), radius=1, randomized=True
        )
        a = run_ball_algorithm(network, algorithm, tape_factory=TapeFactory(seed))
        b = run_ball_algorithm(network, algorithm, tape_factory=TapeFactory(seed))
        assert a == b


class TestDeciderFastPathProperties:
    @SETTINGS
    @given(
        n=st.integers(min_value=6, max_value=24),
        selected=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=200),
    )
    def test_acceptance_probability_consistent_with_decide(self, n, selected, seed):
        """The ball-caching fast path must agree, trial by trial, with the
        plain decide() execution under the same tape factory."""
        network = cycle_network(n)
        nodes = network.nodes()
        configuration = Configuration(
            network,
            {node: (SELECTED if index < selected else "") for index, node in enumerate(nodes)},
        )
        decider = AmosDecider()
        trials = 20
        slow = 0
        for trial in range(trials):
            factory = TapeFactory(seed, salt=decider.name, trial=trial)
            slow += int(decider.decide(configuration, tape_factory=factory).accepted)
        fast = decider.acceptance_probability(configuration, trials=trials, seed=seed)
        assert fast == slow / trials

    @SETTINGS
    @given(f=st.integers(min_value=1, max_value=5), seed=st.integers(min_value=0, max_value=100))
    def test_resilient_decider_never_rejects_clean_configurations(self, f, seed):
        network = cycle_network(12)
        colors = {node: (index % 3) + 1 for index, node in enumerate(network.nodes())}
        configuration = Configuration(network, colors)
        decider = ResilientDecider(ProperColoring(3), f=f)
        outcome = decider.decide(configuration, tape_factory=TapeFactory(seed))
        assert outcome.accepted


class TestRandomizedBaselineProperties:
    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_luby_mis_always_valid(self, seed):
        network = bounded_degree_gnp_network(24, 0.12, max_degree=5, seed=seed % 7)
        constructor = LubyMISConstructor()
        configuration = constructor.configuration(network, tape_factory=TapeFactory(seed))
        assert MaximalIndependentSet().contains(configuration)
