"""Tests for the workload helpers of the experiment harness
(repro.harness.experiments)."""

from __future__ import annotations

import pytest

from repro.api import Session
from repro.core.languages import Amos
from repro.core.lcl import ProperColoring
from repro.harness import experiments
from repro.harness.experiments import (
    _amos_configuration,
    _cycle_coloring_with_bad_balls,
    _cycle_coloring_with_monochromatic_run,
    _toy_all_zeros_language,
    _toy_faulty_constructor,
    _toy_noisy_decider,
)
from repro.graphs.families import cycle_network, path_network
from repro.harness.registry import ParameterValueError
from repro.local.randomness import TapeFactory


class TestAmosConfigurations:
    @pytest.mark.parametrize("selected", [0, 1, 2, 3, 5])
    def test_exact_number_of_selected_nodes(self, selected):
        network = cycle_network(20)
        configuration = _amos_configuration(network, selected)
        assert len(configuration.selected_nodes()) == selected

    def test_membership_follows_count(self):
        network = path_network(10)
        assert Amos().contains(_amos_configuration(network, 1))
        assert not Amos().contains(_amos_configuration(network, 2))

    def test_selected_nodes_are_spread_apart(self):
        network = cycle_network(30)
        configuration = _amos_configuration(network, 3)
        selected = configuration.selected_nodes()
        distances = [
            configuration.network.distances_from(selected[i])[selected[j]]
            for i in range(3)
            for j in range(i + 1, 3)
        ]
        assert min(distances) >= 5

    def test_tiny_graph_still_gets_requested_count(self):
        network = path_network(4)
        configuration = _amos_configuration(network, 3)
        assert len(configuration.selected_nodes()) == 3


class TestPlantedBadBalls:
    @pytest.mark.parametrize("bad", [0, 2, 4, 8])
    def test_exact_bad_ball_count(self, bad):
        configuration = _cycle_coloring_with_bad_balls(cycle_network(24), bad)
        assert ProperColoring(3).violation_count(configuration) == bad

    def test_odd_bad_ball_count_rejected(self):
        with pytest.raises(ParameterValueError, match="even"):
            _cycle_coloring_with_bad_balls(cycle_network(24), 3)

    def test_cycle_length_must_be_divisible_by_three(self):
        with pytest.raises(ParameterValueError, match="divisible by 3"):
            _cycle_coloring_with_bad_balls(cycle_network(20), 2)

    def test_at_most_two_thirds_of_the_cycle(self):
        configuration = _cycle_coloring_with_bad_balls(cycle_network(24), 16)
        assert ProperColoring(3).violation_count(configuration) == 16
        with pytest.raises(ParameterValueError, match="2n/3 = 16"):
            _cycle_coloring_with_bad_balls(cycle_network(24), 18)

    def test_monochromatic_run_limits(self):
        with pytest.raises(ParameterValueError, match="divisible by 3"):
            _cycle_coloring_with_monochromatic_run(cycle_network(20), 4)
        with pytest.raises(ParameterValueError, match="n - 3 = 21"):
            _cycle_coloring_with_monochromatic_run(cycle_network(24), 22)

    @pytest.mark.parametrize(
        "overrides", [dict(n=24, f_values=[8]), dict(n=12, f_values=[4]), dict(n=25)]
    )
    def test_session_reports_unplantable_rows_as_parameter_errors(self, overrides):
        # Before the typed errors these raised a bare IndexError or
        # ValueError, which the service retries as a transient crash.
        with pytest.raises(ParameterValueError, match="cannot plant"):
            Session(cache=None).run("E5", preset="quick", **overrides)


class TestOneCyclePerRun:
    """E2, E5 and E7 build each cycle once and share it between their rows."""

    @pytest.fixture
    def cycles_built(self, monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(args)
            return cycle_network(*args, **kwargs)

        monkeypatch.setattr(experiments, "cycle_network", counting)
        return built

    def test_fused_e2_sweep_builds_one_cycle_per_point(self, cycles_built):
        grid = {"eps_values": [[0.75], [0.7], [0.65]]}
        report = Session(cache=None).sweep(
            "E2", grid, sizes=[18], trials=25, decider_trials=40, seed=0
        )
        assert report.plan is not None and report.plan.has_fusion
        assert len(report.reports) == len(cycles_built) == 3

    @pytest.mark.parametrize("experiment", ["E5", "E7"])
    def test_one_cycle_per_run(self, experiment, cycles_built):
        report = Session(cache=None).run(experiment, preset="quick")
        assert report.result.verdict == "pass"
        assert len(cycles_built) == 1


class TestToyDerandomizationIngredients:
    def test_language_counts_nonzero_outputs(self):
        language = _toy_all_zeros_language()
        network = cycle_network(6)
        from repro.core.languages import Configuration

        outputs = {node: 0 for node in network.nodes()}
        assert language.contains(Configuration(network, outputs))
        outputs[network.nodes()[0]] = 1
        assert language.violation_count(Configuration(network, outputs)) == 1

    def test_constructor_corruption_rate(self):
        constructor = _toy_faulty_constructor(0.5)
        network = cycle_network(60)
        outputs = constructor.construct(network, tape_factory=TapeFactory(3))
        ones = sum(outputs.values())
        assert 15 <= ones <= 45  # around half, very generous band

    def test_decider_guarantee_attribute(self):
        decider = _toy_noisy_decider(0.75)
        assert decider.guarantee == 0.75
        assert decider.randomized
