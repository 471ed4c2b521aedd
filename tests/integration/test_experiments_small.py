"""Integration tests: every experiment of the harness, at toy scale.

These exercise the same code paths as the full benchmark harness
(``benchmarks/``), with workloads small enough to run in seconds.  Where a
verdict is statistically robust even at toy scale we assert
``matches_paper``; where the paper's claim only emerges at larger sizes (E2's
concentration, for instance) we assert the structural properties of the rows
instead.
"""

from __future__ import annotations

import pytest

from repro.harness.experiments import (
    ALL_EXPERIMENTS,
    experiment_e1_amos_decider,
    experiment_e2_eps_slack_random_coloring,
    experiment_e3_resilient_lower_bound,
    experiment_e4_logstar_coloring,
    experiment_e5_resilient_decider,
    experiment_e6_error_amplification,
    experiment_e7_separations,
    experiment_e8_slack_vs_resilient,
    experiment_e9_far_acceptance,
    experiment_e10_baselines,
)
from repro.harness.reporting import render_experiment


class TestExperimentRegistry:
    def test_all_ten_experiments_registered(self):
        assert set(ALL_EXPERIMENTS) == {f"E{i}" for i in range(1, 11)}

    def test_registry_points_to_the_module_functions(self):
        assert ALL_EXPERIMENTS["E1"] is experiment_e1_amos_decider
        assert ALL_EXPERIMENTS["E10"] is experiment_e10_baselines


class TestE1Amos:
    def test_small_scale_matches(self):
        result = experiment_e1_amos_decider(sizes=(9,), trials=600, seed=1)
        assert result.matches_paper
        assert len(result.rows) == 2 * 1 * 4  # two graph kinds, one size, four counts
        assert render_experiment(result)  # renders without error


class TestE2EpsSlack:
    def test_small_scale_rows_and_mean_fraction(self):
        result = experiment_e2_eps_slack_random_coloring(
            sizes=(30, 90), eps_values=(0.75,), trials=80, decider_trials=400, seed=2
        )
        construction_rows = [row for row in result.rows if "scenario" not in row]
        decider_rows = [row for row in result.rows if "scenario" in row]
        assert len(construction_rows) == 2
        for row in construction_rows:
            assert 0.0 <= row["success_probability"] <= 1.0
            assert abs(row["mean_bad_fraction"] - row["expected_bad_fraction"]) < 0.15
        # With a generous slack of 0.75 even small cycles succeed almost surely.
        assert all(row["success_probability"] > 0.8 for row in construction_rows)
        # The engine-backed decider cross-check: one yes and one no instance
        # per eps, each matching the closed form p^{|F(G)|}.
        assert {row["scenario"] for row in decider_rows} == {"decider/yes", "decider/no"}
        for row in decider_rows:
            assert abs(row["decider_acceptance"] - row["theoretical_acceptance"]) < 0.08
            assert row["success_probability"] > 0.5
            assert row["member"] == (row["bad_balls"] <= row["allowed_bad"])

    def test_default_verdict_criterion_applies_to_largest_size_only(self):
        result = experiment_e2_eps_slack_random_coloring(
            sizes=(60, 120), eps_values=(0.75,), trials=80, decider_trials=400, seed=3
        )
        assert result.matches_paper

    def test_exact_engine_is_bit_identical_to_off(self):
        kwargs = dict(
            sizes=(30, 60), eps_values=(0.7,), trials=40, decider_trials=120, seed=11
        )
        off = experiment_e2_eps_slack_random_coloring(engine="off", **kwargs)
        exact = experiment_e2_eps_slack_random_coloring(engine="exact", **kwargs)
        assert off.rows == exact.rows
        assert off.matches_paper == exact.matches_paper

    @pytest.mark.parametrize(
        "no_accepts, no_theory, green",
        [
            # Agrees with its closed form, and 1/2 success over 30 trials is
            # no evidence that the true success (about 0.59) is at most 1/2.
            (15, 0.408, True),
            # Agrees with its closed form, but success 5/30 is evidence.
            (25, 0.6, False),
            # Success 1/2 again, but far from its closed form.
            (15, 0.9, False),
        ],
    )
    def test_decider_row_turns_red_only_on_evidence(
        self, monkeypatch, no_accepts, no_theory, green
    ):
        """The decider rows at ``decider_trials=30``, with the decider's
        acceptance and closed form planted: yes-instances accept surely, the
        no-instance accepts in ``no_accepts`` of 30 trials."""
        import repro.harness.experiments as experiments

        class PlantedDecider(experiments.AmplifiedResilientDecider):
            def theoretical_acceptance(self, bad_ball_count):
                return 1.0 if bad_ball_count <= self.f else no_theory

            def acceptance_probability(self, configuration, trials=200, seed=0, engine="auto"):
                member = self.language.violation_count(configuration) <= self.f
                return 1.0 if member else no_accepts / trials

        monkeypatch.setattr(experiments, "AmplifiedResilientDecider", PlantedDecider)
        result = experiment_e2_eps_slack_random_coloring(
            sizes=(240,), eps_values=(0.8,), trials=200, decider_trials=30, seed=0
        )
        no_rows = [row for row in result.rows if row.get("scenario") == "decider/no"]
        assert [row["decider_acceptance"] for row in no_rows] == [no_accepts / 30]
        assert result.matches_paper is green

    def test_infeasible_no_instance_is_skipped_not_mislabelled(self):
        """When the cycle cannot hold more than ⌊εn⌋ bad balls, the decider
        stage must drop the no-instance instead of silently testing a second
        yes-instance under the 'decider/no' label."""
        result = experiment_e2_eps_slack_random_coloring(
            sizes=(12,), eps_values=(0.75,), trials=30, decider_trials=100, seed=5
        )
        decider_rows = [row for row in result.rows if "scenario" in row]
        assert {row["scenario"] for row in decider_rows} == {"decider/yes"}
        assert all(row["member"] for row in decider_rows)


class TestE3ResilientLowerBound:
    def test_small_scale_matches(self):
        result = experiment_e3_resilient_lower_bound(
            n=15, radii=(0, 1), f_values=(1, 2), trials=400
        )
        assert result.matches_paper
        radius_one = [row for row in result.rows if row["radius"] == 1][0]
        assert radius_one["algorithms"] == 27
        assert radius_one["min_bad_balls"] > 2
        assert radius_one["monochromatic_core"] is True
        # The engine-run amplified decider rejects the best achievable output.
        for row in result.rows:
            for f in (1, 2):
                assert row[f"decider_acceptance_f_{f}"] < 0.5

    def test_exact_engine_is_bit_identical_to_off(self):
        kwargs = dict(n=15, radii=(0, 1), f_values=(1, 2), trials=150, seed=12)
        off = experiment_e3_resilient_lower_bound(engine="off", **kwargs)
        exact = experiment_e3_resilient_lower_bound(engine="exact", **kwargs)
        assert off.rows == exact.rows
        assert off.matches_paper == exact.matches_paper


class TestE4LogStar:
    def test_small_scale_matches(self):
        result = experiment_e4_logstar_coloring(sizes=(8, 64, 1024), seed=4)
        assert result.matches_paper
        rounds = result.column("rounds")
        assert rounds[-1] - rounds[0] <= 3
        assert all(row["proper"] for row in result.rows)


class TestE5ResilientDecider:
    def test_small_scale_matches(self):
        result = experiment_e5_resilient_decider(f_values=(1, 2), n=24, trials=800, seed=5)
        assert result.matches_paper
        for row in result.rows:
            assert abs(row["acceptance"] - row["theoretical_acceptance"]) < 0.08
            assert row["success_probability"] > 0.5


class TestE6Amplification:
    def test_small_scale_matches(self):
        result = experiment_e6_error_amplification(
            q=0.08, p=0.8, instance_size=8, nu_values=(1, 3), trials=150, seed=6
        )
        assert result.matches_paper
        acceptances = [row["union_acceptance"] for row in result.rows[:-1]]
        assert acceptances == sorted(acceptances, reverse=True)
        # The final row applies Eq. (3) and must push membership below r = 0.5.
        assert result.rows[-1]["union_membership"] < 0.5

    def test_exact_engine_is_bit_identical_to_off(self):
        for seed in (14, 10_014):
            kwargs = dict(
                q=0.08, p=0.8, instance_size=8, nu_values=(1, 3), trials=60, seed=seed
            )
            off = experiment_e6_error_amplification(engine="off", **kwargs)
            exact = experiment_e6_error_amplification(engine="exact", **kwargs)
            assert off.rows == exact.rows
            assert off.matches_paper == exact.matches_paper


class TestE7Separations:
    def test_small_scale_matches(self):
        result = experiment_e7_separations(n=15, deterministic_radius=1, trials=600, seed=7)
        assert result.matches_paper
        by_language = {row["language"]: row for row in result.rows}
        assert by_language["3-coloring"]["decidable_in_O1"] is True
        assert by_language["3-coloring"]["constructible_in_O1"] is False
        assert by_language["majority"]["constructible_in_O1"] is True
        assert by_language["amos"]["decidable_in_O1"] is False
        # The multi-draw (amplified) amos row rides along with the same verdict.
        amplified = [row for row in result.rows if "amplified" in row["language"]]
        assert len(amplified) == 1 and amplified[0]["decidable_in_O1"] is False

    def test_exact_engine_is_bit_identical_to_off(self):
        kwargs = dict(n=15, deterministic_radius=1, trials=200, seed=13)
        off = experiment_e7_separations(engine="off", **kwargs)
        exact = experiment_e7_separations(engine="exact", **kwargs)
        assert off.rows == exact.rows
        assert off.matches_paper == exact.matches_paper


class TestE8SlackVsResilient:
    def test_small_scale_matches(self):
        result = experiment_e8_slack_vs_resilient(
            n=15, eps=0.75, f_values=(1, 2), trials=120, seed=8
        )
        assert result.matches_paper
        slack_rows = [row for row in result.rows if row["relaxation"].startswith("eps")]
        resilient_rows = [row for row in result.rows if row["relaxation"].startswith("f-")]
        assert all(row["success_probability"] > 0.5 for row in slack_rows)
        assert all(not row["solvable_in_O1"] for row in resilient_rows)

    def test_exact_engine_is_bit_identical_to_off(self):
        for seed in (15, 10_015):
            kwargs = dict(n=15, eps=0.75, f_values=(1, 2), trials=60, seed=seed)
            off = experiment_e8_slack_vs_resilient(engine="off", **kwargs)
            exact = experiment_e8_slack_vs_resilient(engine="exact", **kwargs)
            assert off.rows == exact.rows
            assert off.matches_paper == exact.matches_paper


class TestE9FarAcceptance:
    def test_small_scale_matches(self):
        result = experiment_e9_far_acceptance(q=0.3, p=0.8, instance_size=10, trials=150, seed=9)
        assert result.matches_paper
        assert all(0.0 <= row["far_acceptance"] <= 1.0 for row in result.rows)

    def test_exact_engine_is_bit_identical_to_off(self):
        for seed in (16, 10_016):
            kwargs = dict(q=0.3, p=0.8, instance_size=10, trials=80, seed=seed)
            off = experiment_e9_far_acceptance(engine="off", **kwargs)
            exact = experiment_e9_far_acceptance(engine="exact", **kwargs)
            assert off.rows == exact.rows
            assert off.matches_paper == exact.matches_paper


class TestE10Baselines:
    def test_small_scale_matches(self):
        result = experiment_e10_baselines(sizes=(20, 40), degree=3, runs=2, seed=10)
        assert result.matches_paper
        assert all(row["luby_valid"] and row["matching_valid"] for row in result.rows)


#: Toy sizes of every experiment with an ``engine=`` parameter (E4 and E10
#: run no engine path: their randomness is the reference tapes only).
ENGINE_TOYS = {
    "E1": dict(sizes=(9,), trials=120),
    "E2": dict(sizes=(30,), eps_values=(0.75,), trials=30, decider_trials=60),
    "E3": dict(n=15, radii=(0, 1), f_values=(1,), trials=60),
    "E5": dict(f_values=(1, 2), n=24, trials=120),
    "E6": dict(q=0.08, instance_size=8, nu_values=(1, 2), trials=40),
    "E7": dict(n=15, deterministic_radius=1, trials=80),
    "E8": dict(n=15, eps=0.75, f_values=(1,), trials=40),
    "E9": dict(instance_size=10, trials=40),
}


@pytest.mark.parametrize("seed", [0, 1, 10_000])
@pytest.mark.parametrize("experiment_id", list(ENGINE_TOYS))
def test_engine_is_bit_identical_to_off_at_adjacent_and_distant_seeds(experiment_id, seed):
    """The engine computes the reference tape streams themselves, so
    ``auto``/``exact`` reproduce ``off`` at every seed, adjacent ones
    included."""
    kwargs = dict(ENGINE_TOYS[experiment_id], seed=seed)
    off = ALL_EXPERIMENTS[experiment_id](engine="off", **kwargs)
    for engine in ("auto", "exact"):
        run = ALL_EXPERIMENTS[experiment_id](engine=engine, **kwargs)
        assert run.rows == off.rows
        assert run.matches_paper == off.matches_paper


#: E1 and E5 under a precision target: every row reads the adaptive stream.
PRECISION_TOYS = {
    "E1": dict(sizes=(9,), trials=120, precision=0.05),
    "E5": dict(f_values=(1, 2), n=24, trials=120, precision=0.05),
}


@pytest.mark.parametrize("seed", [0, 1, 10_000])
@pytest.mark.parametrize("experiment_id", list(PRECISION_TOYS))
def test_precision_rows_are_bit_identical_to_off(experiment_id, seed):
    """Under a precision target the engine and ``off`` continue the same
    streams, so every sampled row — estimate, ``ci_low``/``ci_high`` and
    ``trials_used`` — is identical.  The one exception is by design: on an
    empty configuration (E1's zero selected nodes, E5's zero bad balls)
    every compiled vote program is constant, and the engine reports the
    exact degenerate estimate (one trial, a zero-width interval), which the
    reference loop has no compiled program to detect; ``off`` samples that
    row to the target instead."""
    kwargs = dict(PRECISION_TOYS[experiment_id], seed=seed)
    off = ALL_EXPERIMENTS[experiment_id](engine="off", **kwargs)
    for engine in ("auto", "exact"):
        run = ALL_EXPERIMENTS[experiment_id](engine=engine, **kwargs)
        assert len(run.rows) == len(off.rows)
        exact_rows = 0
        for row, reference in zip(run.rows, off.rows):
            if row["trials_used"] == 1:
                exact_rows += 1
                assert row["acceptance"] == reference["acceptance"] == 1.0
                assert row["ci_low"] == row["ci_high"] == 1.0
                assert reference["trials_used"] >= 100  # the target's min_trials
            else:
                assert row == reference
        assert exact_rows == 2
