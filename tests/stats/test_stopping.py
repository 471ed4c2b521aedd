"""Tests for the sequential-stopping layer and the engine trial streams.

The exactness contract under test: adaptive runs consume *prefixes* of the
very same chunk-invariant streams the fixed-trial estimators consume, so a
run stopping after ``k`` trials reports exactly the fixed ``k``-trial
estimate, and ``precision=None`` leaves every estimator bit-identical to its
historical behaviour.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.coloring.random_coloring import RandomColoringConstructor
from repro.core.construction import BallConstructor, estimate_success_probability
from repro.core.decision import (
    AmplifiedResilientDecider,
    RandomizedDecider,
    ResilientDecider,
    estimate_guarantee,
)
from repro.core.derandomization import (
    choose_anchor,
    far_acceptance_probability,
    find_hard_instances,
)
from repro.core.lcl import ProperColoring
from repro.core.relaxations import eps_slack, f_resilient
from repro.engine import executor
from repro.engine.compiler import coin, compile_decision
from repro.engine.construct import const_output
from repro.engine.executor import AcceptStream, accept_vector, deterministic_accept_value
from repro.engine.fusion import fusion_scope
from repro.graphs.families import cycle_network
from repro.harness.experiments import (
    _cycle_coloring_with_bad_balls,
    _toy_all_zeros_language,
    _toy_faulty_constructor,
    _toy_noisy_decider,
)
from repro.local.algorithm import FunctionBallAlgorithm
from repro.stats import (
    PrecisionTarget,
    ProbabilityEstimate,
    run_estimate,
    sequential_estimate,
    wilson_interval,
)
from repro.obs import TraceRecorder, use_recorder
from tests.conftest import engine_ran, fallback_counters


def _config(n=30, bad=6):
    return _cycle_coloring_with_bad_balls(cycle_network(n), bad)


class TestPrecisionTarget:
    def test_validation(self):
        with pytest.raises(ValueError):
            PrecisionTarget(half_width=0.0)
        with pytest.raises(ValueError):
            PrecisionTarget(half_width=0.6)
        with pytest.raises(ValueError):
            PrecisionTarget(half_width=0.1, confidence=1.0)
        with pytest.raises(ValueError):
            PrecisionTarget(half_width=0.1, min_trials=0)
        with pytest.raises(ValueError):
            PrecisionTarget(half_width=0.1, min_trials=10, max_trials=5)

    def test_coerce_none_zero_float_and_target(self):
        assert PrecisionTarget.coerce(None) is None
        assert PrecisionTarget.coerce(0.0, default_cap=100) is None
        target = PrecisionTarget.coerce(0.02, default_cap=5_000)
        assert target.half_width == 0.02 and target.max_trials == 5_000
        pinned = PrecisionTarget(half_width=0.05, max_trials=42, min_trials=10)
        assert PrecisionTarget.coerce(pinned, default_cap=9_999) is pinned

    def test_coerce_never_outspends_the_fixed_budget(self):
        """A tiny fixed budget shrinks min_trials rather than growing the
        cap: trials= is a hard ceiling, not a suggestion."""
        target = PrecisionTarget.coerce(0.05, default_cap=3)
        assert target.max_trials == 3 and target.min_trials == 3

    def test_adaptive_run_respects_a_budget_below_default_min_trials(self):
        decider = ResilientDecider(ProperColoring(3), f=2)
        estimate = decider.acceptance_estimate(
            _config(), trials=50, seed=1, precision=0.01
        )
        assert estimate.trials == 50  # never more than the caller's budget

    def test_satisfied_requires_min_trials_then_half_width(self):
        target = PrecisionTarget(half_width=0.2, min_trials=50)
        assert not target.satisfied(10, 20)  # below min_trials, however narrow
        assert target.satisfied(0, 400)
        tight = PrecisionTarget(half_width=0.001, min_trials=50, max_trials=100)
        assert not tight.satisfied(50, 100)


class TestSequentialEstimate:
    def test_stops_at_cap_and_is_deterministic(self):
        target = PrecisionTarget(half_width=0.001, min_trials=100, max_trials=1_234)
        calls = []

        def draw(count):
            calls.append(count)
            return count // 2

        estimate = sequential_estimate(target, draw)
        assert estimate.trials == 1_234
        # Doubling schedule: 100, then totals 200, 400, 800, truncated 1234.
        assert calls == [100, 100, 200, 400, 434]
        assert estimate.estimate == pytest.approx(sum(c // 2 for c in calls) / 1_234)

    def test_stops_early_on_extreme_rates(self):
        target = PrecisionTarget(half_width=0.05, min_trials=100, max_trials=100_000)
        estimate = sequential_estimate(target, lambda count: count)  # always succeeds
        assert estimate.trials == 100
        assert estimate.half_width <= 0.05
        assert estimate.ci_high == 1.0

    def test_estimate_is_accurate(self):
        rng = np.random.default_rng(2)
        target = PrecisionTarget(half_width=0.02, min_trials=100, max_trials=20_000)
        estimate = sequential_estimate(
            target, lambda count: int(np.count_nonzero(rng.random(count) < 0.25))
        )
        assert estimate.half_width <= 0.02
        assert estimate.trials < 20_000
        assert estimate.estimate == pytest.approx(0.25, abs=0.05)
        assert estimate.ci_low <= 0.25 <= estimate.ci_high

    @pytest.mark.parametrize("second", [-1, 101])
    def test_draw_outside_zero_to_count_is_rejected(self, second):
        """Each draw is checked on its own: 50 then -1 (or 101) successes
        in two draws of 100 keep the running totals in range."""
        target = PrecisionTarget(half_width=0.01, min_trials=100, max_trials=1_000)
        draws = iter([50, second])
        with pytest.raises(ValueError):
            sequential_estimate(target, lambda count: next(draws, 0))

    def test_estimate_record_invariants(self):
        with pytest.raises(ValueError):
            ProbabilityEstimate(successes=2, trials=1, ci_low=0, ci_high=1, confidence=0.9)
        exact = ProbabilityEstimate.exact(True)
        assert exact.deterministic and exact.estimate == 1.0 and exact.half_width == 0.0


class TestRunEstimate:
    def test_fixed_run_is_one_draw_in_a_95_percent_wilson_interval(self):
        calls = []

        def draw(count):
            calls.append(count)
            return count // 3

        estimate = run_estimate(draw, 300)
        interval = wilson_interval(100, 300)
        assert calls == [300]
        assert (estimate.successes, estimate.trials) == (100, 300)
        assert (estimate.ci_low, estimate.ci_high) == (interval.low, interval.high)
        assert estimate.confidence == 0.95 and not estimate.deterministic

    def test_fixed_run_samples_even_a_constant_outcome(self):
        estimate = run_estimate(lambda count: count, 40, constant=True)
        assert estimate.trials == 40 and not estimate.deterministic

    def test_constant_outcome_under_a_target_is_exact_and_unsampled(self):
        def draw(count):
            raise AssertionError("a structurally constant outcome must not be sampled")

        target = PrecisionTarget(half_width=0.05, confidence=0.9)
        estimate = run_estimate(draw, 500, target, constant=False)
        assert estimate == ProbabilityEstimate.exact(False, confidence=0.9)

    def test_target_runs_sequential_estimate_on_the_same_stream(self):
        target = PrecisionTarget(half_width=0.001, min_trials=100, max_trials=1_234)
        expected = sequential_estimate(target, lambda count: count // 2)
        assert run_estimate(lambda count: count // 2, 1_234, target) == expected

    @pytest.mark.parametrize("trials", [0, -5])
    def test_trials_below_one_are_rejected(self, trials):
        with pytest.raises(ValueError, match="trials"):
            run_estimate(lambda count: 0, trials)
        with pytest.raises(ValueError, match="trials"):
            run_estimate(lambda count: 0, trials, PrecisionTarget(half_width=0.1))


class TestTrialCountValidation:
    """Every estimator rejects a trial count below 1 with the same
    ``ValueError`` on the engine and on the reference loop."""

    @pytest.mark.parametrize("engine", ["auto", "off"])
    @pytest.mark.parametrize("trials", [0, -5])
    def test_decision_estimates(self, engine, trials):
        decider = ResilientDecider(ProperColoring(3), f=2)
        language = f_resilient(ProperColoring(3), 2)
        configuration = _config()
        with pytest.raises(ValueError, match="trials"):
            decider.acceptance_probability(configuration, trials=trials, engine=engine)
        with pytest.raises(ValueError, match="trials"):
            estimate_guarantee(decider, language, [configuration], trials=trials, engine=engine)

    @pytest.mark.parametrize("engine", ["auto", "off"])
    def test_construction_estimates(self, engine):
        constructor = _toy_faulty_constructor(0.2)
        language = _toy_all_zeros_language()
        network = cycle_network(8)
        with pytest.raises(ValueError, match="trials"):
            estimate_success_probability(constructor, language, [network], trials=0, engine=engine)
        with pytest.raises(ValueError, match="trials"):
            find_hard_instances(constructor, language, [network], 0.1, 1, trials=0, engine=engine)

    @pytest.mark.parametrize("engine", ["auto", "off"])
    def test_far_acceptance_estimates(self, engine):
        constructor = _toy_faulty_constructor(0.2)
        decider = _toy_noisy_decider(0.8)
        network = cycle_network(8)
        node = network.nodes()[0]
        with pytest.raises(ValueError, match="trials"):
            far_acceptance_probability(
                constructor, decider, network, node, 1, trials=0, engine=engine
            )
        with pytest.raises(ValueError, match="trials"):
            choose_anchor(constructor, decider, network, 1, trials=0, engine=engine)


class TestAcceptStream:
    def test_concatenated_batches_equal_one_fixed_call(self):
        decider = AmplifiedResilientDecider(ProperColoring(3), f=4, repetitions=3)
        compiled = compile_decision(decider, _config())
        fixed = accept_vector(compiled, 500, seed=11)
        stream = AcceptStream(compiled, seed=11)
        batches = [stream.sample(count) for count in (100, 1, 399)]
        assert np.array_equal(np.concatenate(batches), fixed)
        assert stream.trials_sampled == 500

    def test_batching_is_block_size_invariant(self, monkeypatch):
        decider = ResilientDecider(ProperColoring(3), f=2)
        compiled = compile_decision(decider, _config())
        fixed = accept_vector(compiled, 300, seed=2)
        monkeypatch.setattr(executor, "EXACT_BLOCK_BYTES", 128)
        stream = AcceptStream(compiled, seed=2)
        assert np.array_equal(
            np.concatenate([stream.sample(150), stream.sample(150)]), fixed
        )

    def test_explicit_salt_is_threaded(self):
        decider = ResilientDecider(ProperColoring(3), f=2)
        compiled = compile_decision(decider, _config())
        fixed = accept_vector(compiled, 300, seed=4, salt=f"{decider.name}/3")
        stream = AcceptStream(compiled, seed=4, salt=f"{decider.name}/3")
        assert np.array_equal(
            np.concatenate([stream.sample(120), stream.sample(180)]), fixed
        )
        assert not np.array_equal(fixed, accept_vector(compiled, 300, seed=4))

    def test_count_validated(self):
        compiled = compile_decision(ResilientDecider(ProperColoring(3), f=2), _config())
        with pytest.raises(ValueError):
            AcceptStream(compiled).sample(0)

    def test_deterministic_accept_value(self):
        proper = _cycle_coloring_with_bad_balls(cycle_network(30), 0)
        compiled = compile_decision(ResilientDecider(ProperColoring(3), f=2), proper)
        assert deterministic_accept_value(compiled) is True
        random_compiled = compile_decision(ResilientDecider(ProperColoring(3), f=2), _config())
        assert deterministic_accept_value(random_compiled) is None
        assert np.array_equal(
            AcceptStream(compiled).sample(5), np.ones(5, dtype=bool)
        )


class TestAdaptiveAcceptance:
    def test_adaptive_stop_equals_fixed_prefix(self):
        decider = ResilientDecider(ProperColoring(3), f=4)
        configuration = _config()
        target = PrecisionTarget(half_width=0.04, min_trials=100, max_trials=5_000)
        estimate = decider.acceptance_estimate(configuration, seed=3, precision=target)
        compiled = compile_decision(decider, configuration)
        fixed = accept_vector(compiled, estimate.trials, seed=3)
        assert estimate.successes == int(fixed.sum())
        assert estimate.half_width <= 0.04
        assert 100 <= estimate.trials < 5_000

    def test_deterministic_decision_skips_sampling(self):
        proper = _cycle_coloring_with_bad_balls(cycle_network(30), 0)
        decider = ResilientDecider(ProperColoring(3), f=1)
        estimate = decider.acceptance_estimate(proper, precision=PrecisionTarget(half_width=0.01))
        assert estimate.deterministic and estimate.trials == 1 and estimate.estimate == 1.0


class TestDeciderPrecisionThreading:
    def test_precision_none_is_bit_identical(self):
        decider = ResilientDecider(ProperColoring(3), f=2)
        configuration = _config()
        base = decider.acceptance_probability(configuration, trials=300, seed=10_000)
        assert (
            decider.acceptance_probability(
                configuration, trials=300, seed=10_000, precision=None
            )
            == base
        )

    def test_precision_float_shorthand_and_cap(self):
        decider = ResilientDecider(ProperColoring(3), f=2)
        configuration = _config()
        estimate = decider.acceptance_estimate(
            configuration, trials=400, seed=0, precision=0.2
        )
        assert estimate.trials <= 400
        value = decider.acceptance_probability(
            configuration, trials=400, seed=0, precision=0.2
        )
        assert value == estimate.estimate

    def test_fixed_estimate_wraps_the_fixed_run(self):
        decider = ResilientDecider(ProperColoring(3), f=2)
        configuration = _config()
        estimate = decider.acceptance_estimate(configuration, trials=250, seed=5)
        assert estimate.trials == 250
        assert estimate.estimate == decider.acceptance_probability(
            configuration, trials=250, seed=5
        )
        assert estimate.ci_low <= estimate.estimate <= estimate.ci_high

    def test_reference_path_adaptive_matches_engine(self):
        """A decider without a compilable vote runs the reference adaptive
        loop; with one, the engine replays the same coins — the estimates
        must agree at the realized trial count."""
        base = ProperColoring(3)
        configuration = _config()
        compilable = ResilientDecider(base, f=2)
        p = compilable.p_bad_ball

        opaque = RandomizedDecider(
            rule=lambda ball, tape: True
            if not base.is_bad_ball(ball)
            else tape.bernoulli(p),
            radius=base.radius,
            guarantee=compilable.guarantee,
            name=compilable.name,  # same name => same tape salts
        )
        target = PrecisionTarget(half_width=0.05, min_trials=100, max_trials=2_000)
        with engine_ran():
            engine_estimate = compilable.acceptance_estimate(
                configuration, seed=4, precision=target, engine="auto"
            )
        reference_estimate = opaque.acceptance_estimate(
            configuration, seed=4, precision=target, engine="off"
        )
        assert engine_estimate == reference_estimate

    def test_estimate_guarantee_precision_records_trials(self):
        base = ProperColoring(3)
        decider = ResilientDecider(base, f=2)
        configurations = [
            _cycle_coloring_with_bad_balls(cycle_network(30), 0),
            _cycle_coloring_with_bad_balls(cycle_network(30), 2),
            _cycle_coloring_with_bad_balls(cycle_network(30), 6),
        ]
        language = f_resilient(base, 2)
        fixed = estimate_guarantee(decider, language, configurations, trials=400, seed=2)
        # The fixed path always spends the whole budget on randomized deciders.
        assert fixed.trials_used == {0: 400, 1: 400, 2: 400}

        adaptive = estimate_guarantee(
            decider,
            language,
            configurations,
            trials=400,
            seed=2,
            precision=PrecisionTarget(half_width=0.04, min_trials=50, max_trials=400),
        )
        assert adaptive.trials_used[0] == 1  # structurally deterministic row
        assert all(trials <= 400 for trials in adaptive.trials_used.values())
        # Rates are prefix rates of the same streams: re-count the successes
        # at the realized trial count with the one-shot accept vector (same
        # per-index salt) and compare.
        for index, configuration in enumerate(configurations):
            member, rate, _hw = adaptive.per_configuration[index]
            trials = adaptive.trials_used[index]
            if trials == 1:
                assert rate == 1.0
                continue
            compiled = compile_decision(decider, configuration)
            accepted = accept_vector(compiled, trials, seed=2, salt=f"{decider.name}/{index}")
            successes = int(np.count_nonzero(accepted if member else ~accepted))
            assert successes / trials == rate


# --------------------------------------------------------------------------- #
# Construction-side streams: success and far acceptance
# --------------------------------------------------------------------------- #
def _schedule_stop(target, successes_at):
    """The trial count a sequential run stops at, replayed from fixed runs:
    the first total of the doubling schedule whose fixed-run counts meet the
    target, or the cap."""
    total = target.min_trials
    while total < target.max_trials and not target.satisfied(successes_at(total), total):
        total = min(2 * total, target.max_trials)
    return total


def _one_coin_far_decider():
    """A radius-1 twin of the toy noisy decider: compilable, but not fusable,
    so far acceptance runs the reference loop on every path (under ``auto``
    a declined fusion, counted as ``engine.fallback.declined``)."""
    return RandomizedDecider(
        rule=lambda ball, tape: True if ball.center_output() == 0 else tape.bernoulli(0.2),
        radius=1,
        guarantee=0.8,
        name="radius-one-noisy-decider",
        vote_program=lambda ball: coin(1.0 if ball.center_output() == 0 else 0.2),
    )


class TestConstructionStreams:
    """The success and far-acceptance estimates are one stream each: the
    engine and the reference loop build the same stream, a fixed run is its
    first draw, and a precision target continues it."""

    SUCCESS_TARGET = PrecisionTarget(half_width=0.04, min_trials=50, max_trials=800)
    FAR_TARGET = PrecisionTarget(half_width=0.08, min_trials=40, max_trials=640)

    @staticmethod
    def _success_cases():
        networks = [cycle_network(12), cycle_network(21, ids="consecutive")]
        coloring = RandomColoringConstructor(3)
        return [
            (coloring, eps_slack(ProperColoring(3), 0.6), networks),
            (coloring, ProperColoring(3), networks),
            (_toy_faulty_constructor(0.05), _toy_all_zeros_language(), networks),
        ]

    @pytest.mark.parametrize("seed", [0, 10_000])
    def test_success_precision_engine_equals_off(self, seed):
        for constructor, language, networks in self._success_cases():

            def run(engine):
                return estimate_success_probability(
                    constructor,
                    language,
                    networks,
                    trials=800,
                    seed=seed,
                    engine=engine,
                    precision=self.SUCCESS_TARGET,
                )

            off = run("off")
            with engine_ran():
                auto = run("auto")
            assert auto.per_instance == off.per_instance
            assert auto.trials_used == off.trials_used

    @pytest.mark.parametrize("engine", ["auto", "off"])
    def test_success_precision_stops_at_the_fixed_prefix(self, engine):
        target = self.SUCCESS_TARGET
        for constructor, language, networks in self._success_cases():
            adaptive = estimate_success_probability(
                constructor,
                language,
                networks,
                trials=800,
                seed=3,
                engine=engine,
                precision=target,
            )

            def fixed_rate(trials, index):
                return estimate_success_probability(
                    constructor, language, networks, trials=trials, seed=3, engine=engine
                ).per_instance[index][0]

            for index in range(len(networks)):
                stop = _schedule_stop(
                    target, lambda trials: round(fixed_rate(trials, index) * trials)
                )
                assert adaptive.trials_used[index] == stop
                assert adaptive.per_instance[index][0] == fixed_rate(stop, index)

    def test_construction_without_random_outputs_is_exact(self):
        language = _toy_all_zeros_language()
        networks = [cycle_network(9)]
        for value, expected in ((0, 1.0), (1, 0.0)):
            constructor = BallConstructor(
                FunctionBallAlgorithm(
                    lambda ball, tape, value=value: value,
                    radius=0,
                    randomized=True,
                    name=f"constant-{value}",
                    output_program=lambda ball, value=value: const_output(value),
                )
            )
            estimate = estimate_success_probability(
                constructor, language, networks, trials=500, precision=self.SUCCESS_TARGET
            )
            assert estimate.per_instance[0] == (expected, 0.0)
            assert estimate.trials_used[0] == 1

    @pytest.mark.parametrize("seed", [0, 10_000])
    def test_far_precision_engine_equals_off(self, seed):
        network = cycle_network(10)
        constructor = _toy_faulty_constructor(0.1)
        for decider, fallbacks in (
            (_toy_noisy_decider(0.8), {}),
            (_one_coin_far_decider(), {"engine.fallback.declined": 1}),
        ):
            for node in network.nodes()[:3]:

                def run(engine):
                    return far_acceptance_probability(
                        constructor,
                        decider,
                        network,
                        node,
                        1,
                        trials=640,
                        seed=seed,
                        engine=engine,
                        precision=self.FAR_TARGET,
                    )

                off = run("off")
                with use_recorder(TraceRecorder()) as recorder:
                    auto = run("auto")
                assert auto == off
                assert fallback_counters(recorder.counters) == fallbacks

    @pytest.mark.parametrize("engine", ["auto", "off"])
    def test_far_precision_stops_at_the_fixed_prefix(self, engine):
        network = cycle_network(10)
        constructor = _toy_faulty_constructor(0.1)
        decider = _toy_noisy_decider(0.8)
        node = network.nodes()[4]

        def fixed(trials):
            return far_acceptance_probability(
                constructor, decider, network, node, 1, trials=trials, seed=5, engine=engine
            )

        stop = _schedule_stop(self.FAR_TARGET, lambda trials: round(fixed(trials) * trials))
        assert stop < self.FAR_TARGET.max_trials  # the target, not the cap, stopped it
        adaptive = far_acceptance_probability(
            constructor,
            decider,
            network,
            node,
            1,
            trials=640,
            seed=5,
            engine=engine,
            precision=self.FAR_TARGET,
        )
        assert adaptive == fixed(stop)

    @pytest.mark.parametrize("seed", [0, 7])
    def test_reference_anchor_is_the_per_candidate_minimum(self, seed):
        """The one-pass reference loop of ``choose_anchor`` keeps the old
        definition: the first candidate with the smallest per-candidate
        ``far_acceptance_probability``."""
        network = cycle_network(10)
        constructor = _toy_faulty_constructor(0.3)
        for decider in (_toy_noisy_decider(0.8), _one_coin_far_decider()):
            candidates = network.nodes()
            probabilities = [
                far_acceptance_probability(
                    constructor, decider, network, node, 1, trials=60, seed=seed, engine="off"
                )
                for node in candidates
            ]
            best = min(range(len(candidates)), key=probabilities.__getitem__)
            anchor = choose_anchor(
                constructor, decider, network, 1, trials=60, seed=seed, engine="off"
            )
            assert anchor == (candidates[best], probabilities[best])

    def test_adaptive_estimates_inside_a_fusion_scope_equal_outside(self):
        """Inside a fused group every window after the first (``start > 0``)
        is served as a suffix of the shared matrix; the estimates must not
        move."""
        networks = [cycle_network(21, ids="consecutive")]
        constructor = RandomColoringConstructor(3)
        language = eps_slack(ProperColoring(3), 0.6)
        target = self.SUCCESS_TARGET
        outside = estimate_success_probability(
            constructor, language, networks, trials=800, seed=1, precision=target
        )
        assert outside.trials_used[0] > target.min_trials  # several windows
        with fusion_scope() as context:
            inside = estimate_success_probability(
                constructor, language, networks, trials=800, seed=1, precision=target
            )
        assert inside.per_instance == outside.per_instance
        assert inside.trials_used == outside.trials_used
        assert context.misses > 2  # the memo grew once per window, not once in all

        network = cycle_network(10)
        far = (_toy_faulty_constructor(0.1), _toy_noisy_decider(0.8), network, network.nodes()[0])
        far_outside = far_acceptance_probability(
            *far, 1, trials=640, seed=2, precision=self.FAR_TARGET
        )
        with fusion_scope() as context:
            far_inside = far_acceptance_probability(
                *far, 1, trials=640, seed=2, precision=self.FAR_TARGET
            )
        assert far_inside == far_outside
        assert context.misses > 1
