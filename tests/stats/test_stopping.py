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

from repro.core.decision import (
    AmplifiedResilientDecider,
    RandomizedDecider,
    ResilientDecider,
    estimate_guarantee,
)
from repro.core.lcl import ProperColoring
from repro.core.relaxations import f_resilient
from repro.engine.compiler import compile_decision
from repro.engine.executor import (
    AcceptStream,
    accept_vector,
    adaptive_acceptance,
    deterministic_accept_value,
)
from repro.harness.experiments import _cycle_coloring_with_bad_balls
from repro.stats import PrecisionTarget, ProbabilityEstimate, sequential_estimate


def _config(n=30, bad=6):
    return _cycle_coloring_with_bad_balls(n, bad)


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
        with pytest.raises(ValueError):
            PrecisionTarget(half_width=0.1, method="bayes")

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

    def test_hoeffding_method_selectable(self):
        wilson = PrecisionTarget(half_width=0.05)
        hoeffding = PrecisionTarget(half_width=0.05, method="hoeffding")
        assert hoeffding.interval(50, 100).half_width > wilson.interval(50, 100).half_width


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

    def test_estimate_record_invariants(self):
        with pytest.raises(ValueError):
            ProbabilityEstimate(successes=2, trials=1, ci_low=0, ci_high=1, confidence=0.9)
        exact = ProbabilityEstimate.exact(True)
        assert exact.deterministic and exact.estimate == 1.0 and exact.half_width == 0.0


class TestAcceptStream:
    @pytest.mark.parametrize("mode", ["exact", "fast"])
    def test_concatenated_batches_equal_one_fixed_call(self, mode):
        decider = AmplifiedResilientDecider(ProperColoring(3), f=4, repetitions=3)
        compiled = compile_decision(decider, _config())
        fixed = accept_vector(compiled, 500, seed=11, mode=mode)
        stream = AcceptStream(compiled, seed=11, mode=mode)
        batches = [stream.sample(count) for count in (100, 1, 399)]
        assert np.array_equal(np.concatenate(batches), fixed)
        assert stream.trials_sampled == 500

    @pytest.mark.parametrize("mode", ["exact", "fast"])
    def test_batching_is_max_bytes_invariant(self, mode):
        decider = ResilientDecider(ProperColoring(3), f=2)
        compiled = compile_decision(decider, _config())
        fixed = accept_vector(compiled, 300, seed=2, mode=mode)
        stream = AcceptStream(compiled, seed=2, mode=mode, max_bytes=128)
        assert np.array_equal(
            np.concatenate([stream.sample(150), stream.sample(150)]), fixed
        )

    def test_count_validated(self):
        compiled = compile_decision(ResilientDecider(ProperColoring(3), f=2), _config())
        with pytest.raises(ValueError):
            AcceptStream(compiled).sample(0)

    def test_deterministic_accept_value(self):
        proper = _cycle_coloring_with_bad_balls(30, 0)
        compiled = compile_decision(ResilientDecider(ProperColoring(3), f=2), proper)
        assert deterministic_accept_value(compiled) is True
        random_compiled = compile_decision(ResilientDecider(ProperColoring(3), f=2), _config())
        assert deterministic_accept_value(random_compiled) is None
        assert np.array_equal(
            AcceptStream(compiled).sample(5), np.ones(5, dtype=bool)
        )


class TestAdaptiveAcceptance:
    @pytest.mark.parametrize("mode", ["exact", "fast"])
    def test_adaptive_stop_equals_fixed_prefix(self, mode):
        decider = ResilientDecider(ProperColoring(3), f=4)
        compiled = compile_decision(decider, _config())
        target = PrecisionTarget(half_width=0.04, min_trials=100, max_trials=5_000)
        estimate = adaptive_acceptance(compiled, target, seed=3, mode=mode)
        fixed = accept_vector(compiled, estimate.trials, seed=3, mode=mode)
        assert estimate.successes == int(fixed.sum())
        assert estimate.half_width <= 0.04
        assert 100 <= estimate.trials < 5_000

    def test_deterministic_decision_skips_sampling(self):
        proper = _cycle_coloring_with_bad_balls(30, 0)
        compiled = compile_decision(ResilientDecider(ProperColoring(3), f=1), proper)
        estimate = adaptive_acceptance(compiled, PrecisionTarget(half_width=0.01))
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
        loop; with one, the engine's exact mode replays the same coins — the
        estimates must agree at the realized trial count."""
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
        engine_estimate = compilable.acceptance_estimate(
            configuration, seed=4, precision=target, engine="exact"
        )
        reference_estimate = opaque.acceptance_estimate(
            configuration, seed=4, precision=target, engine="off"
        )
        assert engine_estimate == reference_estimate

    def test_estimate_guarantee_precision_records_trials(self):
        base = ProperColoring(3)
        decider = ResilientDecider(base, f=2)
        configurations = [
            _cycle_coloring_with_bad_balls(30, 0),
            _cycle_coloring_with_bad_balls(30, 2),
            _cycle_coloring_with_bad_balls(30, 6),
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
        # at the realized trial count with the fixed-budget counter (same
        # per-index salt) and compare.
        from repro.engine.adapters import engine_success_counts

        for index, configuration in enumerate(configurations):
            member, rate, _hw = adaptive.per_configuration[index]
            trials = adaptive.trials_used[index]
            if trials == 1:
                assert rate == 1.0
                continue
            successes = engine_success_counts(
                decider, configuration, member, trials, 2, index, "exact"
            )
            assert successes / trials == rate
