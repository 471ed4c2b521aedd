"""Tests for repro.stats: intervals and quantiles."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.stats import (
    ConfidenceInterval,
    normal_quantile,
    tri_all,
    wilson_half_width,
    wilson_interval,
)


class TestNormalQuantile:
    def test_standard_critical_values(self):
        assert normal_quantile(0.95) == pytest.approx(1.959964, abs=1e-5)
        assert normal_quantile(0.99) == pytest.approx(2.575829, abs=1e-5)
        assert normal_quantile(0.90) == pytest.approx(1.644854, abs=1e-5)

    def test_monotone_in_confidence(self):
        quantiles = [normal_quantile(c) for c in (0.5, 0.8, 0.9, 0.95, 0.99, 0.999)]
        assert quantiles == sorted(quantiles)

    def test_roundtrip_through_the_cdf(self):
        for confidence in (0.6, 0.9, 0.95, 0.99, 0.9973):
            z = normal_quantile(confidence)
            recovered = 2.0 * (0.5 * math.erfc(-z / math.sqrt(2.0))) - 1.0
            assert recovered == pytest.approx(confidence, abs=1e-12)

    def test_domain_validated(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                normal_quantile(bad)

    def test_ppf_tails_are_symmetric(self):
        from repro.stats.intervals import _norm_ppf

        for p in (0.001, 0.01, 0.3, 0.5, 0.97, 0.999):
            assert _norm_ppf(p) == pytest.approx(-_norm_ppf(1.0 - p), abs=1e-9)
        assert _norm_ppf(0.5) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError):
            _norm_ppf(0.0)


class TestWilson:
    def test_matches_the_legacy_helper_formula(self):
        """wilson_half_width replaced two duplicated private helpers; it must
        agree with their exact z=1.96 formula."""

        def legacy(successes, trials, z=1.96):
            phat = successes / trials
            denom = 1.0 + z * z / trials
            center = (phat + z * z / (2 * trials)) / denom
            spread = (
                z
                * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
                / denom
            )
            return (min(1.0, center + spread) - max(0.0, center - spread)) / 2.0

        for successes, trials in [(0, 50), (1, 50), (25, 50), (50, 50), (399, 400)]:
            assert wilson_half_width(successes, trials) == pytest.approx(
                legacy(successes, trials), abs=1e-12
            )
        assert math.isnan(wilson_half_width(0, 0))

    def test_interval_contains_the_point_estimate(self):
        for successes, trials in [(0, 10), (3, 10), (10, 10), (777, 1000)]:
            interval = wilson_interval(successes, trials, 0.99)
            assert interval.contains(successes / trials)

    def test_narrows_with_more_trials(self):
        widths = [wilson_interval(n // 2, n, 0.95).half_width for n in (10, 100, 1000, 10000)]
        assert widths == sorted(widths, reverse=True)

    def test_stays_inside_the_unit_interval(self):
        assert wilson_interval(0, 5, 0.999).low == 0.0
        assert wilson_interval(5, 5, 0.999).high == 1.0

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(6, 5)


class TestWilsonScoreEquation:
    """The Wilson interval is the set of ``p`` with ``|p̂ − p| ≤ z·√(p(1−p)/n)``:
    both endpoints solve the equality, the set contains ``p̂``, mirrors under
    ``s ↦ n − s`` and grows with the confidence."""

    @pytest.mark.parametrize(
        "successes,trials",
        [(0, 1), (1, 1), (0, 10), (3, 10), (5, 10), (10, 10)]
        + [(1, 100), (50, 100), (99, 100), (0, 1000), (618, 1000), (999, 1000)],
    )
    def test_endpoints_solve_the_score_equation(self, successes, trials):
        phat = successes / trials
        previous = None
        for confidence in (0.9, 0.95, 0.99):
            z = normal_quantile(confidence)
            interval = wilson_interval(successes, trials, confidence)
            for p in (interval.low, interval.high):
                assert (phat - p) ** 2 == pytest.approx(z * z * p * (1 - p) / trials, abs=1e-12)
            assert interval.low <= phat <= interval.high
            mirror = wilson_interval(trials - successes, trials, confidence)
            assert interval.low == pytest.approx(1.0 - mirror.high, abs=1e-12)
            assert interval.high == pytest.approx(1.0 - mirror.low, abs=1e-12)
            assert wilson_half_width(successes, trials, z) == pytest.approx(
                interval.half_width, abs=1e-12
            )
            if previous is not None:
                assert interval.low <= previous.low and previous.high <= interval.high
            previous = interval


class TestCoverage:
    def test_coverage_is_close_to_nominal(self):
        """Frequentist check of the interval implementation: 95% intervals
        over repeated binomial samples cover the true rate about 95% of the
        time."""
        rng = np.random.default_rng(0)
        p = 0.37
        covered = 0
        repetitions = 300
        for _ in range(repetitions):
            successes = int(rng.binomial(200, p))
            covered += int(wilson_interval(successes, 200, 0.95).contains(p))
        assert covered / repetitions > 0.9


class TestTriState:
    def test_interval_settles_or_straddles(self):
        interval = ConfidenceInterval(0.40, 0.45, 0.95)
        assert interval.tri_at_most(0.5) is True
        assert interval.tri_at_least(0.5) is False
        assert interval.tri_between(0.35, 0.5) is True
        straddling = ConfidenceInterval(0.48, 0.53, 0.95)
        assert straddling.tri_at_most(0.5) is None
        assert straddling.tri_at_least(0.5) is None
        assert straddling.tri_between(0.49, 0.6) is None
        assert straddling.tri_between(0.6, 0.7) is False

    def test_tri_all_semantics(self):
        assert tri_all([True, True]) is True
        assert tri_all([True, None]) is None
        assert tri_all([None, False]) is False  # a refutation dominates
        assert tri_all([]) is True

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            ConfidenceInterval(0.6, 0.4, 0.95)
