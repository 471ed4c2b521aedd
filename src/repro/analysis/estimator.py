"""Monte-Carlo estimation of success probabilities.

The paper's quantities of interest are probabilities over the private coins
of constructors and deciders (success probability ``r``, decision guarantee
``p``, failure bound ``β``, acceptance probabilities of glued instances).
This module centralises how those probabilities are estimated: Bernoulli
sampling with Wilson score intervals (robust near 0 and 1, where most of our
estimates live), plus a sequential estimator that stops early once the
interval is narrow enough.

These are the standalone *scalar* helpers (one Python call per trial).  The
engine-integrated adaptive layer — chunked sequential stopping over the
vectorized trial streams, threaded through ``precision=`` on the core
estimators — lives in :mod:`repro.stats`; prefer it for anything the engine
can batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

__all__ = [
    "wilson_interval",
    "BernoulliEstimate",
    "estimate_bernoulli",
    "sequential_probability_estimate",
]


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> Tuple[float, float]:
    """Wilson score confidence interval for a Bernoulli parameter.

    Preferred over the normal approximation because the acceptance /
    rejection probabilities measured in the experiments are frequently very
    close to 0 or 1, where the normal interval misbehaves.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    spread = (
        z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    )
    return (max(0.0, center - spread), min(1.0, center + spread))


@dataclass(frozen=True)
class BernoulliEstimate:
    """A point estimate with its Wilson interval."""

    successes: int
    trials: int
    z: float = 1.96

    @property
    def rate(self) -> float:
        return self.successes / self.trials if self.trials else float("nan")

    @property
    def interval(self) -> Tuple[float, float]:
        return wilson_interval(self.successes, self.trials, self.z)

    @property
    def half_width(self) -> float:
        low, high = self.interval
        return (high - low) / 2.0

    def compatible_with(self, probability: float) -> bool:
        """Whether the target probability lies inside the confidence interval."""
        low, high = self.interval
        return low <= probability <= high

    def at_least(self, probability: float) -> bool:
        """Whether the data is consistent with the true rate being at least
        ``probability`` (i.e. the upper bound reaches it)."""
        _low, high = self.interval
        return high >= probability

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        low, high = self.interval
        return f"{self.rate:.4f} [{low:.4f}, {high:.4f}] ({self.trials} trials)"


def estimate_bernoulli(
    experiment: Callable[[int], bool], trials: int, seed: int = 0
) -> BernoulliEstimate:
    """Run ``experiment(trial_index)`` ``trials`` times and tally successes.

    The experiment callable receives the trial index so it can select its
    per-trial randomness (e.g. ``TapeFactory(seed, salt, trial=index)``);
    the ``seed`` argument is folded into the index offset for convenience.
    """
    if trials <= 0:
        raise ValueError("trials must be positive")
    successes = sum(int(bool(experiment(seed + trial))) for trial in range(trials))
    return BernoulliEstimate(successes=successes, trials=trials)


def sequential_probability_estimate(
    experiment: Callable[[int], bool],
    target_half_width: float = 0.02,
    min_trials: int = 50,
    max_trials: int = 20_000,
    seed: int = 0,
) -> BernoulliEstimate:
    """Sample until the Wilson interval is narrow enough (or budget runs out).

    Useful for the amplification experiments where acceptance probabilities
    span several orders of magnitude across the ν sweep: configurations with
    probabilities near 0 or 1 need far fewer samples than mid-range ones.
    """
    if not 0 < target_half_width < 0.5:
        raise ValueError("target_half_width must lie in (0, 0.5)")
    successes = 0
    trials = 0
    while trials < max_trials:
        successes += int(bool(experiment(seed + trials)))
        trials += 1
        if trials >= min_trials:
            estimate = BernoulliEstimate(successes, trials)
            if estimate.half_width <= target_half_width:
                return estimate
    return BernoulliEstimate(successes, trials)
