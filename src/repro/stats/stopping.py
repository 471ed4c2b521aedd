"""Sequential stopping: run trials *until a precision target is met*.

The fixed-trial estimators guess their budgets: quick presets flap because
the CI is still wide, full presets keep sampling long after the estimate
converged.  A :class:`PrecisionTarget` replaces the guess with a contract —
"stop once the two-sided CI half-width is at most ``half_width`` at the
given ``confidence``, after at least ``min_trials`` and at most
``max_trials`` trials" — and :func:`sequential_estimate` drives any batched
success counter to that target on a deterministic doubling schedule.

Every Monte-Carlo estimator of the package is one resumable **success
stream**: ``draw(count)`` runs the next ``count`` trials and returns how
many succeeded.  :func:`run_estimate` is the one driver over such a stream:
a fixed run is ``draw(trials)``, an adaptive run is
:func:`sequential_estimate` over the same stream.

Exactness contract
------------------
The engine's trial streams are **chunk-invariant by construction** (every
trial's draws are a pure function of its own counter-based tape keys), so
the batch schedule never changes the sampled values — only *how many*
trials are looked at.  A fixed ``trials``-trial run is the first draw of the
stream an adaptive run continues, so an adaptive run that stops after ``k``
trials reports exactly the estimate a fixed ``k``-trial run would have
reported, and ``precision=None`` stays byte-identical to the fixed-trial
results.

Peeking bias, stated honestly: stopping at the first batch whose interval is
narrow enough is optional stopping, so the reported CI's coverage is the
fixed-sample coverage at the realised trial count, not a fully sequential
(always-valid) band.  The half-width target bounds the *precision* of the
estimate; callers needing strict anytime coverage should use
``method="hoeffding"`` with a confidence adjusted for the O(log n/min)
looks, which the doubling schedule keeps small.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

from repro.obs import get_recorder
from repro.stats.accumulators import BernoulliAccumulator
from repro.stats.intervals import (
    ConfidenceInterval,
    hoeffding_interval,
    wilson_interval,
)

__all__ = ["PrecisionTarget", "ProbabilityEstimate", "run_estimate", "sequential_estimate"]

#: Interval methods a :class:`PrecisionTarget` may select.
_METHODS = ("wilson", "hoeffding")


@dataclass(frozen=True)
class PrecisionTarget:
    """A sequential-stopping rule for a Bernoulli proportion estimate.

    Attributes
    ----------
    half_width:
        Stop once the CI half-width is at most this (e.g. ``0.01`` for ±1%).
    confidence:
        Two-sided confidence level of the interval (default 95%).
    min_trials:
        Never stop before this many trials — guards against a lucky narrow
        interval on a handful of extreme outcomes.
    max_trials:
        Hard cap; ``None`` means "no cap here" and the estimators substitute
        their fixed trial budget, so a target can never run longer than the
        fixed-trial run it replaces unless explicitly told to.
    method:
        ``"wilson"`` (default) or ``"hoeffding"``.
    """

    half_width: float
    confidence: float = 0.95
    min_trials: int = 100
    max_trials: Optional[int] = None
    method: str = "wilson"

    def __post_init__(self) -> None:
        if not 0.0 < self.half_width < 0.5:
            raise ValueError("half_width must lie strictly inside (0, 0.5)")
        if not 0.0 < self.confidence < 1.0:
            raise ValueError("confidence must lie strictly inside (0, 1)")
        if self.min_trials < 1:
            raise ValueError("min_trials must be positive")
        if self.max_trials is not None and self.max_trials < self.min_trials:
            raise ValueError("max_trials must be at least min_trials")
        if self.method not in _METHODS:
            raise ValueError(f"unknown interval method {self.method!r}; expected {_METHODS}")

    # ------------------------------------------------------------------ #
    @classmethod
    def coerce(
        cls,
        precision: Union["PrecisionTarget", float, None],
        default_cap: Optional[int] = None,
    ) -> Optional["PrecisionTarget"]:
        """Normalize the ``precision=`` parameter of the estimators.

        ``None`` (and the registry's ``0.0`` sentinel) disable adaptive
        stopping; a bare float is shorthand for a target with that
        half-width; a :class:`PrecisionTarget` passes through.  In every
        adaptive case a missing ``max_trials`` is filled with
        ``default_cap`` — the caller's fixed trial budget — so the fixed
        budget becomes the cap rather than a point prescription.
        """
        if precision is None:
            return None
        if isinstance(precision, PrecisionTarget):
            target = precision
        else:
            half_width = float(precision)
            if half_width == 0.0:
                return None
            target = cls(half_width=half_width)
        if target.max_trials is None and default_cap is not None:
            # The caller's fixed budget is a hard cap: when it is smaller
            # than the default min_trials, min_trials shrinks to it — the
            # adaptive run must never outspend the fixed run it replaces.
            cap = max(1, int(default_cap))
            target = replace(
                target, min_trials=min(target.min_trials, cap), max_trials=cap
            )
        return target

    def interval(self, successes: int, trials: int) -> ConfidenceInterval:
        if self.method == "hoeffding":
            return hoeffding_interval(successes, trials, confidence=self.confidence)
        return wilson_interval(successes, trials, confidence=self.confidence)

    def satisfied(self, successes: int, trials: int) -> bool:
        """Whether the stopping criterion holds at these counts."""
        if trials < self.min_trials:
            return False
        return self.interval(successes, trials).half_width <= self.half_width


@dataclass(frozen=True)
class ProbabilityEstimate:
    """A Bernoulli estimate with its provenance: counts, CI, and whether the
    value was *derived* deterministically rather than sampled.

    ``deterministic`` estimates come from the engine's structural constant
    analysis (every vote/output program constant): the probability is exact,
    the interval degenerate, and ``trials`` records the single derivation
    rather than a Monte-Carlo budget.
    """

    successes: int
    trials: int
    ci_low: float
    ci_high: float
    confidence: float
    deterministic: bool = False

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("an estimate needs at least one trial")
        if not 0 <= self.successes <= self.trials:
            raise ValueError(f"successes must lie in [0, {self.trials}]")
        if self.ci_high < self.ci_low:
            raise ValueError("empty confidence interval")

    @property
    def estimate(self) -> float:
        return self.successes / self.trials

    @property
    def half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0

    @property
    def interval(self) -> ConfidenceInterval:
        return ConfidenceInterval(self.ci_low, self.ci_high, self.confidence)

    @classmethod
    def exact(cls, value: bool, confidence: float = 0.95) -> "ProbabilityEstimate":
        """The degenerate estimate of a structurally constant outcome."""
        numeric = 1.0 if value else 0.0
        return cls(
            successes=int(value),
            trials=1,
            ci_low=numeric,
            ci_high=numeric,
            confidence=confidence,
            deterministic=True,
        )


def sequential_estimate(
    target: PrecisionTarget,
    draw: Callable[[int], int],
) -> ProbabilityEstimate:
    """Drive a batched success counter until ``target`` is met.

    ``draw(count)`` must sample the **next** ``count`` trials of a
    chunk-invariant stream and return how many succeeded.  The schedule is
    deterministic — ``min_trials`` first, then the total doubles each round,
    truncated at ``max_trials`` — so for a fixed stream, the stopping trial
    count is a pure function of the data.
    """
    recorder = get_recorder()
    accumulator = BernoulliAccumulator()
    with recorder.span(
        "stats.sequential_estimate",
        method=target.method,
        half_width_target=target.half_width,
        min_trials=target.min_trials,
        max_trials=target.max_trials,
    ) as span:
        batch = target.min_trials
        stop_reason = "budget"
        while True:
            count = batch
            if target.max_trials is not None:
                count = min(count, target.max_trials - accumulator.trials)
            if count <= 0:
                break
            accumulator.update(draw(count), count)
            # Trajectory telemetry: the extra interval evaluation happens
            # only when a trace recorder is installed and never feeds back
            # into the stopping decision, which stays on target.satisfied.
            if recorder.active:
                recorder.counter("stats.rounds")
                recorder.counter("stats.trials", count)
                recorder.histogram(
                    "stats.ci_half_width",
                    target.interval(accumulator.successes, accumulator.trials).half_width,
                )
            if target.satisfied(accumulator.successes, accumulator.trials):
                stop_reason = "precision"
                break
            batch = accumulator.trials  # doubling schedule: total doubles per round
        span.annotate(
            trials=accumulator.trials,
            successes=accumulator.successes,
            stop_reason=stop_reason,
        )
    interval = target.interval(accumulator.successes, accumulator.trials)
    return ProbabilityEstimate(
        successes=accumulator.successes,
        trials=accumulator.trials,
        ci_low=interval.low,
        ci_high=interval.high,
        confidence=target.confidence,
    )


def run_estimate(
    draw: Callable[[int], int],
    trials: int,
    target: Optional[PrecisionTarget] = None,
    constant: Optional[bool] = None,
) -> ProbabilityEstimate:
    """Run one success stream, fixed or adaptive.

    ``draw(count)`` samples the **next** ``count`` trials of a
    chunk-invariant stream and returns how many succeeded.  With no
    ``target`` the estimate is one ``draw(trials)`` in a 95% Wilson
    interval.  With a target, ``constant`` (a structurally determined
    outcome, when the stream's builder knows one) gives the exact
    degenerate estimate without sampling; otherwise
    :func:`sequential_estimate` drives the stream to the target.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    if target is None:
        successes = draw(trials)
        interval = wilson_interval(successes, trials)
        return ProbabilityEstimate(
            successes=successes,
            trials=trials,
            ci_low=interval.low,
            ci_high=interval.high,
            confidence=interval.confidence,
        )
    if constant is not None:
        return ProbabilityEstimate.exact(constant, confidence=target.confidence)
    return sequential_estimate(target, draw)
