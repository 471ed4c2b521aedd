"""repro.stats — adaptive-precision statistics for the Monte-Carlo engine.

The fixed-trial estimators ask "how many trials?"; this layer answers "how
precise?".  It provides

* streaming accumulators (:class:`StreamingMoments`,
  :class:`BernoulliAccumulator`) that fold the engine's trial chunks into
  running statistics,
* confidence intervals for proportions (:func:`wilson_interval`,
  :func:`hoeffding_interval`) plus the tri-state interval-vs-threshold
  verdicts the CI-aware harness uses (``True`` / ``False`` / ``None`` =
  unresolved),
* the :class:`PrecisionTarget` sequential-stopping rule,
  :func:`sequential_estimate`, and :func:`run_estimate`, the one driver of
  every estimator's success stream: ``draw(trials)`` for a fixed run,
  sequential stopping over the same stream for an adaptive one (see
  :mod:`repro.stats.stopping` for the exactness contract: a fixed run is
  the first draw of the stream an adaptive run continues).

Entry points upward: ``Decider.acceptance_probability`` /
``estimate_guarantee`` / ``estimate_success_probability`` /
``far_acceptance_probability`` accept ``precision=``; registry specs declare
the precision capability; ``Session`` and the CLI expose
``--precision`` / ``--confidence``.
"""

from repro.stats.accumulators import BernoulliAccumulator, StreamingMoments
from repro.stats.intervals import (
    ConfidenceInterval,
    hoeffding_interval,
    normal_quantile,
    tri_all,
    wilson_half_width,
    wilson_interval,
)
from repro.stats.stopping import (
    PrecisionTarget,
    ProbabilityEstimate,
    run_estimate,
    sequential_estimate,
)

__all__ = [
    "BernoulliAccumulator",
    "StreamingMoments",
    "ConfidenceInterval",
    "normal_quantile",
    "wilson_interval",
    "hoeffding_interval",
    "wilson_half_width",
    "tri_all",
    "PrecisionTarget",
    "ProbabilityEstimate",
    "run_estimate",
    "sequential_estimate",
]
