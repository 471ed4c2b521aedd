"""BPLD#node — randomized local decision with knowledge of n (Section 5).

The paper's discussion of open problems singles out the class **BPLD#node**:
languages decidable in constant time by a randomized algorithm whose nodes
additionally know the number of nodes ``n``.  Two facts from Section 5 are
made executable here:

* the ε-slack relaxation of (Δ+1)-coloring **is** in BPLD#node: run the
  Corollary 1 decider with the resilience budget set to ``f = ⌊ε·n⌋`` — each
  node needs ``n`` to compute its acceptance probability, which is exactly
  why the language escapes plain BPLD;
* Theorem 1 does **not** extend to BPLD#node: the ε-slack relaxation has a
  zero-round Monte-Carlo constructor (the uniform random coloring) but no
  constant-time deterministic constructor — the same order-invariant
  monochromatic-core argument as for the f-resilient case shows every
  order-invariant constant-round algorithm leaves a *constant fraction* of
  bad balls on the consecutively-labelled cycle, exceeding ``ε·n`` for small
  ε.  :func:`bpld_node_counterexample_report` packages that evidence.

The decider here is *size-aware* and therefore does not subclass
:class:`repro.core.decision.Decider` (whose rule sees only the ball); it has
the same interface otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, Optional, Sequence

from repro.core.decision import DecisionOutcome
from repro.core.languages import Configuration
from repro.core.lcl import LCLLanguage, ProperColoring
from repro.core.order_invariant import enumerate_order_invariant_cycle_algorithms
from repro.core.relaxations import EpsSlackLanguage, eps_slack
from repro.graphs.families import cycle_network
from repro.local.randomness import TapeFactory
from repro.local.simulator import run_ball_algorithm

__all__ = [
    "SizeAwareSlackDecider",
    "slack_probability_window",
    "BpldNodeCounterexample",
    "bpld_node_counterexample_report",
]


def slack_probability_window(allowed_bad: int) -> tuple[float, float]:
    """The acceptance-probability window for a budget of ``allowed_bad`` bad
    balls, i.e. the Corollary 1 window ``(2^{-1/f}, 2^{-1/(f+1)})`` with
    ``f = allowed_bad`` (and the degenerate ``(0, 2^{-1})`` window for a zero
    budget, where any acceptance probability below 1/2 works)."""
    if allowed_bad < 0:
        raise ValueError("the budget must be non-negative")
    if allowed_bad == 0:
        return (0.0, 0.5)
    return (2.0 ** (-1.0 / allowed_bad), 2.0 ** (-1.0 / (allowed_bad + 1)))


class SizeAwareSlackDecider:
    """A BPLD#node decider for the ε-slack relaxation of an LCL language.

    Every node collects its radius-``t`` ball; nodes with good balls accept;
    nodes with bad balls accept with probability ``p(n)`` chosen inside the
    window of :func:`slack_probability_window` for the budget ``⌊ε·n⌋``.
    Knowledge of ``n`` enters only through that choice of ``p(n)`` — exactly
    the "#node" oracle of Section 5.

    The guarantee is the same algebra as Corollary 1: configurations with at
    most ``⌊ε·n⌋`` bad balls are accepted with probability ``> 1/2`` and
    configurations with more are rejected with probability ``> 1/2``.
    """

    def __init__(self, language: LCLLanguage, eps: float) -> None:
        if not 0.0 <= eps <= 1.0:
            raise ValueError("the slack fraction ε must lie in [0, 1]")
        self.language = language
        self.eps = float(eps)
        self.radius = language.radius
        self.randomized = True
        self.name = f"size-aware-slack-decider({language.name}, eps={eps})"

    # ------------------------------------------------------------------ #
    def acceptance_probability_per_bad_ball(self, n: int) -> float:
        """The per-bad-ball acceptance probability ``p(n)``."""
        budget = self.allowed_bad(n)
        low, high = slack_probability_window(budget)
        if budget == 0:
            return high / 2.0
        return math.sqrt(low * high)

    def allowed_bad(self, n: int) -> int:
        return int(self.eps * n)

    def guarantee(self, n: int) -> float:
        """The size-dependent guarantee ``min(p^f, 1 − p^{f+1}) > 1/2``."""
        p = self.acceptance_probability_per_bad_ball(n)
        f = self.allowed_bad(n)
        return min(p**f if f else 1.0, 1.0 - p ** (f + 1))

    def decide(
        self,
        configuration: Configuration,
        tape_factory: Optional[TapeFactory] = None,
    ) -> DecisionOutcome:
        factory = tape_factory if tape_factory is not None else TapeFactory(0)
        n = len(configuration)
        p = self.acceptance_probability_per_bad_ball(n)
        votes: Dict[Hashable, bool] = {}
        for node in configuration.nodes():
            ball = configuration.ball(node, self.radius)
            if not self.language.is_bad_ball(ball):
                votes[node] = True
                continue
            tape = factory.tape_for(configuration.network.identity(node))
            votes[node] = tape.bernoulli(p)
        return DecisionOutcome(votes=votes)

    def acceptance_probability(
        self, configuration: Configuration, trials: int = 200, seed: int = 0
    ) -> float:
        """Monte-Carlo estimate of Pr[all nodes accept]."""
        n = len(configuration)
        p = self.acceptance_probability_per_bad_ball(n)
        bad = self.language.violation_count(configuration)
        # The coins at distinct nodes are independent, so the exact value is
        # available; the Monte-Carlo estimate is kept for interface symmetry.
        exact = p**bad
        if trials <= 0:
            return exact
        accepted = 0
        for trial in range(trials):
            factory = TapeFactory(seed, salt=self.name, trial=trial)
            accepted += int(self.decide(configuration, tape_factory=factory).accepted)
        return accepted / trials

    def theoretical_acceptance(self, configuration: Configuration) -> float:
        """Exact Pr[all accept] = p(n)^{#bad balls}."""
        n = len(configuration)
        p = self.acceptance_probability_per_bad_ball(n)
        return p ** self.language.violation_count(configuration)


# --------------------------------------------------------------------------- #
# Why Theorem 1 does not extend to BPLD#node
# --------------------------------------------------------------------------- #
@dataclass
class BpldNodeCounterexample:
    """Evidence that the ε-slack relaxation separates BPLD#node from the reach
    of Theorem 1.

    Attributes
    ----------
    eps:
        The slack fraction.
    n:
        Size of the consecutively-labelled witness cycle.
    decider_guarantee:
        Guarantee of the size-aware decider on that size (must exceed 1/2 —
        the language is in BPLD#node).
    randomized_constructor_exists:
        Whether the zero-round random coloring meets the slack budget in
        expectation (``expected bad fraction < ε``), i.e. a constant-time
        Monte-Carlo constructor exists.
    best_order_invariant_bad_fraction:
        The smallest fraction of bad balls achievable by any order-invariant
        radius-1 algorithm on the witness cycle; above ``eps`` this rules out
        constant-time deterministic construction (via Claim 1).
    deterministic_constructor_ruled_out:
        ``best_order_invariant_bad_fraction > eps``.
    """

    eps: float
    n: int
    decider_guarantee: float
    randomized_constructor_exists: bool
    best_order_invariant_bad_fraction: float
    deterministic_constructor_ruled_out: bool


def bpld_node_counterexample_report(
    eps: float = 0.6,
    n: int = 24,
    num_colors: int = 3,
) -> BpldNodeCounterexample:
    """Assemble the Section 5 counterexample for the ε-slack relaxation.

    The expected bad fraction of the uniform random ``q``-coloring on the
    cycle is ``1 − (1 − 1/q)²`` (= 5/9 for q = 3); for any ``eps`` above it a
    zero-round Monte-Carlo constructor exists, while every order-invariant
    radius-1 algorithm is monochromatic on the core of the
    consecutively-labelled cycle and therefore leaves a bad fraction close
    to 1, far above ``eps``.
    """
    base = ProperColoring(num_colors)
    language: EpsSlackLanguage = eps_slack(base, eps)
    decider = SizeAwareSlackDecider(base, eps)
    network = cycle_network(n, ids="consecutive")

    expected_bad_fraction = 1.0 - (1.0 - 1.0 / num_colors) ** 2
    best_fraction = 1.0
    for algorithm in enumerate_order_invariant_cycle_algorithms(
        1, list(range(1, num_colors + 1))
    ):
        outputs = run_ball_algorithm(network, algorithm)
        fraction = base.fraction_bad(Configuration(network, outputs))
        best_fraction = min(best_fraction, fraction)

    return BpldNodeCounterexample(
        eps=eps,
        n=n,
        decider_guarantee=decider.guarantee(n),
        randomized_constructor_exists=expected_bad_fraction < eps,
        best_order_invariant_bad_fraction=best_fraction,
        deterministic_constructor_ruled_out=best_fraction > eps,
    )
