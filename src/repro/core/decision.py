"""Distributed decision: LD and BPLD deciders (Sections 2.2.2 and 2.3).

A decider runs at every node of an input-output configuration and makes each
node output ``True`` (accept) or ``False`` (reject).  The configuration is
*accepted* when every node accepts, *rejected* otherwise.

* A *deterministic* decider for ``L`` (class LD) must accept every
  configuration in ``L`` and reject every configuration outside ``L``.
* A *randomized* decider with guarantee ``p > 1/2`` (class BPLD) must, for
  every configuration and every identity assignment, accept with probability
  at least ``p`` when the configuration is in ``L``, and reject with
  probability at least ``p`` when it is not — Eq. (1) of the paper.

Concrete deciders:

* :class:`LocalCheckerDecider` — the canonical LD decider for LCL languages:
  every node checks whether its own radius-``t`` ball is bad.
* :class:`AmosDecider` — the zero-round randomized decider for ``amos`` with
  guarantee ``p = (√5 − 1)/2 ≈ 0.618`` (Section 2.3.1).
* :class:`ResilientDecider` — the decider from the proof of Corollary 1
  showing that the f-resilient relaxation of any LCL language is in BPLD:
  a node with a good ball accepts; a node with a bad ball accepts with
  probability ``p`` chosen in ``(2^{-1/f}, 2^{-1/(f+1)})``.  The engine
  compiles it from the language's ``bad_mask``, without a ball.

:func:`estimate_guarantee` measures the empirical guarantee of a randomized
decider on a set of labelled configurations; experiment E1 and E5 are built
on it.

Multi-draw deciders (vote programs):

* :class:`ProgramDecider` — base class for deciders whose per-node rule is
  a Bernoulli circuit over the tape (:mod:`repro.engine.compiler` IR); the
  reference ``vote`` *interprets* the program against the tape, so the
  engine's compiled evaluation agrees with it by construction.
* :class:`AmplifiedResilientDecider` — the Corollary 1 decider with each
  bad-ball coin replaced by a majority vote of ``repetitions`` weaker
  coins (per-node error amplification; same acceptance distribution, now a
  genuine multi-draw program, compiled the same way).  With ``f = ⌊ε·n⌋``
  it also decides the ε-slack relaxation on ``n``-node instances
  (experiment E2).
* :class:`AmplifiedAmosDecider` — the amos decider with the selected-node
  coin amplified the same way (experiment E7).

Monte-Carlo entry points (:meth:`Decider.acceptance_probability`,
:meth:`Decider.acceptance_estimate`, :func:`estimate_guarantee`) read one
success stream per configuration (``_success_stream``), which
:func:`~repro.engine.adapters.engine_or_reference` builds from the batched
:mod:`repro.engine` subsystem whenever the decider exposes a compilable
vote, ``vote_program(ball)`` (all concrete deciders above do), and from the
reference per-trial loop otherwise.  The engine reproduces the per-node
tape streams of the reference loop bit for bit.  The default
``engine="auto"`` runs it whenever the decider compiles (and counts an
``engine.fallback.*`` signal when it does not, see
:mod:`repro.engine.adapters`), and ``engine="off"`` forces the reference
loop.  :func:`repro.stats.run_estimate` runs the stream: one
``draw(trials)`` for a fixed estimate, sequential stopping for a
``precision=`` target.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.languages import Configuration, DistributedLanguage, SELECTED
from repro.core.lcl import LCLLanguage
from repro.engine.adapters import engine_or_reference, resolve_engine
from repro.engine.compiler import (
    VoteExpr,
    coin,
    compile_decision,
    const,
    evaluate_vote_expr,
    majority,
)
from repro.engine.executor import AcceptStream, deterministic_accept_value
from repro.stats import PrecisionTarget, ProbabilityEstimate, run_estimate, wilson_half_width
from repro.local.ball import BallView
from repro.local.randomness import RandomTape, TapeFactory
from repro.local.simulator import run_ball_algorithm
from repro.local.algorithm import BallAlgorithm

__all__ = [
    "DecisionOutcome",
    "Decider",
    "DeterministicDecider",
    "RandomizedDecider",
    "ProgramDecider",
    "LocalCheckerDecider",
    "AmosDecider",
    "ResilientDecider",
    "AmplifiedResilientDecider",
    "AmplifiedAmosDecider",
    "GuaranteeEstimate",
    "estimate_guarantee",
    "golden_ratio_guarantee",
    "resilient_probability_window",
    "majority_success_probability",
    "per_draw_probability_for_majority",
]


def golden_ratio_guarantee() -> float:
    """The guarantee ``p = (√5 − 1)/2 ≈ 0.618`` of the amos decider."""
    return (math.sqrt(5.0) - 1.0) / 2.0


def majority_success_probability(per_draw: float, repetitions: int) -> float:
    """Pr[strict majority of ``repetitions`` i.i.d. coins of bias
    ``per_draw`` succeeds] — the outcome distribution of one amplified
    vote (binomial upper tail at ``repetitions // 2 + 1``)."""
    if not 0.0 <= per_draw <= 1.0:
        raise ValueError("the per-draw probability must lie in [0, 1]")
    if repetitions < 1:
        raise ValueError("need at least one repetition")
    threshold = repetitions // 2 + 1
    return float(
        sum(
            math.comb(repetitions, successes)
            * per_draw**successes
            * (1.0 - per_draw) ** (repetitions - successes)
            for successes in range(threshold, repetitions + 1)
        )
    )


@functools.lru_cache(maxsize=256)
def per_draw_probability_for_majority(target: float, repetitions: int) -> float:
    """The per-draw bias whose ``repetitions``-coin majority succeeds with
    probability ``target`` (inverse of :func:`majority_success_probability`,
    by at most 200 bisection steps — the tail is strictly increasing in the
    bias).  Memoized: the deciders of one run share a few targets."""
    if not 0.0 < target < 1.0:
        raise ValueError("the target probability must lie strictly inside (0, 1)")
    low, high = 0.0, 1.0
    for _ in range(200):
        mid = (low + high) / 2.0
        if mid == low or mid == high:
            # No float lies strictly between the ends, so every later step
            # would leave the midpoint where it is.
            break
        if majority_success_probability(mid, repetitions) < target:
            low = mid
        else:
            high = mid
    return (low + high) / 2.0


def resilient_probability_window(f: int) -> Tuple[float, float]:
    """The open interval ``(2^{-1/f}, 2^{-1/(f+1)})`` of Corollary 1.

    The proof picks the per-bad-ball acceptance probability ``p`` inside this
    window so that ``p^f > 1/2`` (yes-instances accepted with probability
    > 1/2) and ``p^{f+1} < 1/2`` (no-instances rejected with probability
    > 1/2).
    """
    if f < 1:
        raise ValueError("the resilience parameter f must be at least 1")
    low = 2.0 ** (-1.0 / f)
    high = 2.0 ** (-1.0 / (f + 1))
    return (low, high)


def _resilient_parameters(
    f: int, acceptance_probability: Optional[float]
) -> Tuple[float, float]:
    """The Corollary 1 decider's ``(p, guarantee)`` for resilience ``f``.

    Defaults ``p`` to the geometric mean of the open window and validates a
    caller-supplied value against it; the guarantee is
    ``min(p^f, 1 − p^{f+1}) > 1/2``.  Shared by the single-coin and the
    amplified (multi-draw) resilient deciders so the two cannot diverge.
    """
    low, high = resilient_probability_window(f)
    if acceptance_probability is None:
        acceptance_probability = math.sqrt(low * high)
    if not low < acceptance_probability < high:
        raise ValueError(
            f"acceptance probability must lie strictly inside "
            f"({low:.6f}, {high:.6f}) for f={f}; got {acceptance_probability}"
        )
    p = float(acceptance_probability)
    return p, min(p**f, 1.0 - p ** (f + 1))


@dataclass
class DecisionOutcome:
    """The result of one execution of a decider on a configuration."""

    votes: Dict[Hashable, bool]

    @property
    def accepted(self) -> bool:
        """Global acceptance: every node voted ``True``."""
        return all(self.votes.values())

    @property
    def rejected(self) -> bool:
        return not self.accepted

    def rejecting_nodes(self) -> List[Hashable]:
        return [node for node, vote in self.votes.items() if not vote]

    def accepted_far_from(
        self, configuration: Configuration, node: Hashable, distance: int
    ) -> bool:
        """Whether every node at distance **greater than** ``distance`` from
        ``node`` accepted — the "accepts far from u" event of Claim 4."""
        distances = configuration.network.distances_from(node)
        for other, vote in self.votes.items():
            if distances.get(other, math.inf) > distance and not vote:
                return False
        return True

    def rejecting_nodes_within(
        self, configuration: Configuration, node: Hashable, distance: int
    ) -> List[Hashable]:
        """Rejecting nodes at distance at most ``distance`` from ``node``
        (the set ``Reject(u, σ')`` of Claim 4)."""
        distances = configuration.network.distances_from(node, cutoff=distance)
        return [
            other
            for other in self.rejecting_nodes()
            if other in distances
        ]


class _DeciderBallAlgorithm(BallAlgorithm):
    """Internal adapter presenting a decider's per-node rule as a ball
    algorithm so it can run on the simulator."""

    def __init__(self, decider: "Decider") -> None:
        self.decider = decider
        self.radius = decider.radius
        self.randomized = decider.randomized
        self.name = f"decider({decider.name})"

    def compute(self, ball: BallView, tape: Optional[RandomTape] = None) -> object:
        return bool(self.decider.vote(ball, tape))


class Decider(ABC):
    """Base class of all deciders.

    A decider is specified by its checking ``radius`` (its round complexity
    ``t'`` in the paper), whether it is ``randomized``, and the per-node
    voting rule :meth:`vote`, which sees the node's radius-``radius`` ball
    *with outputs* and (for randomized deciders) the node's private tape.
    """

    name: str = "decider"
    radius: int = 0
    randomized: bool = False

    @abstractmethod
    def vote(self, ball: BallView, tape: Optional[RandomTape] = None) -> bool:
        """The boolean this node outputs."""

    # ------------------------------------------------------------------ #
    def decide(
        self,
        configuration: Configuration,
        tape_factory: Optional[TapeFactory] = None,
    ) -> DecisionOutcome:
        """Run the decider once on a configuration.

        ``tape_factory`` supplies the private randomness (one tape per node
        identity); deterministic deciders ignore it.  Passing the same
        factory state twice replays the same random string σ′, which is how
        the Claim 4 analysis fixes the decider's coins.
        """
        votes = run_ball_algorithm(
            configuration.network,
            _DeciderBallAlgorithm(self),
            tape_factory=tape_factory,
            outputs=configuration.outputs,
        )
        return DecisionOutcome(votes={node: bool(v) for node, v in votes.items()})

    def acceptance_probability(
        self,
        configuration: Configuration,
        trials: int = 200,
        seed: int = 0,
        engine: str = "auto",
        precision: Optional[object] = None,
    ) -> float:
        """Monte-Carlo estimate of Pr[all nodes accept] over the decider's
        coins: :meth:`acceptance_estimate` without the interval and the
        realized trial count."""
        return self.acceptance_estimate(
            configuration, trials=trials, seed=seed, engine=engine, precision=precision
        ).estimate

    def acceptance_estimate(
        self,
        configuration: Configuration,
        trials: int = 200,
        seed: int = 0,
        engine: str = "auto",
        precision: Optional[object] = None,
    ) -> ProbabilityEstimate:
        """Pr[all nodes accept] over the decider's coins, with its
        confidence interval and trial count.

        Trial ``t`` draws from ``TapeFactory(seed, salt=self.name,
        trial=t)``; the configuration is fixed, so only the coins are
        redrawn.  When the decider is compilable the trials run through
        :mod:`repro.engine`; see the module docstring for the ``engine``
        values (``auto`` is bit-identical to ``off``).

        Without a ``precision`` target this is the fixed ``trials``-trial
        estimate in a 95% Wilson interval.  A target (a
        :class:`~repro.stats.PrecisionTarget` or a bare half-width) streams
        the trials in chunks until the CI half-width target is met, with
        ``trials`` as the cap; a fixed run is the first draw of the same
        stream, so a stop at ``k`` trials reports exactly the fixed
        ``k``-trial estimate.  A non-randomized decider returns an exact
        degenerate estimate, and so does, under a target, a configuration
        on which every compiled vote program is constant.
        """
        target = PrecisionTarget.coerce(precision, default_cap=trials)
        path = resolve_engine(engine, self)
        if not self.randomized:
            return ProbabilityEstimate.exact(
                self.decide(configuration).accepted,
                confidence=target.confidence if target is not None else 0.95,
            )
        draw, constant = _success_stream(self, configuration, True, seed, self.name, path)
        return run_estimate(draw, trials, target, constant)


class DeterministicDecider(Decider):
    """A deterministic decider built from a predicate on balls-with-outputs."""

    randomized = False

    def __init__(
        self, rule: Callable[[BallView], bool], radius: int, name: str = "deterministic-decider"
    ) -> None:
        self._rule = rule
        self.radius = int(radius)
        self.name = name

    def vote(self, ball: BallView, tape: Optional[RandomTape] = None) -> bool:
        return bool(self._rule(ball))

    def vote_program(self, ball: BallView) -> VoteExpr:
        """Deterministic votes are constant programs that draw nothing."""
        return const(self._rule(ball))


class RandomizedDecider(Decider):
    """A randomized decider built from a rule ``(ball, tape) -> bool`` and a
    claimed guarantee ``p > 1/2``.

    To make the decider compilable by :mod:`repro.engine`, pass the
    equivalent Bernoulli circuit as ``vote_program`` — ``coin(p)`` for a
    rule that is one ``tape.bernoulli(p)`` on the ball (see
    :class:`ProgramDecider` for the contract).  Leave it unset for rules
    beyond the engine IR, which must stay on the reference path.
    """

    randomized = True

    def __init__(
        self,
        rule: Callable[[BallView, RandomTape], bool],
        radius: int,
        guarantee: float,
        name: str = "randomized-decider",
        vote_program: Optional[Callable[[BallView], VoteExpr]] = None,
    ) -> None:
        if not 0.5 < guarantee <= 1.0:
            raise ValueError("the guarantee p must lie in (1/2, 1]")
        self._rule = rule
        self.radius = int(radius)
        self.guarantee = float(guarantee)
        self.name = name
        # An instance attribute, so `is_compilable` sees it only when given.
        if vote_program is not None:
            self.vote_program = vote_program

    def vote(self, ball: BallView, tape: Optional[RandomTape] = None) -> bool:
        if tape is None:
            raise ValueError("a randomized decider needs a random tape")
        return bool(self._rule(ball, tape))


class ProgramDecider(Decider):
    """Base class for deciders defined by a per-node **vote program**.

    Subclasses implement :meth:`vote_program`, mapping a ball to a Bernoulli
    circuit over the node's tape (the :mod:`repro.engine.compiler` IR).  The
    reference :meth:`vote` *interprets* that program against the tape, so
    the engine's compiled evaluation is bit-identical to the reference path
    by construction — there is no second hand-written rule to keep in sync.
    """

    randomized = True

    def vote_program(self, ball: BallView) -> VoteExpr:
        """The node's vote as a Bernoulli circuit (must consume the tape
        exactly as the interpreted program does)."""
        raise NotImplementedError

    def vote(self, ball: BallView, tape: Optional[RandomTape] = None) -> bool:
        return bool(evaluate_vote_expr(self.vote_program(ball), tape))


class LocalCheckerDecider(DeterministicDecider):
    """The canonical LD decider of an LCL language.

    Every node inspects its radius-``t`` ball and accepts iff the ball is not
    in ``Bad(L)``.  The decider is perfect: a configuration is accepted iff
    it belongs to the language — this is what "locally checkable" means, and
    it witnesses ``L ∈ LD(t)``.
    """

    def __init__(self, language: LCLLanguage) -> None:
        super().__init__(
            rule=lambda ball: not language.is_bad_ball(ball),
            radius=language.radius,
            name=f"local-checker({language.name})",
        )
        self.language = language


class AmosDecider(RandomizedDecider):
    """The zero-round randomized decider for ``amos`` (Section 2.3.1).

    Every non-selected node accepts.  Every selected node accepts with
    probability ``p = (√5 − 1)/2`` and rejects with probability ``1 − p``.
    Error analysis from the paper: with a single selected node the
    configuration is accepted with probability ``p`` (as required); with two
    or more selected nodes it is rejected with probability at least
    ``1 − p² = p`` (the defining identity of the golden ratio), so the
    guarantee is exactly ``p``.
    """

    def __init__(self) -> None:
        p = golden_ratio_guarantee()
        super().__init__(
            rule=self._vote,
            radius=0,
            guarantee=p,
            name="amos-golden-ratio-decider",
        )

    @staticmethod
    def _vote(ball: BallView, tape: RandomTape) -> bool:
        if ball.center_output() != SELECTED:
            return True
        return tape.bernoulli(golden_ratio_guarantee())

    def vote_program(self, ball: BallView) -> VoteExpr:
        """Non-selected nodes accept surely; selected nodes with probability
        ``p`` — the compiled form of :meth:`_vote`."""
        if ball.center_output() != SELECTED:
            return const(True)
        return coin(golden_ratio_guarantee())


class _CorollaryOneDecider(ProgramDecider):
    """The decider of Corollary 1's proof: a node whose ball is good for the
    LCL ``language`` accepts, and a node in ``F(G)`` runs
    ``bad_ball_program``, which accepts with probability ``p_bad_ball``.
    The votes depend only on ``F(G)``, so :meth:`vote_programs` reads them
    off ``language.bad_mask`` without a ball (the compiler's path)."""

    language: LCLLanguage
    p_bad_ball: float
    bad_ball_program: VoteExpr

    def vote_program(self, ball: BallView) -> VoteExpr:
        """Good balls accept surely; bad balls run ``bad_ball_program``."""
        if not self.language.is_bad_ball(ball):
            return const(True)
        return self.bad_ball_program

    def vote_programs(self, configuration: Configuration) -> List[VoteExpr]:
        """Every node's :meth:`vote_program`, in node order, from ``F(G)``."""
        good = const(True)
        return [
            self.bad_ball_program if bad else good
            for bad in self.language.bad_mask(configuration)
        ]

    def theoretical_acceptance(self, bad_ball_count: int) -> float:
        """Exact Pr[all nodes accept] for a configuration with the given
        number of bad balls (the coins at distinct nodes are independent)."""
        return self.p_bad_ball ** int(bad_ball_count)


class ResilientDecider(_CorollaryOneDecider):
    """The BPLD decider of the f-resilient relaxation ``L_f`` (Corollary 1).

    Every node collects its radius-``t`` ball (``t`` = checking radius of the
    base LCL language).  If the ball is good the node accepts; if the ball is
    bad the node accepts with probability ``p`` and rejects with probability
    ``1 − p`` (``bad_ball_program`` is the single draw ``coin(p)``), where
    ``p`` lies in the open window ``(2^{-1/f}, 2^{-1/(f+1)})``.

    * On a yes-instance (at most ``f`` bad balls) all nodes accept with
      probability at least ``p^f > 1/2``.
    * On a no-instance (at least ``f + 1`` bad balls) some node rejects with
      probability at least ``1 − p^{f+1} > 1/2``.

    Hence ``L_f ∈ BPLD`` with guarantee ``min(p^f, 1 − p^{f+1}) > 1/2``.
    """

    def __init__(
        self,
        language: LCLLanguage,
        f: int,
        acceptance_probability: Optional[float] = None,
    ) -> None:
        self.language = language
        self.f = int(f)
        self.p_bad_ball, self.guarantee = _resilient_parameters(f, acceptance_probability)
        self.bad_ball_program = coin(self.p_bad_ball)
        self.radius = int(language.radius)
        self.name = f"resilient-decider({language.name}, f={f})"


class AmplifiedResilientDecider(_CorollaryOneDecider):
    """The Corollary 1 decider with per-node error amplification — a genuine
    **multi-draw** decider.

    Each bad-ball node, instead of a single ``bernoulli(p)`` coin, takes the
    strict majority of ``repetitions`` i.i.d. coins whose per-draw bias is
    calibrated so the majority succeeds with exactly the same probability
    ``p ∈ (2^{-1/f}, 2^{-1/(f+1)})`` (:func:`per_draw_probability_for_majority`).
    The acceptance *distribution* is therefore identical to
    :class:`ResilientDecider` — same guarantee, same closed form
    ``p^{|F(G)|}`` — but the per-node rule consumes ``repetitions``
    sequential tape draws, which exercises the engine's vote-program IR
    (experiments E2 and E3 run this decider through the engine).

    With ``f = ⌊ε·n⌋`` the same decider decides the ε-slack relaxation on
    ``n``-node instances: an ε-slack instance *is* an f-resilient instance
    once the instance size is fixed.
    """

    def __init__(
        self,
        language: LCLLanguage,
        f: int,
        repetitions: int = 3,
        acceptance_probability: Optional[float] = None,
    ) -> None:
        repetitions = int(repetitions)
        if repetitions < 1 or repetitions % 2 == 0:
            raise ValueError("repetitions must be a positive odd number (majority vote)")
        self.language = language
        self.f = int(f)
        self.repetitions = repetitions
        self.p_bad_ball, self.guarantee = _resilient_parameters(f, acceptance_probability)
        self.per_draw_probability = per_draw_probability_for_majority(
            self.p_bad_ball, repetitions
        )
        self.radius = int(language.radius)
        self.name = (
            f"amplified-resilient-decider({language.name}, f={f}, k={repetitions})"
        )
        self.bad_ball_program = majority(repetitions, self.per_draw_probability)


class AmplifiedAmosDecider(ProgramDecider):
    """The zero-round amos decider with the selected-node coin amplified.

    Selected nodes take the strict majority of ``repetitions`` i.i.d. coins
    calibrated so the majority accepts with exactly ``p = (√5 − 1)/2``;
    non-selected nodes accept surely.  Distributionally identical to
    :class:`AmosDecider` (guarantee ``p``), but each selected node consumes
    ``repetitions`` sequential draws — the multi-draw workload of the E7
    separation experiment.
    """

    def __init__(self, repetitions: int = 3) -> None:
        repetitions = int(repetitions)
        if repetitions < 1 or repetitions % 2 == 0:
            raise ValueError("repetitions must be a positive odd number (majority vote)")
        p = golden_ratio_guarantee()
        self.repetitions = repetitions
        self.guarantee = p
        self.per_draw_probability = per_draw_probability_for_majority(p, repetitions)
        self.radius = 0
        self.name = f"amplified-amos-decider(k={repetitions})"
        self._selected_program = majority(repetitions, self.per_draw_probability)

    def vote_program(self, ball: BallView) -> VoteExpr:
        if ball.center_output() != SELECTED:
            return const(True)
        return self._selected_program


# --------------------------------------------------------------------------- #
# Guarantee estimation
# --------------------------------------------------------------------------- #
@dataclass
class GuaranteeEstimate:
    """Empirical guarantee of a decider on labelled configurations.

    ``per_configuration`` maps an index to a tuple ``(is_member,
    success_rate, half_width)`` where *success* means "all accept" on members
    and "some node rejects" on non-members.  The ``guarantee`` is the minimum
    success rate over all configurations — the empirical counterpart of the
    paper's ``p``.  ``trials_used`` records how many trials each
    configuration consumed (equal to the fixed budget without a precision
    target; possibly fewer with one).
    """

    per_configuration: Dict[int, Tuple[bool, float, float]] = field(default_factory=dict)
    trials_used: Dict[int, int] = field(default_factory=dict)

    @property
    def guarantee(self) -> float:
        if not self.per_configuration:
            return float("nan")
        return min(rate for (_member, rate, _hw) in self.per_configuration.values())

    @property
    def worst_member_rate(self) -> float:
        rates = [r for (member, r, _hw) in self.per_configuration.values() if member]
        return min(rates) if rates else float("nan")

    @property
    def worst_non_member_rate(self) -> float:
        rates = [r for (member, r, _hw) in self.per_configuration.values() if not member]
        return min(rates) if rates else float("nan")


def estimate_guarantee(
    decider: Decider,
    language: DistributedLanguage,
    configurations: Sequence[Configuration],
    trials: int = 400,
    seed: int = 0,
    engine: str = "auto",
    precision: Optional[object] = None,
) -> GuaranteeEstimate:
    """Estimate the guarantee of ``decider`` for ``language``.

    For every configuration, membership is evaluated with the language's own
    (global) predicate, and the decider is run ``trials`` times with fresh
    coins.  Success means "accepted" on members and "rejected" on
    non-members, matching Eq. (1).  Deterministic deciders are run once.
    Compilable randomized deciders dispatch their trials to
    :mod:`repro.engine` (``engine="auto"`` reproduces the reference coins
    bit for bit; see the module docstring).

    ``precision`` (a :class:`~repro.stats.PrecisionTarget` or a bare
    half-width) runs each configuration's trials sequentially until the CI
    half-width target is met, with ``trials`` as the per-configuration cap.
    A fixed run is the first draw of the same stream, so a configuration
    stopping at ``k`` trials reports exactly its fixed ``k``-trial rate.
    Fixed rows report :func:`~repro.stats.wilson_half_width`; adaptive rows
    the half-width of the target's interval.
    """
    target = PrecisionTarget.coerce(precision, default_cap=trials)
    path = resolve_engine(engine, decider)
    if not decider.randomized:
        trials, target = 1, None
    estimate = GuaranteeEstimate()
    for index, configuration in enumerate(configurations):
        member = language.contains(configuration)
        draw, constant = _success_stream(
            decider, configuration, member, seed, f"{decider.name}/{index}", path
        )
        result = run_estimate(draw, trials, target, constant)
        fixed_width = wilson_half_width(result.successes, result.trials)
        half_width = result.half_width if target is not None else fixed_width
        estimate.per_configuration[index] = (member, result.estimate, half_width)
        estimate.trials_used[index] = result.trials
    return estimate


def _success_stream(
    decider: Decider,
    configuration: Configuration,
    member: bool,
    seed: int,
    salt: str,
    path: str,
) -> Tuple[Callable[[int], int], Optional[bool]]:
    """The success stream of ``decider`` on one configuration.

    Returns ``(draw, constant)``: ``draw(count)`` runs the next ``count``
    trials — trial ``t`` draws from ``TapeFactory(seed, salt, trial=t)`` —
    and counts the successes, i.e. acceptances when ``member`` and
    rejections otherwise.  ``constant`` is the structurally determined
    success of an engine-compiled configuration whose vote programs are all
    constant, ``None`` otherwise.  The engine builds the stream on the
    engine ``path``, the reference loop otherwise (see
    :func:`~repro.engine.adapters.engine_or_reference`).
    """

    def from_engine() -> Tuple[Callable[[int], int], Optional[bool]]:
        compiled = compile_decision(decider, configuration)
        stream = AcceptStream(compiled, seed=seed, salt=salt)

        def draw(count: int) -> int:
            accepted = int(np.count_nonzero(stream.sample(count)))
            return accepted if member else count - accepted

        constant = deterministic_accept_value(compiled)
        return draw, None if constant is None else constant == member

    def from_reference() -> Tuple[Callable[[int], int], Optional[bool]]:
        # The configuration is fixed across trials: extract the balls once
        # and redraw only the coins, like repeated decide() calls.
        network = configuration.network
        balls = [
            (network.identity(node), configuration.ball(node, decider.radius))
            for node in configuration.nodes()
        ]
        offset = 0

        def draw(count: int) -> int:
            nonlocal offset
            successes = 0
            for trial in range(offset, offset + count):
                factory = TapeFactory(seed, salt=salt, trial=trial)
                accepted = all(
                    decider.vote(ball, factory.tape_for(identity) if decider.randomized else None)
                    for identity, ball in balls
                )
                successes += int(accepted == member)
            offset += count
            return successes

        return draw, None

    return engine_or_reference(path, from_engine, from_reference)
