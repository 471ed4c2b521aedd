"""The derandomization machinery of Theorem 1 (Section 3).

The proof of Theorem 1 is constructive enough to execute: assuming a
Monte-Carlo constructor ``C`` (success probability ``r``) for a language
``L ∈ BPLD`` (decider ``D`` with guarantee ``p``) and assuming no ``t``-round
deterministic constructor exists, it

1. counts the finite family of order-invariant algorithms and sets
   ``β = 1/N`` (Claim 2) — :func:`beta_from_algorithm_count`;
2. collects hard instances ``(H_i, x_i, id_i)`` on which ``C`` fails with
   probability ≥ β, with pairwise-disjoint identity ranges and arbitrarily
   large diameters — :func:`find_hard_instances`;
3. amplifies the failure: on the disjoint union of ``ν`` hard instances
   (Claim 3), ``Pr[D accepts C(G)] ≤ (1 − βp)^ν``, which drops below ``r·p``
   for the ``ν`` of Eq. (3) — :func:`nu_disconnected`,
   :func:`amplification_disjoint_union`;
4. for the connected case, chooses in each ``H_i`` an anchor ``u_i`` whose
   *far* acceptance probability is at most ``1 − β(1−p)/μ`` (Claims 4 and 5,
   with ``μ = ⌈1/(2p−1)⌉``) — :func:`far_acceptance_probability`,
   :func:`choose_anchor` — and glues the instances through doubly-subdivided
   edges into a connected graph (Theorem 1's construction), on which
   ``Pr[D accepts C(G)] ≤ (1 − β(1−p)/μ)^{ν'}`` — :func:`nu_connected`,
   :func:`amplification_glued`.

The contradiction with ``Pr[D accepts C(G)] ≥ p · Pr[C(G) ∈ L] ≥ p·r``
concludes the proof.  Experiments E6 and E9 execute steps 3–4 numerically on
a toy language with a deliberately faulty constructor and verify the decay
the proof predicts.

Every estimate here reads one success stream: the hard-instance screening
reads the constructor's (shared with
:func:`~repro.core.construction.estimate_success_probability`), and
:func:`far_acceptance_probability` and :func:`choose_anchor` read one
far-acceptance stream that counts every candidate anchor in one pass.
:func:`~repro.engine.adapters.engine_or_reference` builds each stream from
the construction engine when the constructor compiles (and, for far
acceptance and the amplification runs, the decider fuses onto it), from
the reference per-trial loop otherwise, and :func:`repro.stats.run_estimate`
runs it.  There is no third path: a decider that does not fuse runs the
whole estimate on the reference loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Hashable, List, Optional, Sequence, Tuple

from repro.core.construction import Constructor, _success_stream
from repro.core.decision import Decider
from repro.core.languages import DistributedLanguage
from repro.engine.adapters import engine_or_reference
from repro.engine.construct import (
    batched_acceptance_and_membership,
    far_acceptance_stream,
    resolve_construction_engine,
)
from repro.stats import PrecisionTarget, run_estimate
from repro.graphs.operations import GlueResult, disjoint_union, glue_instances
from repro.local.network import Network
from repro.local.randomness import TapeFactory

__all__ = [
    "DerandomizationParameters",
    "beta_from_algorithm_count",
    "mu_from_guarantee",
    "diameter_requirement",
    "nu_disconnected",
    "nu_connected",
    "find_hard_instances",
    "HardInstance",
    "far_acceptance_probability",
    "choose_anchor",
    "AmplificationReport",
    "amplification_disjoint_union",
    "amplification_glued",
]


# --------------------------------------------------------------------------- #
# The numeric parameters of the proof
# --------------------------------------------------------------------------- #
def beta_from_algorithm_count(n_algorithms: int) -> float:
    """``β = 1/N`` where ``N`` is the number of order-invariant algorithms
    (Claim 2)."""
    if n_algorithms < 1:
        raise ValueError("there must be at least one order-invariant algorithm")
    return 1.0 / float(n_algorithms)


def mu_from_guarantee(p: float) -> int:
    """``μ = ⌈1 / (2p − 1)⌉`` — the number of pairwise-far candidate anchors
    examined in each hard instance (Claim 4).

    Claim 4's contradiction needs the *strict* inequality ``μ(2p − 1) > 1``;
    when ``1/(2p − 1)`` is an integer the paper's ceiling gives equality, so
    we bump μ by one in that case (the construction only gets easier with a
    larger μ, it just demands a slightly larger diameter).
    """
    if not 0.5 < p <= 1.0:
        raise ValueError("the guarantee p must lie in (1/2, 1]")
    mu = int(math.ceil(1.0 / (2.0 * p - 1.0)))
    if mu * (2.0 * p - 1.0) <= 1.0:
        mu += 1
    return mu


def diameter_requirement(mu: int, t: int, t_prime: int) -> int:
    """``D = 2·μ·(t + t')`` — the minimum diameter of the hard instances in
    the connected construction, so that μ anchors pairwise at distance
    ``≥ 2(t + t')`` exist."""
    if mu < 1 or t < 0 or t_prime < 0:
        raise ValueError("invalid parameters")
    return 2 * mu * (t + t_prime)


def nu_disconnected(r: float, p: float, beta: float) -> int:
    """Eq. (3): ``ν = 1 + ⌈ln(r·p) / ln(1 − β·p)⌉``.

    This is the number of hard instances whose disjoint union makes
    ``(1 − βp)^ν / p < r``, contradicting the success probability ``r`` of
    the constructor (Claim 3).
    """
    _validate_probabilities(r, p, beta)
    return 1 + int(math.ceil(math.log(r * p) / math.log(1.0 - beta * p)))


def nu_connected(r: float, p: float, beta: float, mu: Optional[int] = None) -> int:
    """The ``ν'`` of the connected construction.

    The paper picks ``ν' = 1 + ⌈ln(r·p) / ln((1/p)(1 − β(1−p)/μ))⌉`` so that
    ``(1/p)(1 − β(1−p)/μ)^{ν'} < r``.  When the closed form's logarithm
    argument is not below 1 (possible for small μ and small β where the
    1/p factor dominates a single step), we return instead the smallest
    ``ν'`` achieving the same inequality by direct search — the quantity the
    proof actually needs.
    """
    _validate_probabilities(r, p, beta)
    if mu is None:
        mu = mu_from_guarantee(p)
    if mu < 1:
        raise ValueError("μ must be at least 1")
    per_instance = 1.0 - beta * (1.0 - p) / mu
    argument = per_instance / p
    if argument < 1.0:
        return 1 + int(math.ceil(math.log(r * p) / math.log(argument)))
    # Direct search: smallest ν' with (1/p) · per_instance^{ν'} < r.
    nu_prime = 1
    while (per_instance**nu_prime) / p >= r:
        nu_prime += 1
        if nu_prime > 10_000_000:
            raise RuntimeError("ν' search did not converge")
    return nu_prime


def _validate_probabilities(r: float, p: float, beta: float) -> None:
    if not 0.0 < r <= 1.0:
        raise ValueError("the construction success probability r must lie in (0, 1]")
    if not 0.5 < p <= 1.0:
        raise ValueError("the decision guarantee p must lie in (1/2, 1]")
    if not 0.0 < beta <= 1.0:
        raise ValueError("the failure probability β must lie in (0, 1]")
    if r * p >= 1.0:
        raise ValueError("r·p must be strictly below 1 for the formulas to apply")


@dataclass(frozen=True)
class DerandomizationParameters:
    """All numeric parameters of the proof of Theorem 1, derived from the
    success probability ``r`` of the constructor, the guarantee ``p`` of the
    decider, the failure bound ``β`` of Claim 2, and the round complexities
    ``t`` (constructor) and ``t'`` (decider)."""

    r: float
    p: float
    beta: float
    t: int
    t_prime: int

    def __post_init__(self) -> None:
        _validate_probabilities(self.r, self.p, self.beta)
        if self.t < 0 or self.t_prime < 0:
            raise ValueError("round complexities must be non-negative")

    @property
    def mu(self) -> int:
        return mu_from_guarantee(self.p)

    @property
    def required_diameter(self) -> int:
        return diameter_requirement(self.mu, self.t, self.t_prime)

    @property
    def nu(self) -> int:
        """Number of instances for the disconnected amplification (Eq. 3)."""
        return nu_disconnected(self.r, self.p, self.beta)

    @property
    def nu_prime(self) -> int:
        """Number of instances for the connected (glued) amplification."""
        return nu_connected(self.r, self.p, self.beta, self.mu)

    def disconnected_bound(self, nu: Optional[int] = None) -> float:
        """The Claim 3 bound ``(1 − βp)^ν / p`` on ``Pr[C(G) ∈ L]``."""
        nu = self.nu if nu is None else nu
        return ((1.0 - self.beta * self.p) ** nu) / self.p

    def connected_bound(self, nu_prime: Optional[int] = None) -> float:
        """The Theorem 1 bound ``(1 − β(1−p)/μ)^{ν'} / p`` on ``Pr[C(G) ∈ L]``."""
        nu_prime = self.nu_prime if nu_prime is None else nu_prime
        per_instance = 1.0 - self.beta * (1.0 - self.p) / self.mu
        return (per_instance**nu_prime) / self.p

    def far_acceptance_threshold(self) -> float:
        """The Claim 5 threshold ``1 − β(1−p)/μ`` a good anchor must satisfy."""
        return 1.0 - self.beta * (1.0 - self.p) / self.mu


# --------------------------------------------------------------------------- #
# Hard instances (Claim 2)
# --------------------------------------------------------------------------- #
@dataclass
class HardInstance:
    """An instance on which the constructor fails with probability ≥ β."""

    network: Network
    estimated_failure: float
    trials: int


def find_hard_instances(
    constructor: Constructor,
    language: DistributedLanguage,
    candidates: Sequence[Network],
    beta: float,
    count: int,
    trials: int = 200,
    seed: int = 0,
    engine: str = "auto",
) -> List[HardInstance]:
    """Search candidate instances for ones where ``C`` fails with probability
    at least ``β`` (the per-instance guarantee of Claim 2).

    The candidates should already come with pairwise-disjoint identity ranges
    and the required diameters (use
    :func:`repro.graphs.operations.relabel_disjoint` and the family
    generators); this function only performs the failure-probability
    screening.  Raises ``RuntimeError`` when fewer than ``count`` hard
    instances are found — for a genuinely constant-time-solvable language
    that is the expected outcome and is, in effect, the proof failing to
    derive its contradiction.
    """
    path = resolve_construction_engine(engine, constructor)
    runs = trials if constructor.randomized else 1
    found: List[HardInstance] = []
    for index, network in enumerate(candidates):
        draw, _constant = _success_stream(
            constructor, language, network, seed, f"hard/{index}", path
        )
        rate = (runs - run_estimate(draw, runs).successes) / runs
        if rate >= beta:
            found.append(HardInstance(network, rate, runs))
            if len(found) >= count:
                return found
    raise RuntimeError(
        f"only {len(found)} of the requested {count} hard instances found; "
        "the constructor may simply be correct (no contradiction available)"
    )


# --------------------------------------------------------------------------- #
# Far-acceptance probabilities and anchors (Claims 4 and 5)
# --------------------------------------------------------------------------- #
def far_acceptance_probability(
    constructor: Constructor,
    decider: Decider,
    network: Network,
    node: Hashable,
    distance: int,
    trials: int = 200,
    seed: int = 0,
    engine: str = "auto",
    precision: Optional[object] = None,
) -> float:
    """Estimate ``Pr[D accepts C(H) far from u]``.

    "Far from u" means every node at distance strictly greater than
    ``distance`` (the paper uses ``t + t'``) outputs true.  The probability
    is over both the constructor's and the decider's coins.  Trial ``t``
    draws both sides' coins from ``TapeFactory(seed, salt, trial=t)`` with
    salts ``"far/construct"`` / ``"far/decide"``.

    When the constructor compiles (:mod:`repro.engine.construct`) and the
    decider fuses (radius 0, one coin per node), the trials run as batched
    construct→decide passes; otherwise the reference loop rebuilds and
    decides the configuration per trial.  ``engine="auto"`` is
    bit-identical to ``"off"``.

    ``precision`` (a :class:`~repro.stats.PrecisionTarget` or a bare
    half-width) switches to sequential stopping with ``trials`` as the cap.
    A fixed run is the first draw of the same stream, so a stop at ``k``
    trials reports exactly the fixed ``k``-trial estimate.
    """
    target = PrecisionTarget.coerce(precision, default_cap=trials)
    draw = _far_acceptance_stream(constructor, decider, network, [node], distance, seed, engine)
    return run_estimate(lambda count: draw(count)[0], trials, target).estimate


def _far_acceptance_stream(
    constructor: Constructor,
    decider: Decider,
    network: Network,
    candidates: Sequence[Hashable],
    distance: int,
    seed: int,
    engine: str,
) -> Callable[[int], List[int]]:
    """The far-acceptance stream of every candidate anchor at once.

    ``draw(count)`` runs the next ``count`` construct→decide trials and
    returns, per candidate, how many accepted far from it.  The coins do
    not depend on the candidate, so each trial is constructed and decided
    once for all of them.  The fused engine pass builds the stream when the
    constructor compiles and the decider fuses, the reference loop
    otherwise (see :func:`~repro.engine.adapters.engine_or_reference`).
    """

    def from_reference() -> Callable[[int], List[int]]:
        offset = 0

        def draw(count: int) -> List[int]:
            nonlocal offset
            counts = [0] * len(candidates)
            for trial in range(offset, offset + count):
                c_factory = TapeFactory(seed, salt="far/construct", trial=trial)
                d_factory = TapeFactory(seed, salt="far/decide", trial=trial)
                configuration = constructor.configuration(network, tape_factory=c_factory)
                outcome = decider.decide(configuration, tape_factory=d_factory)
                for position, node in enumerate(candidates):
                    counts[position] += int(
                        outcome.accepted_far_from(configuration, node, distance)
                    )
            offset += count
            return counts

        return draw

    return engine_or_reference(
        resolve_construction_engine(engine, constructor),
        lambda: far_acceptance_stream(
            constructor,
            decider,
            network,
            candidates,
            distance,
            seed=seed,
            construct_salt="far/construct",
            decide_salt="far/decide",
        ),
        from_reference,
    )


def choose_anchor(
    constructor: Constructor,
    decider: Decider,
    network: Network,
    distance: int,
    candidates: Optional[Sequence[Hashable]] = None,
    trials: int = 200,
    seed: int = 0,
    engine: str = "auto",
) -> Tuple[Hashable, float]:
    """Pick the node whose far-acceptance probability is smallest.

    Claim 5 guarantees that in every hard instance some node ``u`` has far
    acceptance probability at most ``1 − β(1−p)/μ``; choosing the empirical
    minimiser is the natural executable counterpart.  Returns the chosen node
    and its estimated far-acceptance probability.

    The constructor's (and decider's) coins do not depend on the candidate —
    every candidate is estimated at the same seed and salts as
    :func:`far_acceptance_probability` — so one pass over the trials serves
    all candidates, each reading its own far nodes off the same votes; this
    is bit-identical to one :func:`far_acceptance_probability` call per
    candidate.
    """
    if candidates is None:
        candidates = network.nodes()
    candidates = list(candidates)
    if not candidates:
        raise ValueError("choose_anchor needs at least one candidate node")
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")
    draw = _far_acceptance_stream(
        constructor, decider, network, candidates, distance, seed, engine
    )
    probabilities = [count / trials for count in draw(trials)]
    best = min(range(len(candidates)), key=probabilities.__getitem__)
    return candidates[best], probabilities[best]


# --------------------------------------------------------------------------- #
# Amplification experiments (Claim 3 and Theorem 1)
# --------------------------------------------------------------------------- #
@dataclass
class AmplificationReport:
    """Result of an error-amplification experiment.

    Attributes
    ----------
    nu:
        Number of hard instances combined.
    acceptance_estimate:
        Empirical ``Pr[D accepts C(G)]`` on the combined instance.
    membership_estimate:
        Empirical ``Pr[C(G) ∈ L]`` on the combined instance.
    theoretical_bound:
        The bound the proof gives for the acceptance probability —
        ``(1 − βp)^ν`` for the disjoint union, ``(1 − β(1−p)/μ)^{ν'}`` for
        the glued graph.
    per_instance_failure:
        Estimated failure probability of the constructor on each hard
        instance (should all be ≥ β).
    network_size:
        Number of nodes of the combined instance.
    trials:
        Number of Monte-Carlo trials used for the estimates.
    """

    nu: int
    acceptance_estimate: float
    membership_estimate: float
    theoretical_bound: float
    per_instance_failure: List[float] = field(default_factory=list)
    network_size: int = 0
    trials: int = 0


def _estimate_acceptance_and_membership(
    constructor: Constructor,
    decider: Decider,
    language: DistributedLanguage,
    network: Network,
    trials: int,
    seed: int,
    engine: str = "auto",
) -> Tuple[float, float]:
    """Empirical ``(Pr[D accepts C(G)], Pr[C(G) ∈ L])`` over ``trials`` runs.

    Trial ``t`` draws both sides' coins from ``TapeFactory(seed, salt,
    trial=t)`` with salts ``"amp/construct"`` / ``"amp/decide"``.
    Compilable constructors with fusable deciders run the whole estimate as
    one batched pass (bit-identical to the reference loop); anything else
    runs the reference loop.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials!r}")

    def from_reference() -> Tuple[float, float]:
        accepted = 0
        member = 0
        for trial in range(trials):
            c_factory = TapeFactory(seed, salt="amp/construct", trial=trial)
            d_factory = TapeFactory(seed, salt="amp/decide", trial=trial)
            configuration = constructor.configuration(network, tape_factory=c_factory)
            member += int(language.contains(configuration))
            accepted += int(decider.decide(configuration, tape_factory=d_factory).accepted)
        return accepted / trials, member / trials

    return engine_or_reference(
        resolve_construction_engine(engine, constructor),
        lambda: batched_acceptance_and_membership(
            constructor,
            decider,
            language,
            network,
            trials,
            seed=seed,
            construct_salt="amp/construct",
            decide_salt="amp/decide",
        ),
        from_reference,
    )


def amplification_disjoint_union(
    constructor: Constructor,
    decider: Decider,
    language: DistributedLanguage,
    hard_instances: Sequence[Network],
    beta: float,
    p: float,
    trials: int = 200,
    seed: int = 0,
    engine: str = "auto",
) -> AmplificationReport:
    """Execute the Claim 3 amplification on the disjoint union.

    Combines the hard instances into one (disconnected) instance, runs the
    constructor followed by the decider ``trials`` times, and reports the
    empirical acceptance probability next to the theoretical bound
    ``(1 − βp)^ν``.
    """
    nu = len(hard_instances)
    if nu < 1:
        raise ValueError("need at least one hard instance")
    union = disjoint_union(list(hard_instances))
    acceptance, membership = _estimate_acceptance_and_membership(
        constructor, decider, language, union, trials, seed, engine=engine
    )
    per_instance = [
        1.0
        - _estimate_acceptance_and_membership(
            constructor, decider, language, instance, trials, seed + 1 + index, engine=engine
        )[1]
        for index, instance in enumerate(hard_instances)
    ]
    return AmplificationReport(
        nu=nu,
        acceptance_estimate=acceptance,
        membership_estimate=membership,
        theoretical_bound=(1.0 - beta * p) ** nu,
        per_instance_failure=per_instance,
        network_size=union.number_of_nodes(),
        trials=trials,
    )


def amplification_glued(
    constructor: Constructor,
    decider: Decider,
    language: DistributedLanguage,
    hard_instances: Sequence[Network],
    beta: float,
    p: float,
    t: int,
    t_prime: int,
    anchors: Optional[Sequence[Hashable]] = None,
    trials: int = 200,
    seed: int = 0,
    engine: str = "auto",
) -> AmplificationReport:
    """Execute the Theorem 1 amplification on the connected, glued instance.

    When ``anchors`` is not provided, the anchor of each hard instance is
    chosen with :func:`choose_anchor` at distance ``t + t'`` (the Claim 5
    selection).  The theoretical bound reported is
    ``(1 − β(1−p)/μ)^{ν'}`` with ``μ = ⌈1/(2p−1)⌉``.
    """
    nu = len(hard_instances)
    if nu < 2:
        raise ValueError("the glued construction needs at least two instances")
    mu = mu_from_guarantee(p)
    distance = t + t_prime
    if anchors is None:
        anchors = [
            choose_anchor(
                constructor,
                decider,
                instance,
                distance,
                trials=max(50, trials // 4),
                seed=seed + 17 * index,
                engine=engine,
            )[0]
            for index, instance in enumerate(hard_instances)
        ]
    glue: GlueResult = glue_instances(list(hard_instances), list(anchors))
    acceptance, membership = _estimate_acceptance_and_membership(
        constructor, decider, language, glue.network, trials, seed, engine=engine
    )
    per_instance = [
        1.0
        - _estimate_acceptance_and_membership(
            constructor, decider, language, instance, trials, seed + 1 + index, engine=engine
        )[1]
        for index, instance in enumerate(hard_instances)
    ]
    return AmplificationReport(
        nu=nu,
        acceptance_estimate=acceptance,
        membership_estimate=membership,
        theoretical_bound=(1.0 - beta * (1.0 - p) / mu) ** nu,
        per_instance_failure=per_instance,
        network_size=glue.network.number_of_nodes(),
        trials=trials,
    )
