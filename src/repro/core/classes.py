"""Empirical views of the local decision classes LD and BPLD (Section 2.2.2,
2.3.2) and the separations the paper relies on.

The classes are defined by quantification over *all* instances, which no
finite experiment can certify; what we provide instead are

* *witness checks*: given a decider, verify on a workload of labelled
  configurations that it behaves as an LD decider (never errs) or as a BPLD
  decider with guarantee at least ``p`` (within statistical tolerance);
* the *amos separation* (LD ⊊ BPLD): a report showing that the golden-ratio
  decider achieves its guarantee in zero rounds while every deterministic
  decider with radius below ``D/2 − 1`` necessarily errs on some instance —
  exhibited constructively by building the two-selected-nodes instance whose
  selected nodes are farther apart than twice the radius.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Sequence

from repro.core.decision import (
    AmosDecider,
    AmplifiedAmosDecider,
    Decider,
    DeterministicDecider,
    estimate_guarantee,
)
from repro.core.languages import SELECTED, Amos, Configuration, DistributedLanguage
from repro.graphs.families import path_network
from repro.local.ball import BallView

__all__ = [
    "MembershipReport",
    "empirical_ld_membership",
    "empirical_bpld_membership",
    "amos_separation_report",
    "AmosSeparationReport",
]


@dataclass
class MembershipReport:
    """Outcome of a witness check for LD(t) or BPLD(t) membership.

    Attributes
    ----------
    class_name:
        ``"LD"`` or ``"BPLD"``.
    radius:
        The decider's round complexity ``t``.
    holds:
        Whether the witness check passed on the supplied workload.
    measured_guarantee:
        The empirical guarantee (1.0 for a perfect deterministic decider).
    required_guarantee:
        The guarantee that was required (1.0 for LD, the decider's claimed
        ``p`` for BPLD).
    failures:
        Indices of configurations on which the check failed.
    """

    class_name: str
    radius: int
    holds: bool
    measured_guarantee: float
    required_guarantee: float
    failures: List[int] = field(default_factory=list)


def empirical_ld_membership(
    decider: Decider,
    language: DistributedLanguage,
    configurations: Sequence[Configuration],
) -> MembershipReport:
    """Check that a deterministic decider decides ``language`` exactly on the
    supplied configurations — the finite-workload witness of ``L ∈ LD(t)``."""
    if decider.randomized:
        raise ValueError("LD membership requires a deterministic decider")
    failures: List[int] = []
    for index, configuration in enumerate(configurations):
        outcome = decider.decide(configuration)
        member = language.contains(configuration)
        if outcome.accepted != member:
            failures.append(index)
    return MembershipReport(
        class_name="LD",
        radius=decider.radius,
        holds=not failures,
        measured_guarantee=1.0 if not failures else 0.0,
        required_guarantee=1.0,
        failures=failures,
    )


def empirical_bpld_membership(
    decider: Decider,
    language: DistributedLanguage,
    configurations: Sequence[Configuration],
    required_guarantee: Optional[float] = None,
    trials: int = 400,
    seed: int = 0,
    tolerance: float = 0.05,
    engine: str = "auto",
) -> MembershipReport:
    """Check that a randomized decider achieves its guarantee on the workload.

    For every configuration the success probability (acceptance on members,
    rejection on non-members) is estimated over ``trials`` independent runs;
    the check passes when every estimate is at least
    ``required_guarantee − tolerance``.  The tolerance absorbs Monte-Carlo
    noise — the reported confidence half-widths are available from
    :func:`repro.core.decision.estimate_guarantee` for finer control.
    """
    if required_guarantee is None:
        required_guarantee = getattr(decider, "guarantee", None)
        if required_guarantee is None:
            raise ValueError("a required guarantee must be supplied")
    estimate = estimate_guarantee(
        decider, language, configurations, trials=trials, seed=seed, engine=engine
    )
    failures = [
        index
        for index, (_member, rate, _hw) in estimate.per_configuration.items()
        if rate < required_guarantee - tolerance
    ]
    return MembershipReport(
        class_name="BPLD",
        radius=decider.radius,
        holds=not failures,
        measured_guarantee=estimate.guarantee,
        required_guarantee=float(required_guarantee),
        failures=failures,
    )


# --------------------------------------------------------------------------- #
# The amos separation: LD ⊊ BPLD
# --------------------------------------------------------------------------- #
@dataclass
class AmosSeparationReport:
    """The two halves of the amos separation (Section 2.3.1).

    * ``randomized_guarantee``: empirical guarantee of the zero-round
      golden-ratio decider on the workload (should be ≈ 0.618).
    * ``amplified_guarantee``: empirical guarantee of the multi-draw
      :class:`~repro.core.decision.AmplifiedAmosDecider` on the same
      workload (calibrated to the same ``p``, so it should also be ≈ 0.618).
    * ``amplified_repetitions``: number of coins each selected node's
      amplified majority vote consumes.
    * ``deterministic_radius``: the radius of the deterministic decider that
      was defeated.
    * ``deterministic_fooled``: whether the constructed far-apart
      two-selected instance was (incorrectly) accepted by that decider or an
      accepted no-instance/rejected yes-instance was otherwise exhibited.
    * ``witness_diameter``: diameter of the witness instance.
    """

    randomized_guarantee: float
    amplified_guarantee: float
    amplified_repetitions: int
    deterministic_radius: int
    deterministic_fooled: bool
    witness_diameter: int


def _locally_consistent_deterministic_amos_decider(radius: int) -> DeterministicDecider:
    """The natural deterministic decider for amos with a given radius.

    A node rejects iff it *sees* two selected nodes within its ball.  This
    is the best a deterministic local decider can do without global
    information; the separation argument shows it must err when the two
    selected nodes are farther apart than ``2·radius``.
    """

    def rule(ball: BallView) -> bool:
        selected = [
            node
            for node in ball.adjacency
            if ball.outputs is not None and ball.outputs[node] == SELECTED
        ]
        return len(selected) <= 1

    return DeterministicDecider(rule, radius, name=f"amos-window-decider(r={radius})")


def amos_separation_report(
    radius: int,
    path_length: Optional[int] = None,
    trials: int = 2_000,
    seed: int = 0,
    engine: str = "auto",
    amplified_repetitions: int = 3,
) -> AmosSeparationReport:
    """Exhibit the amos separation for a given deterministic radius.

    Builds a path long enough that two selected endpoints are at distance
    greater than ``2·radius`` and checks that the radius-``radius``
    deterministic "window" decider accepts it although it is a no-instance —
    the concrete content of "amos cannot be deterministically decided in
    ``D/2 − 1`` rounds".  Also measures, over ``trials`` Monte-Carlo runs
    dispatched through ``engine``, the guarantee of the zero-round
    randomized decider on a small workload containing the same instance —
    both the single-coin golden-ratio decider and its multi-draw
    ``amplified_repetitions``-coin majority amplification (calibrated to the
    same guarantee).
    """
    if path_length is None:
        path_length = 2 * radius + 4
    if path_length < 2 * radius + 3:
        raise ValueError("path too short to separate the two selected nodes")
    network = path_network(path_length, ids="consecutive")
    nodes = network.nodes()
    outputs: Dict[Hashable, object] = {node: "" for node in nodes}
    outputs[nodes[0]] = SELECTED
    outputs[nodes[-1]] = SELECTED
    no_instance = Configuration(network, outputs)

    deterministic = _locally_consistent_deterministic_amos_decider(radius)
    fooled = deterministic.decide(no_instance).accepted  # wrongly accepts

    # Workload for the randomized decider: a yes-instance with one selected
    # node, a yes-instance with none, and the far-apart no-instance.
    yes_one = Configuration(
        network, {node: (SELECTED if node == nodes[0] else "") for node in nodes}
    )
    yes_zero = Configuration(network, {node: "" for node in nodes})
    amos = Amos()
    workload = [yes_one, yes_zero, no_instance]
    estimate = estimate_guarantee(
        AmosDecider(), amos, workload, trials=trials, seed=seed, engine=engine
    )
    amplified_estimate = estimate_guarantee(
        AmplifiedAmosDecider(amplified_repetitions),
        amos,
        workload,
        trials=trials,
        seed=seed,
        engine=engine,
    )
    return AmosSeparationReport(
        randomized_guarantee=estimate.guarantee,
        amplified_guarantee=amplified_estimate.guarantee,
        amplified_repetitions=amplified_repetitions,
        deterministic_radius=radius,
        deterministic_fooled=fooled,
        witness_diameter=network.diameter(),
    )
