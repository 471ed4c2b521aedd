"""The amos separation LD ⊊ BPLD (Sections 2.2.2, 2.3).

The classes are defined by quantification over *all* instances, which no
finite experiment can certify.  :func:`amos_separation_report` exhibits the
separation instead: the golden-ratio decider achieves its guarantee in zero
rounds while every deterministic decider with radius below ``D/2 − 1``
necessarily errs on some instance — shown constructively by building the
two-selected-nodes instance whose selected nodes are farther apart than
twice the radius.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from repro.core.decision import (
    AmosDecider,
    AmplifiedAmosDecider,
    DeterministicDecider,
    estimate_guarantee,
)
from repro.core.languages import SELECTED, Amos, Configuration
from repro.graphs.families import path_network
from repro.local.ball import BallView

__all__ = ["amos_separation_report", "AmosSeparationReport"]


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
