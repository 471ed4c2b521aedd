"""The LOCAL model of distributed network computing.

This subpackage implements the synchronous LOCAL model of Peleg [29] used
throughout the paper: a network is a connected simple graph, every node has a
unique positive-integer identity, all nodes run the same algorithm in
synchronous rounds, and there is no bound on message size or local
computation.  A ``t``-round algorithm is therefore equivalent to a map from
radius-``t`` balls (including inputs and identities) to outputs, and both
views are provided:

* :class:`~repro.local.algorithm.LocalAlgorithm` — explicit message passing,
  executed round by round by :class:`~repro.local.simulator.Simulator`.
* :class:`~repro.local.algorithm.BallAlgorithm` — a function from a
  :class:`~repro.local.ball.BallView` to an output; can be lifted to a
  message-passing algorithm with
  :func:`~repro.local.algorithm.ball_algorithm_to_local`.

Identities, private randomness, and port numberings are modelled explicitly
(:mod:`~repro.local.identifiers`, :mod:`~repro.local.randomness`,
:mod:`~repro.local.ports`).
"""

from repro.local.network import Network
from repro.local.ball import BallView, collect_ball
from repro.local.algorithm import (
    LocalAlgorithm,
    BallAlgorithm,
    FunctionBallAlgorithm,
    NodeContext,
    ball_algorithm_to_local,
)
from repro.local.simulator import Simulator, RunResult, run_ball_algorithm
from repro.local.identifiers import (
    IdAssignment,
    consecutive_ids,
    shuffled_consecutive_ids,
    random_distinct_ids,
)
from repro.local.randomness import RandomTape, TapeFactory
from repro.local.ports import PortNumbering, assign_ports

__all__ = [
    "Network",
    "BallView",
    "collect_ball",
    "LocalAlgorithm",
    "BallAlgorithm",
    "FunctionBallAlgorithm",
    "NodeContext",
    "ball_algorithm_to_local",
    "Simulator",
    "RunResult",
    "run_ball_algorithm",
    "IdAssignment",
    "consecutive_ids",
    "shuffled_consecutive_ids",
    "random_distinct_ids",
    "RandomTape",
    "TapeFactory",
    "PortNumbering",
    "assign_ports",
]
