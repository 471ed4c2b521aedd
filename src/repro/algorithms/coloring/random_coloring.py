"""The trivial zero-round randomized coloring (the ε-slack workhorse).

Section 1.1 of the paper: "the trivial randomized algorithm in which every
node picks independently uniformly at random a color 1, 2, or 3, enables to
guarantee that, with constant probability, a fraction 1 − ε of the nodes are
properly colored".  This is the algorithm showing that randomization *helps*
for ε-slack relaxations; it is the randomized side of experiments E2 and E8.

For a node of degree ``d`` in the cycle (d = 2) with ``q`` colors, the
probability that the node conflicts with at least one neighbour is at most
``d/q``; :func:`expected_proper_fraction` returns the exact expected fraction
of properly colored nodes on a cycle, used as the analytic reference curve in
the benches.
"""

from __future__ import annotations

from typing import Optional

from repro.core.construction import BallConstructor
from repro.engine.construct import UniformInt, uniform_int
from repro.local.algorithm import BallAlgorithm
from repro.local.ball import BallView
from repro.local.randomness import RandomTape

__all__ = [
    "RandomColoringAlgorithm",
    "RandomColoringConstructor",
    "expected_proper_fraction",
]


class RandomColoringAlgorithm(BallAlgorithm):
    """Zero-round Monte-Carlo coloring: pick a uniform color, ignore everyone."""

    randomized = True
    radius = 0

    def __init__(self, num_colors: int = 3) -> None:
        if num_colors < 1:
            raise ValueError("need at least one color")
        self.num_colors = int(num_colors)
        self.name = f"random-{num_colors}-coloring"

    def compute(self, ball: BallView, tape: Optional[RandomTape] = None) -> object:
        if tape is None:
            raise ValueError("the random coloring algorithm needs a random tape")
        return tape.randint(1, self.num_colors)

    def output_program(self, ball: BallView) -> UniformInt:
        """The construction-engine form of :meth:`compute`: one uniform
        ``randint(1, num_colors)`` draw, independent of the ball."""
        return uniform_int(1, self.num_colors)


class RandomColoringConstructor(BallConstructor):
    """Constructor wrapper around :class:`RandomColoringAlgorithm`."""

    def __init__(self, num_colors: int = 3) -> None:
        algorithm = RandomColoringAlgorithm(num_colors)
        super().__init__(algorithm, name=algorithm.name)
        self.num_colors = num_colors


def expected_proper_fraction(num_colors: int, degree: int = 2) -> float:
    """Expected fraction of properly colored nodes under uniform coloring.

    A node is properly colored iff none of its ``degree`` neighbours picked
    its color; colors are independent and uniform over ``num_colors``, so the
    probability is ``(1 − 1/q)^degree``.  On the cycle (degree 2) with three
    colors this is ``4/9 ≈ 0.444``, and by linearity of expectation the
    expected fraction of bad nodes is ``1 − (1 − 1/q)^2 = 5/9`` — well below
    1, which is why a constant fraction of properly colored nodes is achieved
    with constant probability (Markov), the paper's ε-slack claim.
    """
    if num_colors < 1:
        raise ValueError("need at least one color")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    return (1.0 - 1.0 / num_colors) ** degree
