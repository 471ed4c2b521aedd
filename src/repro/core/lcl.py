"""Locally checkable labellings (LCL): languages defined by forbidden balls.

Section 4 of the paper considers languages ``L`` defined "by the exclusion of
a collection ``Bad(L)`` of balls ``B(v, t)`` for some ``t = O(1)``"; following
Naor and Stockmeyer this class is called LCL.  A configuration belongs to the
language iff none of its radius-``t`` balls (with outputs) is bad.

:class:`LCLLanguage` captures this: subclasses (or instances built from a
predicate) provide the checking radius ``t`` and the bad-ball predicate.  The
machinery shared by all of them —

* ``bad_mask``: ``F(G)`` (the nodes whose ball is bad, in the proof of
  Corollary 1) as per-node flags; ``bad_nodes``, ``violation_count``
  (``|F(G)|``) and ``contains`` read it,
* the induced canonical LD decider (every node checks its own ball, see
  :class:`repro.core.decision.LocalCheckerDecider`),
* the f-resilient and ε-slack relaxations (:mod:`repro.core.relaxations`)

— is what the paper's Corollary 1 builds on.

``is_bad_ball`` is the specification, run on every ball by the default
``bad_mask``; :class:`ProperColoring` computes the mask as array operations
(:meth:`ProperColoring.bad_codes`, which the engine's counter runs too).

Concrete LCL languages provided: proper ``q``-coloring, maximal independent
set, maximal matching, minimal dominating set, and a "not-all-equal"
constraint language standing in for the Lovász-local-lemma style tasks
mentioned in the paper.
"""

from __future__ import annotations

from abc import abstractmethod
from typing import Callable, Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.core.languages import Configuration, DistributedLanguage
from repro.local.ball import BallView

__all__ = [
    "LCLLanguage",
    "PredicateLCL",
    "ProperColoring",
    "MaximalIndependentSet",
    "MaximalMatching",
    "MinimalDominatingSet",
    "NotAllEqualLLL",
]


class LCLLanguage(DistributedLanguage):
    """A language defined by excluding a set of radius-``t`` bad balls."""

    #: The checking radius ``t`` (the maximum radius of the excluded balls).
    radius: int = 1

    @abstractmethod
    def is_bad_ball(self, ball: BallView) -> bool:
        """Whether the ball (with outputs) belongs to ``Bad(L)``.

        The ball always carries outputs; implementations typically look at
        the centre's output and its neighbours' outputs.
        """

    # ------------------------------------------------------------------ #
    # Machinery shared by every LCL language
    # ------------------------------------------------------------------ #
    def bad_mask(self, configuration: Configuration) -> np.ndarray:
        """The paper's ``F(G)`` as per-node flags, in node order: the spec,
        :meth:`is_bad_ball` on every ball, which an override must match."""
        balls = (configuration.ball(node, self.radius) for node in configuration.nodes())
        return np.array([bool(self.is_bad_ball(ball)) for ball in balls], dtype=bool)

    def bad_nodes(self, configuration: Configuration) -> List[Hashable]:
        """The paper's ``F(G)``: nodes whose radius-``t`` ball is bad."""
        mask = self.bad_mask(configuration)
        return [node for node, bad in zip(configuration.nodes(), mask) if bad]

    def violation_count(self, configuration: Configuration) -> int:
        """``|F(G)|`` — the number of bad balls."""
        return int(np.count_nonzero(self.bad_mask(configuration)))

    def contains(self, configuration: Configuration) -> bool:
        """Membership: no bad ball at all."""
        return self.at_most_bad(configuration, 0)

    def at_most_bad(self, configuration: Configuration, budget: int) -> bool:
        """Whether at most ``budget`` balls are bad (the f-resilient and
        ε-slack relaxations pass their tolerance).  Without a ``bad_mask``
        override the spec loop stops at the first ball over budget."""
        if type(self).bad_mask is not LCLLanguage.bad_mask:
            return self.violation_count(configuration) <= budget
        for node in configuration.nodes():
            if self.is_bad_ball(configuration.ball(node, self.radius)):
                budget -= 1
                if budget < 0:
                    return False
        return True

    def fraction_bad(self, configuration: Configuration) -> float:
        """Fraction of nodes whose ball is bad (used by ε-slack relaxations)."""
        n = len(configuration)
        if n == 0:
            return 0.0
        return self.violation_count(configuration) / n


class PredicateLCL(LCLLanguage):
    """An LCL language built from a plain bad-ball predicate."""

    def __init__(
        self,
        is_bad: Callable[[BallView], bool],
        radius: int = 1,
        name: str = "predicate-lcl",
    ) -> None:
        self._is_bad = is_bad
        self.radius = int(radius)
        self.name = name

    def is_bad_ball(self, ball: BallView) -> bool:
        return bool(self._is_bad(ball))


# --------------------------------------------------------------------------- #
# Coloring languages
# --------------------------------------------------------------------------- #
class ProperColoring(LCLLanguage):
    """Proper coloring with an optional fixed palette.

    A radius-1 ball is bad iff the centre's color equals a neighbour's color,
    or — when ``num_colors`` is given — the centre's color lies outside the
    palette ``{1, ..., num_colors}``.  With ``num_colors=3`` on cycles this is
    the 3-coloring language of the Ω(log* n) lower bound discussed in the
    introduction; with ``num_colors=None`` only properness is required.
    """

    radius = 1

    def __init__(self, num_colors: Optional[int] = None) -> None:
        if num_colors is not None and num_colors < 1:
            raise ValueError("num_colors must be positive")
        self.num_colors = num_colors
        self.name = f"{num_colors}-coloring" if num_colors else "proper-coloring"

    def is_bad_ball(self, ball: BallView) -> bool:
        color = ball.center_output()
        if self.num_colors is not None:
            if not isinstance(color, int) or not (1 <= color <= self.num_colors):
                return True
        for neighbor in ball.neighbors(ball.center):
            if ball.outputs[neighbor] == color:  # type: ignore[index]
                return True
        return False

    def bad_mask(self, configuration: Configuration) -> np.ndarray:
        """:meth:`bad_codes` on the interned outputs.  Interning agrees with
        ``==`` for ints, bools, strings and ``None`` only; any other output
        (a float such as NaN, an unhashable or custom one) takes the spec."""
        outputs = [configuration.outputs[node] for node in configuration.nodes()]
        if not set(map(type, outputs)) <= _INTERNABLE:
            return super().bad_mask(configuration)
        code_of: Dict[object, int] = {}
        codes = [code_of.setdefault(value, len(code_of)) for value in outputs]
        neighbors = configuration.network.neighbor_positions
        return self.bad_codes(np.array([codes], dtype=np.intp), tuple(code_of), neighbors)[0]

    def bad_codes(
        self, codes: np.ndarray, values: Sequence[object], neighbors: np.ndarray
    ) -> np.ndarray:
        """Bad flags of ``(rows, n)`` codes into the distinct ``values``, over
        a :attr:`~repro.local.network.Network.neighbor_positions` index: a
        ball is bad iff its color leaves the palette or equals a neighbour's."""
        k = self.num_colors
        palette_bad = [k is not None and not (isinstance(v, int) and 1 <= v <= k) for v in values]
        # The sentinel column n holds code -1, which equals no code.
        extended = np.concatenate([codes, np.full((len(codes), 1), -1, codes.dtype)], axis=1)
        conflict = (extended[:, neighbors] == codes[:, :, None]).any(axis=2)
        return conflict | np.array(palette_bad, dtype=bool)[codes]


#: Output types whose ``==`` agrees with dict interning (``True == 1``).
_INTERNABLE = frozenset({int, bool, str, type(None)})


# --------------------------------------------------------------------------- #
# Independence / domination / matching languages
# --------------------------------------------------------------------------- #
class MaximalIndependentSet(LCLLanguage):
    """Maximal independent set, encoded as boolean membership outputs.

    A radius-1 ball is bad iff the centre is in the set together with one of
    its neighbours (independence violated), or the centre is out of the set
    and so are all of its neighbours (maximality violated).
    """

    radius = 1
    name = "maximal-independent-set"

    def is_bad_ball(self, ball: BallView) -> bool:
        in_set = bool(ball.center_output())
        neighbor_flags = [
            bool(ball.outputs[u])  # type: ignore[index]
            for u in ball.neighbors(ball.center)
        ]
        if in_set and any(neighbor_flags):
            return True
        if not in_set and not any(neighbor_flags):
            return True
        return False


class MaximalMatching(LCLLanguage):
    """Maximal matching, encoded as "identity of my partner, or None".

    A radius-1 ball is bad iff the centre's declared partner is not one of
    its neighbours, or the partner does not declare the centre back
    (consistency), or the centre is unmatched while having an unmatched
    neighbour (maximality).
    """

    radius = 1
    name = "maximal-matching"

    def is_bad_ball(self, ball: BallView) -> bool:
        partner = ball.center_output()
        neighbors = ball.neighbors(ball.center)
        neighbor_ids = {int(ball.ids[u]): u for u in neighbors}
        if partner is not None:
            if int(partner) not in neighbor_ids:
                return True
            other = neighbor_ids[int(partner)]
            if ball.outputs[other] != ball.center_id():  # type: ignore[index]
                return True
            return False
        # Unmatched centre: maximality requires every neighbour to be matched.
        for u in neighbors:
            if ball.outputs[u] is None:  # type: ignore[index]
                return True
        return False


class MinimalDominatingSet(LCLLanguage):
    """Minimal dominating set, encoded as boolean membership outputs.

    Domination is a radius-1 property (a node outside the set must have a
    neighbour in the set); minimality needs radius 2: a node ``v`` inside the
    set must have a *private* dominated node, i.e. some ``u`` in its closed
    neighbourhood whose only dominator in the closed neighbourhood of ``u``
    is ``v``.  The checking radius is therefore 2.
    """

    radius = 2
    name = "minimal-dominating-set"

    def is_bad_ball(self, ball: BallView) -> bool:
        center = ball.center
        in_set = bool(ball.center_output())
        neighbors = ball.neighbors(center)
        if not in_set:
            # Domination check.
            return not any(bool(ball.outputs[u]) for u in neighbors)  # type: ignore[index]
        # Minimality: removing the centre must break domination somewhere in
        # its closed neighbourhood.
        for candidate in [center] + neighbors:
            dominators = 0
            closed = [candidate] + ball.neighbors(candidate)
            for u in closed:
                if bool(ball.outputs[u]):  # type: ignore[index]
                    dominators += 1
            if dominators == 1 and bool(ball.outputs[center]):  # type: ignore[index]
                # The single dominator of ``candidate`` can only be the
                # centre if the centre is in ``closed``; verify explicitly.
                if center in closed:
                    return False
        return True


class NotAllEqualLLL(LCLLanguage):
    """A "not-all-equal" constraint language standing in for LLL tasks.

    Every node outputs a bit; the bad event at a node is that its whole
    closed neighbourhood carries the same bit.  This is the simplest member
    of the family of bounded-dependency constraint problems that the
    constructive Lovász Local Lemma addresses (the paper cites the relaxed
    LLL of Chung–Pettie–Su as a motivating example); its f-resilient
    relaxation is exercised by the same machinery as the coloring languages.
    """

    radius = 1
    name = "not-all-equal-lll"

    def is_bad_ball(self, ball: BallView) -> bool:
        neighbors = ball.neighbors(ball.center)
        if not neighbors:
            return False
        value = ball.center_output()
        return all(ball.outputs[u] == value for u in neighbors)  # type: ignore[index]
