"""Order-invariant algorithms on cycles: the Claim 1 / Section 4 machinery.

An algorithm is *order-invariant* (Section 2.1.1) when the output of a node
depends on the identities in its ball only through their relative order, not
their values.  Two facts from the paper are made executable here:

* **Claim 1** (after Naor & Stockmeyer, *What can be computed locally?*):
  any constant-time deterministic construction algorithm can be turned into
  an order-invariant one.  We do not re-prove the Ramsey argument; on
  inputless cycles the order-invariant ``t``-round algorithms are exactly
  the tables from ball patterns (:func:`cycle_ball_pattern`) to outputs, and
  :func:`enumerate_order_invariant_cycle_algorithms` lists that finite
  family, the one Claim 2's counting argument (``β = 1/N``) relies on.

* **Section 4's lower bound**: on the cycle with consecutive identities, all
  radius-``t`` balls centred at the "core" identities look identical to an
  order-invariant algorithm, hence the algorithm outputs the same colour at
  all core nodes — so it cannot solve the f-resilient relaxation of
  3-coloring.  :func:`monochromatic_core` returns that core; experiments E3,
  E7 and E8 check the lower bound over the enumerated algorithms.

The enumerated algorithms are evaluated once per ball class:
:func:`cycle_ball_patterns` takes every node's ball once, and
:meth:`CyclePatternAlgorithm.outputs_at` looks a table up at the patterns;
:func:`~repro.local.simulator.run_ball_algorithm` is the specification.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.local.algorithm import BallAlgorithm
from repro.local.ball import BallView, collect_ball
from repro.local.network import Network
from repro.local.randomness import RandomTape

__all__ = [
    "CyclePatternAlgorithm",
    "cycle_ball_pattern",
    "cycle_ball_patterns",
    "enumerate_cycle_ball_types",
    "enumerate_order_invariant_cycle_algorithms",
    "count_order_invariant_cycle_algorithms",
    "monochromatic_core",
]


# --------------------------------------------------------------------------- #
# Order-invariant algorithms on cycles (inputless)
# --------------------------------------------------------------------------- #
def _path_order(ball: BallView) -> List[Hashable]:
    """Order the nodes of a path-shaped ball along the path.

    Radius-``t`` balls of a cycle with ``n > 2t`` nodes are paths of
    ``2t + 1`` nodes with the centre in the middle; this helper returns the
    nodes in path order (one of the two orientations, chosen arbitrarily).
    """
    adjacency = ball.adjacency
    if len(adjacency) == 1:
        return list(adjacency)
    endpoints = [node for node, others in adjacency.items() if len(others) <= 1]
    if len(endpoints) != 2 or any(len(others) > 2 for others in adjacency.values()):
        raise ValueError("ball is not a path; cycle too small for this radius")
    start = endpoints[0]
    order = [start]
    previous = None
    current = start
    while len(order) < len(adjacency):
        nxt = [u for u in adjacency[current] if u != previous]
        if not nxt:
            break
        previous, current = current, nxt[0]
        order.append(current)
    return order


def cycle_ball_pattern(ball: BallView) -> Tuple[int, ...]:
    """The order-invariant type of a path-shaped cycle ball.

    The type is the sequence of identity ranks read along the path,
    canonicalised under reflection (a node of a cycle has no consistent
    sense of direction).  Two balls have the same pattern iff an
    order-invariant algorithm is forced to output the same value on them.
    """
    order = _path_order(ball)
    ranks_by_node = ball.id_ranks()
    forward = tuple(ranks_by_node[node] for node in order)
    backward = tuple(reversed(forward))
    return min(forward, backward)


def cycle_ball_patterns(network: Network, radius: int) -> List[Tuple[int, ...]]:
    """The :func:`cycle_ball_pattern` of every node's radius-``radius`` ball,
    in node order, from one ball per node.

    Raises ``ValueError`` when the cycle is too short for the radius, as
    :func:`cycle_ball_pattern` does.
    """
    return [cycle_ball_pattern(collect_ball(network, node, radius)) for node in network.nodes()]


class CyclePatternAlgorithm(BallAlgorithm):
    """An order-invariant algorithm on cycles, given by a pattern table.

    The table maps canonical ball patterns (as produced by
    :func:`cycle_ball_pattern`) to outputs.  These algorithms are exactly the
    order-invariant ``t``-round algorithms on inputless cycles, which is the
    family enumerated in the Section 4 lower-bound argument.
    """

    randomized = False

    def __init__(
        self,
        table: Dict[Tuple[int, ...], object],
        radius: int,
        default: object = None,
        name: str = "cycle-pattern-algorithm",
    ) -> None:
        self.table = dict(table)
        self.radius = int(radius)
        self.default = default
        self.name = name

    def compute(self, ball: BallView, tape: Optional[RandomTape] = None) -> object:
        return self.table.get(cycle_ball_pattern(ball), self.default)

    def outputs_at(self, patterns: Iterable[Tuple[int, ...]]) -> List[object]:
        """The outputs :meth:`compute` gives on balls of these patterns."""
        return [self.table.get(pattern, self.default) for pattern in patterns]


def enumerate_cycle_ball_types(radius: int) -> List[Tuple[int, ...]]:
    """All order-invariant types of radius-``radius`` balls on large cycles.

    A ball is a path of ``2·radius + 1`` nodes; its type is a permutation of
    ranks canonicalised under reflection.  There are ``(2t+1)!`` orderings
    and ``(2t+1)!/2`` types for ``t ≥ 1`` (a single type for ``t = 0``).
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    length = 2 * radius + 1
    seen = set()
    types: List[Tuple[int, ...]] = []
    for perm in itertools.permutations(range(length)):
        canonical = min(perm, tuple(reversed(perm)))
        if canonical not in seen:
            seen.add(canonical)
            types.append(canonical)
    return sorted(types)


def count_order_invariant_cycle_algorithms(radius: int, num_outputs: int) -> int:
    """The number ``N`` of order-invariant ``radius``-round algorithms on
    inputless cycles with ``num_outputs`` possible outputs.

    This is the quantity the proof of Claim 2 sets ``β = 1/N`` from (for the
    cycle workload): ``N = num_outputs ** (#ball types)``.
    """
    if num_outputs < 1:
        raise ValueError("need at least one output value")
    length = 2 * radius + 1
    ball_types = math.factorial(length) // (2 if radius >= 1 else 1)
    return num_outputs**ball_types


def enumerate_order_invariant_cycle_algorithms(
    radius: int,
    outputs: Sequence[object],
    limit: int = 200_000,
) -> Iterator[CyclePatternAlgorithm]:
    """Yield every order-invariant ``radius``-round algorithm on cycles.

    The enumeration realises, for the cycle workload, the finite family of
    order-invariant algorithms that Claim 2 counts.  It is only tractable
    for tiny parameters (``radius ≤ 1`` with a handful of outputs); a
    ``ValueError`` is raised when the family would exceed ``limit``.
    """
    total = count_order_invariant_cycle_algorithms(radius, len(outputs))
    if total > limit:
        raise ValueError(
            f"{total} order-invariant algorithms exceed the enumeration limit {limit}; "
            "use sampling instead"
        )
    types = enumerate_cycle_ball_types(radius)
    for index, assignment in enumerate(itertools.product(outputs, repeat=len(types))):
        table = {pattern: value for pattern, value in zip(types, assignment)}
        yield CyclePatternAlgorithm(
            table, radius, name=f"cycle-order-invariant-{radius}r-#{index}"
        )


def monochromatic_core(n: int, radius: int) -> List[int]:
    """Identities of the "core" of the consecutively-labelled n-cycle.

    On the cycle whose nodes carry identities ``1..n`` in cyclic order, the
    radius-``t`` ball of every node with identity in ``[t+1, n−t]`` consists
    of the identities ``i−t, ..., i+t`` in increasing order along the path —
    the same order pattern for every such node.  An order-invariant
    ``t``-round algorithm therefore outputs the *same* value at all of them:
    at least ``n − 2t`` nodes (the paper states the slightly looser
    ``n − (2t − 1)``), which defeats any f-resilient coloring once
    ``n − 2t > f + 2``.
    """
    if n < 2 * radius + 1:
        return []
    return list(range(radius + 1, n - radius + 1))
