"""Order-invariant algorithms and the Claim 1 / Section 4 machinery.

An algorithm is *order-invariant* (Section 2.1.1) when the output of a node
depends on the identities in its ball only through their relative order, not
their values.  Two facts from the paper are made executable here:

* **Claim 1** (from [3]): any constant-time deterministic construction
  algorithm can be turned into an order-invariant one.  We do not re-prove
  the Ramsey argument, but we provide (i) the wrapper
  :class:`OrderInvariantAlgorithm` that *constructs* order-invariant
  algorithms, (ii) :func:`is_order_invariant_on`, the empirical test that an
  algorithm's outputs are unchanged under order-preserving relabelling, and
  (iii) the finite enumeration of order-invariant algorithms on cycles that
  Claim 2's counting argument (``β = 1/N``) relies on.

* **Section 4's lower bound**: on the cycle with consecutive identities, all
  radius-``t`` balls centred at the "core" identities look identical to an
  order-invariant algorithm, hence the algorithm outputs the same colour at
  all core nodes — so it cannot solve the f-resilient relaxation of
  3-coloring.  :func:`monochromatic_core` returns that core, and experiment
  E3 verifies the monochromatic behaviour over the enumerated algorithms.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from typing import Callable, Dict, Hashable, Iterator, List, Optional, Sequence, Tuple

from repro.local.algorithm import BallAlgorithm
from repro.local.ball import BallView
from repro.local.identifiers import order_preserving_relabel
from repro.local.network import Network
from repro.local.randomness import RandomTape
from repro.local.simulator import run_ball_algorithm

__all__ = [
    "OrderInvariantAlgorithm",
    "TableBallAlgorithm",
    "CyclePatternAlgorithm",
    "cycle_ball_pattern",
    "is_order_invariant_on",
    "enumerate_cycle_ball_types",
    "enumerate_order_invariant_cycle_algorithms",
    "count_order_invariant_cycle_algorithms",
    "monochromatic_core",
    "CanonicalizedAlgorithm",
    "canonicalize_algorithm",
]


class OrderInvariantAlgorithm(BallAlgorithm):
    """A deterministic ball algorithm that is order-invariant by construction.

    The user-supplied ``rule`` receives the ball and a mapping
    ``node -> rank`` of identities within the ball; it must not look at
    ``ball.ids`` directly (doing so would break the invariance the wrapper is
    meant to provide — :func:`is_order_invariant_on` can be used to audit
    rules one does not trust).
    """

    randomized = False

    def __init__(
        self,
        rule: Callable[[BallView, Dict[Hashable, int]], object],
        radius: int,
        name: str = "order-invariant-algorithm",
    ) -> None:
        self._rule = rule
        self.radius = int(radius)
        self.name = name

    def compute(self, ball: BallView, tape: Optional[RandomTape] = None) -> object:
        return self._rule(ball, ball.id_ranks())


class TableBallAlgorithm(BallAlgorithm):
    """A deterministic ball algorithm defined by a lookup table.

    The table maps canonical ball keys (see
    :meth:`repro.local.ball.BallView.canonical_key`) to outputs.  With the
    default ``ids="order"`` key mode, the resulting algorithm is
    order-invariant; with ``ids="values"`` it can depend on the raw identity
    values.  This is the concrete representation of the "finite number of
    order-invariant algorithms" in the counting argument of Claim 2.
    """

    randomized = False

    def __init__(
        self,
        table: Dict[Tuple, object],
        radius: int,
        default: object = None,
        ids: str = "order",
        include_outputs: bool = False,
        name: str = "table-ball-algorithm",
    ) -> None:
        self.table = dict(table)
        self.radius = int(radius)
        self.default = default
        self.ids_mode = ids
        self.include_outputs = include_outputs
        self.name = name

    def compute(self, ball: BallView, tape: Optional[RandomTape] = None) -> object:
        key = ball.canonical_key(ids=self.ids_mode, include_outputs=self.include_outputs)
        return self.table.get(key, self.default)


# --------------------------------------------------------------------------- #
# The empirical order-invariance test
# --------------------------------------------------------------------------- #
def is_order_invariant_on(
    algorithm: BallAlgorithm,
    network: Network,
    attempts: int = 3,
    seed: int = 0,
    outputs: Optional[Dict[Hashable, object]] = None,
) -> bool:
    """Empirically test order invariance of a deterministic algorithm.

    The algorithm is run on the network with its original identities and
    with ``attempts`` order-preserving relabellings (fresh identity values,
    same relative order).  It is declared order-invariant on this network if
    every node's output is identical across all runs.  This is a necessary
    condition (over this instance) of genuine order invariance; the paper's
    Claim 1 guarantees a *fully* order-invariant equivalent exists for any
    constant-time algorithm.
    """
    if algorithm.randomized:
        raise ValueError("order invariance is defined for deterministic algorithms")
    import numpy as np

    baseline = run_ball_algorithm(network, algorithm, outputs=outputs)
    rng = np.random.default_rng(seed)
    n = network.number_of_nodes()
    for _ in range(attempts):
        # Fresh strictly increasing identity values with random gaps.
        gaps = rng.integers(1, 10_000, size=n)
        values = list(itertools.accumulate(int(g) for g in gaps))
        relabelled_ids = order_preserving_relabel(network.ids, values)
        relabelled = network.with_ids(relabelled_ids)
        relabelled_outputs = run_ball_algorithm(relabelled, algorithm, outputs=outputs)
        if relabelled_outputs != baseline:
            return False
    return True


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


class CanonicalizedAlgorithm(BallAlgorithm):
    """The A′ construction of Claim 1, with the Ramsey set replaced by ℕ.

    Claim 1 turns an arbitrary ``t``-round deterministic algorithm A into an
    order-invariant one A′: every node relabels its ball with the smallest
    identities of an infinite Ramsey-extracted set U (in the order induced by
    the original identities) and outputs whatever A would output on the
    relabelled ball.  The Ramsey extraction only serves to make A′ *correct
    whenever A is*; the construction itself — relabel order-preservingly with
    the smallest available identities, then run A — is computable, and that
    is what this wrapper does, using ``U = {base, base+1, …}``.

    The result is order-invariant by construction for *any* A.  Whether it is
    still a correct construction algorithm for the language depends on A (it
    is, for instance, whenever A is itself order-invariant, or whenever A is
    correct under arbitrary identity assignments drawn from U) — tests
    exercise both the invariance (always) and correctness (for well-behaved
    A) halves separately.
    """

    randomized = False

    def __init__(self, base_algorithm: BallAlgorithm, base_identity: int = 1) -> None:
        if base_algorithm.randomized:
            raise ValueError("Claim 1 canonicalisation applies to deterministic algorithms")
        if base_identity < 1:
            raise ValueError("identities are positive integers")
        self.base_algorithm = base_algorithm
        self.base_identity = int(base_identity)
        self.radius = base_algorithm.radius
        self.name = f"canonicalized({base_algorithm.name})"

    def compute(self, ball: BallView, tape: Optional[RandomTape] = None) -> object:
        relabelled_ids = {
            node: self.base_identity + rank for node, rank in ball.id_ranks().items()
        }
        relabelled = dataclasses.replace(ball, ids=relabelled_ids)
        return self.base_algorithm.compute(relabelled, None)


def canonicalize_algorithm(
    algorithm: BallAlgorithm, base_identity: int = 1
) -> CanonicalizedAlgorithm:
    """Apply the Claim 1 construction to a deterministic ball algorithm."""
    return CanonicalizedAlgorithm(algorithm, base_identity)


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
