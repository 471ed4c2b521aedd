"""Identity assignments for LOCAL-model networks.

In the LOCAL model every node carries a unique positive-integer identity.
Several results in the paper hinge on *how much* an algorithm may rely on
these identities:

* Order-invariant algorithms (Section 2.1.1) use only the relative order of
  the identities in a ball, never their values; the reduction of Claim 1
  relabels balls with the smallest identities of a Ramsey set while keeping
  the order.
* Claim 2 requires hard instances whose identities are all at least some
  ``Imin`` — the construction of the glued graph needs the identity ranges of
  the sub-instances to be pairwise disjoint.
* The f-resilient lower bound of Section 4 uses the *consecutively labelled
  cycle*: adjacent nodes carry consecutive identities 1..n.

This module provides the assignment schemes used by those arguments.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "IdAssignment",
    "consecutive_ids",
    "shuffled_consecutive_ids",
    "random_distinct_ids",
    "assign_ids",
    "validate_id_assignment",
]

#: An identity assignment maps a node (any hashable) to a positive integer.
IdAssignment = Dict[Hashable, int]


def validate_id_assignment(ids: Mapping[Hashable, int]) -> None:
    """Raise ``ValueError`` unless the assignment uses distinct positive ints.

    The LOCAL model requires identities to be pairwise-distinct positive
    integers (Section 2.1.1); this check is applied whenever a
    :class:`~repro.local.network.Network` is built.  All values are checked
    at once; the per-node loop runs only to name the first offending node.
    """
    values = ids.values()
    if (
        all(issubclass(kind, (int, np.integer)) for kind in dict.fromkeys(map(type, values)))
        and (not values or min(values) > 0)
        and len(set(values)) == len(values)
    ):
        return
    seen: set[int] = set()
    for node, ident in ids.items():
        if not isinstance(ident, (int, np.integer)):
            raise ValueError(f"identity of node {node!r} is not an integer: {ident!r}")
        if ident <= 0:
            raise ValueError(f"identity of node {node!r} must be positive, got {ident}")
        if int(ident) in seen:
            raise ValueError(f"duplicate identity {ident} (node {node!r})")
        seen.add(int(ident))


def consecutive_ids(nodes: Sequence[Hashable], start: int = 1) -> IdAssignment:
    """Assign identities ``start, start+1, ...`` following the node order.

    On a cycle whose nodes are listed in cyclic order, this produces exactly
    the "consecutive identities" instance used in the f-resilient lower bound
    of Section 4 (adjacent nodes have consecutive identities except for the
    pair closing the cycle).
    """
    if start <= 0:
        raise ValueError("identities must be positive")
    return {node: start + i for i, node in enumerate(nodes)}


def shuffled_consecutive_ids(
    nodes: Sequence[Hashable], seed: int = 0, start: int = 1
) -> IdAssignment:
    """Assign the identities ``start..start+n-1`` in a uniformly random order."""
    if start <= 0:
        raise ValueError("identities must be positive")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(nodes))
    return {node: start + int(perm[i]) for i, node in enumerate(nodes)}


def random_distinct_ids(
    nodes: Sequence[Hashable],
    seed: int = 0,
    low: int = 1,
    high: Optional[int] = None,
) -> IdAssignment:
    """Assign distinct identities drawn uniformly from ``[low, high]``.

    By default ``high`` is ``low + 100 * n`` so the identity space is sparse,
    which matters for algorithms (such as Cole–Vishkin) whose round count
    depends on the magnitude of the largest identity.
    """
    n = len(nodes)
    if low <= 0:
        raise ValueError("identities must be positive")
    if high is None:
        high = low + 100 * max(n, 1)
    if high - low + 1 < n:
        raise ValueError("identity range too small for the number of nodes")
    rng = np.random.default_rng(seed)
    values = rng.choice(np.arange(low, high + 1), size=n, replace=False)
    return {node: int(values[i]) for i, node in enumerate(nodes)}


def assign_ids(nodes: Sequence[Hashable], scheme: str, seed: int, start: int) -> IdAssignment:
    """The ``ids=`` switch of the graph families: the ``"consecutive"``,
    ``"shuffled"`` or ``"random"`` assignment of ``nodes``, starting at
    ``start``."""
    if scheme == "consecutive":
        return consecutive_ids(nodes, start=start)
    if scheme == "shuffled":
        return shuffled_consecutive_ids(nodes, seed=seed, start=start)
    if scheme == "random":
        return random_distinct_ids(nodes, seed=seed, low=start)
    raise ValueError(f"unknown id scheme: {scheme!r}")
