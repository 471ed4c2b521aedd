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

This module provides the assignment schemes used by those arguments plus the
order-pattern helpers used by :mod:`repro.core.order_invariant`.
"""

from __future__ import annotations

from typing import Dict, Hashable, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "IdAssignment",
    "consecutive_ids",
    "shuffled_consecutive_ids",
    "random_distinct_ids",
    "offset_ids",
    "order_preserving_relabel",
    "id_order_pattern",
    "validate_id_assignment",
]

#: An identity assignment maps a node (any hashable) to a positive integer.
IdAssignment = Dict[Hashable, int]


def validate_id_assignment(ids: Mapping[Hashable, int]) -> None:
    """Raise ``ValueError`` unless the assignment uses distinct positive ints.

    The LOCAL model requires identities to be pairwise-distinct positive
    integers (Section 2.1.1); this check is applied whenever a
    :class:`~repro.local.network.Network` is built.
    """
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


def offset_ids(ids: Mapping[Hashable, int], offset: int) -> IdAssignment:
    """Shift every identity by ``offset`` (used to make ranges disjoint).

    The proof of Theorem 1 builds a sequence of instances whose identity
    ranges must not overlap: instance ``i+1`` uses identities at least
    ``1 + max`` of the identities of instance ``i``.  Shifting preserves the
    relative order, so an order-invariant algorithm behaves identically on
    the shifted instance.
    """
    if offset < 0 and min(ids.values()) + offset <= 0:
        raise ValueError("offset would produce non-positive identities")
    return {node: int(ident) + offset for node, ident in ids.items()}


def order_preserving_relabel(
    ids: Mapping[Hashable, int], new_values: Sequence[int]
) -> IdAssignment:
    """Re-assign identities from ``new_values`` while preserving the order.

    The node holding the i-th smallest old identity receives the i-th
    smallest value of ``new_values``.  This is the elementary operation in
    the order-invariance reduction (Claim 1): an order-invariant algorithm
    cannot distinguish the original assignment from the relabelled one.

    Parameters
    ----------
    ids:
        The current assignment.
    new_values:
        At least ``len(ids)`` distinct positive integers; only the smallest
        ``len(ids)`` of them are used.
    """
    distinct = sorted(set(int(v) for v in new_values))
    if len(distinct) < len(ids):
        raise ValueError("not enough distinct new identity values")
    if distinct[0] <= 0:
        raise ValueError("identities must be positive")
    ranked_nodes = sorted(ids, key=lambda node: ids[node])
    return {node: distinct[i] for i, node in enumerate(ranked_nodes)}


def id_order_pattern(ids: Mapping[Hashable, int], nodes: Sequence[Hashable]) -> tuple:
    """Return the order pattern of ``nodes`` under the assignment ``ids``.

    The pattern is the tuple of ranks: position ``i`` holds the rank (0-based)
    of ``nodes[i]``'s identity among the identities of all listed nodes.  Two
    assignments induce the same ordering of the listed nodes if and only if
    their patterns are equal; order-invariant algorithms are exactly the
    algorithms whose output depends on the ball only through this pattern
    (plus the ball structure and the inputs).
    """
    values = [ids[node] for node in nodes]
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0] * len(values)
    for rank, idx in enumerate(order):
        ranks[idx] = rank
    return tuple(ranks)
