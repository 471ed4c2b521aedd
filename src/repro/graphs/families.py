"""Deterministic graph families used as workloads.

Every constructor returns a :class:`~repro.local.network.Network`.  Cycles
and paths are built from their node and edge sequences
(:meth:`~repro.local.network.Network.from_edges`); the other families build a
networkx graph first, importing networkx when called.  Identity assignment
is controlled by the ``ids`` argument:

* ``"consecutive"`` — identities ``1..n`` follow the construction order; on
  :func:`cycle_network` this is exactly the consecutively-labelled cycle used
  in the f-resilient lower bound of Section 4 of the paper (adjacent nodes
  carry consecutive identities except for the pair {1, n});
* ``"shuffled"`` — a random permutation of ``1..n``;
* ``"random"`` — distinct identities drawn from a sparse range (useful for
  algorithms whose complexity depends on the magnitude of identities, such as
  Cole–Vishkin).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Mapping, Optional, Sequence

from repro.local.identifiers import assign_ids
from repro.local.network import Network

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "cycle_network",
    "path_network",
    "grid_network",
    "star_network",
]


def _build(
    graph: nx.Graph,
    node_order: Sequence[Hashable],
    ids: str,
    seed: int,
    start: int,
    inputs: Optional[Mapping[Hashable, object]],
) -> Network:
    assignment = assign_ids(list(node_order), ids, seed, start)
    return Network(graph, assignment, inputs)


def cycle_network(
    n: int,
    ids: str = "consecutive",
    seed: int = 0,
    id_start: int = 1,
    inputs: Optional[Mapping[Hashable, object]] = None,
) -> Network:
    """The n-node cycle C_n (n ≥ 3).

    With ``ids="consecutive"`` the nodes carry identities 1..n in cyclic
    order — the hard instance family of the f-resilient lower bound.
    """
    if n < 3:
        raise ValueError("a cycle needs at least 3 nodes")
    edges = [(i, i + 1) for i in range(n - 1)] + [(n - 1, 0)]
    return Network.from_edges(range(n), edges, assign_ids(range(n), ids, seed, id_start), inputs)


def path_network(
    n: int,
    ids: str = "consecutive",
    seed: int = 0,
    id_start: int = 1,
    inputs: Optional[Mapping[Hashable, object]] = None,
) -> Network:
    """The n-node path P_n (n ≥ 1)."""
    if n < 1:
        raise ValueError("a path needs at least 1 node")
    edges = [(i, i + 1) for i in range(n - 1)]
    return Network.from_edges(range(n), edges, assign_ids(range(n), ids, seed, id_start), inputs)


def grid_network(
    rows: int,
    cols: int,
    ids: str = "consecutive",
    seed: int = 0,
    id_start: int = 1,
    inputs: Optional[Mapping[Hashable, object]] = None,
) -> Network:
    """The rows × cols grid (maximum degree 4)."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    import networkx as nx

    graph = nx.grid_2d_graph(rows, cols)
    order = [(r, c) for r in range(rows) for c in range(cols)]
    return _build(graph, order, ids, seed, id_start, inputs)


def star_network(
    leaves: int,
    ids: str = "consecutive",
    seed: int = 0,
    id_start: int = 1,
    inputs: Optional[Mapping[Hashable, object]] = None,
) -> Network:
    """The star with one centre and ``leaves`` leaves."""
    if leaves < 1:
        raise ValueError("a star needs at least one leaf")
    import networkx as nx

    graph = nx.star_graph(leaves)
    return _build(graph, range(leaves + 1), ids, seed, id_start, inputs)
