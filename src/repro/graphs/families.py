"""Deterministic graph families used as workloads.

Every constructor returns a :class:`~repro.local.network.Network`.  Identity
assignment is controlled by the ``ids`` argument:

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

from typing import Dict, Hashable, Mapping, Optional, Sequence

import networkx as nx

from repro.local.identifiers import (
    consecutive_ids,
    random_distinct_ids,
    shuffled_consecutive_ids,
)
from repro.local.network import Network

__all__ = [
    "cycle_network",
    "path_network",
    "grid_network",
    "torus_network",
    "complete_network",
    "star_network",
    "balanced_tree_network",
    "caterpillar_network",
    "hypercube_network",
]


def _make_ids(nodes: Sequence[Hashable], ids: str, seed: int, start: int) -> Dict:
    if ids == "consecutive":
        return consecutive_ids(nodes, start=start)
    if ids == "shuffled":
        return shuffled_consecutive_ids(nodes, seed=seed, start=start)
    if ids == "random":
        return random_distinct_ids(nodes, seed=seed, low=start)
    raise ValueError(f"unknown id scheme: {ids!r}")


def _build(
    graph: nx.Graph,
    node_order: Sequence[Hashable],
    ids: str,
    seed: int,
    start: int,
    inputs: Optional[Mapping[Hashable, object]],
) -> Network:
    assignment = _make_ids(list(node_order), ids, seed, start)
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
    graph = nx.cycle_graph(n)
    return _build(graph, range(n), ids, seed, id_start, inputs)


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
    graph = nx.path_graph(n)
    return _build(graph, range(n), ids, seed, id_start, inputs)


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
    graph = nx.grid_2d_graph(rows, cols)
    order = [(r, c) for r in range(rows) for c in range(cols)]
    return _build(graph, order, ids, seed, id_start, inputs)


def torus_network(
    rows: int,
    cols: int,
    ids: str = "consecutive",
    seed: int = 0,
    id_start: int = 1,
    inputs: Optional[Mapping[Hashable, object]] = None,
) -> Network:
    """The rows × cols torus (4-regular when both dimensions are ≥ 3)."""
    if rows < 3 or cols < 3:
        raise ValueError("torus dimensions must be at least 3 to stay simple")
    graph = nx.grid_2d_graph(rows, cols, periodic=True)
    order = [(r, c) for r in range(rows) for c in range(cols)]
    return _build(graph, order, ids, seed, id_start, inputs)


def complete_network(
    n: int,
    ids: str = "consecutive",
    seed: int = 0,
    id_start: int = 1,
    inputs: Optional[Mapping[Hashable, object]] = None,
) -> Network:
    """The complete graph K_n."""
    if n < 1:
        raise ValueError("a complete graph needs at least 1 node")
    graph = nx.complete_graph(n)
    return _build(graph, range(n), ids, seed, id_start, inputs)


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
    graph = nx.star_graph(leaves)
    return _build(graph, range(leaves + 1), ids, seed, id_start, inputs)


def balanced_tree_network(
    branching: int,
    height: int,
    ids: str = "consecutive",
    seed: int = 0,
    id_start: int = 1,
    inputs: Optional[Mapping[Hashable, object]] = None,
) -> Network:
    """The perfectly balanced tree with given branching factor and height."""
    if branching < 1 or height < 0:
        raise ValueError("branching must be ≥ 1 and height ≥ 0")
    graph = nx.balanced_tree(branching, height)
    return _build(graph, sorted(graph.nodes()), ids, seed, id_start, inputs)


def caterpillar_network(
    spine: int,
    legs_per_node: int,
    ids: str = "consecutive",
    seed: int = 0,
    id_start: int = 1,
    inputs: Optional[Mapping[Hashable, object]] = None,
) -> Network:
    """A caterpillar: a spine path with ``legs_per_node`` pendant leaves per
    spine node.  Maximum degree is ``legs_per_node + 2``."""
    if spine < 1 or legs_per_node < 0:
        raise ValueError("spine must be ≥ 1 and legs_per_node ≥ 0")
    graph = nx.Graph()
    order: list = []
    for i in range(spine):
        node = ("spine", i)
        graph.add_node(node)
        order.append(node)
        if i > 0:
            graph.add_edge(("spine", i - 1), node)
        for leg in range(legs_per_node):
            leaf = ("leg", i, leg)
            graph.add_edge(node, leaf)
            order.append(leaf)
    return _build(graph, order, ids, seed, id_start, inputs)


def hypercube_network(
    dimension: int,
    ids: str = "consecutive",
    seed: int = 0,
    id_start: int = 1,
    inputs: Optional[Mapping[Hashable, object]] = None,
) -> Network:
    """The ``dimension``-dimensional hypercube (2^dimension nodes, regular of
    degree ``dimension``)."""
    if dimension < 1:
        raise ValueError("dimension must be at least 1")
    graph = nx.hypercube_graph(dimension)
    order = sorted(graph.nodes())
    return _build(graph, order, ids, seed, id_start, inputs)
