"""Random bounded-degree graph families.

The paper's results hold on graphs of bounded degree (the promise ``F_k``
of Section 2.2.3), so the random families offered here are
degree-controlled: random d-regular graphs and a degree-truncated G(n, p)
(Erdős–Rényi edges are dropped greedily whenever they would exceed the
requested maximum degree, preserving simplicity and the degree bound while
keeping the edge distribution close to G(n, p) for sparse p).

Random regular graphs, the instances of E7 and E10, come from the pairing
of Steger & Wormald ("Generating random regular graphs quickly", Combin.
Probab. Comput. 8, 1999), run here draw for draw as networkx's
``random_regular_graph`` runs it, so the instance definition lives in this
module.  The truncated G(n, p) builds a networkx graph, importing networkx
when called.
"""

from __future__ import annotations

import random
from typing import Dict, Mapping, Optional, Set, Tuple

import numpy as np

from repro.local.identifiers import (
    consecutive_ids,
    random_distinct_ids,
    shuffled_consecutive_ids,
)
from repro.local.network import Network

__all__ = [
    "random_regular_network",
    "bounded_degree_gnp_network",
]


def _instance_rng(seed: int) -> np.random.Generator:
    """The RNG used to *sample input instances* (graphs), seeded directly.

    Instance sampling is deliberately outside the execution-tape convention
    of :mod:`repro.local.randomness`: a graph is part of the problem input,
    not of an execution, so its seed is its complete provenance — there is no
    ``(master_seed, salt, identity)`` derivation chain to preserve, and tying
    graph generation to the tape layer would couple instance identity to
    engine internals.  This helper is the module's single RNG constructor;
    the DET001 allowlist entry for ``graphs/random_graphs.py`` in
    :mod:`repro.check.config` points here.  The regular-graph pairing draws
    from a stdlib :class:`random.Random`, seeded with one ``integers`` draw
    of this generator per attempt.
    """
    return np.random.default_rng(seed)


def _free_pair_left(edges: Set[Tuple[int, int]], leftover: Dict[int, int]) -> bool:
    """Whether the pairing can go on: no stubs are left, or two nodes with
    leftover stubs are not joined yet.

    The scan is networkx's, quirk included: after a swap the smaller node
    stays the first endpoint for the rest of the inner loop, so some pairs
    are never looked at.  Changing that would change when a pairing
    restarts, and with it every later draw.
    """
    if not leftover:
        return True
    for first in leftover:
        for second in leftover:
            if first == second:
                break
            if first > second:
                first, second = second, first
            if (first, second) not in edges:
                return True
    return False


def _pairing(n: int, degree: int, rng: random.Random) -> Set[Tuple[int, int]]:
    """The edge set of a random ``degree``-regular graph on ``0..n-1``.

    Steger–Wormald pairing: shuffle ``degree`` stubs per node and pair them
    off; a pair that would make a loop or a repeated edge returns its stubs
    for the next round, and a round whose leftover stubs can no longer all
    be paired restarts from scratch.  Draw for draw and edge for edge (set
    insertion order included) networkx's ``random_regular_graph`` with the
    same ``rng``.  The set holds tuples of ints, whose hashes do not depend
    on the process, so its iteration order is reproducible.
    """
    while True:
        edges: Set[Tuple[int, int]] = set()
        stubs = list(range(n)) * degree
        while stubs:
            leftover: Dict[int, int] = {}
            rng.shuffle(stubs)
            pairs = iter(stubs)
            for u, v in zip(pairs, pairs):
                if u > v:
                    u, v = v, u
                if u != v and (u, v) not in edges:
                    edges.add((u, v))
                else:
                    leftover[u] = leftover.get(u, 0) + 1
                    leftover[v] = leftover.get(v, 0) + 1
            if not _free_pair_left(edges, leftover):
                break
            stubs = [node for node, count in leftover.items() for _ in range(count)]
        else:
            return edges


def _ids_for(nodes, ids: str, seed: int, start: int):
    if ids == "consecutive":
        return consecutive_ids(nodes, start=start)
    if ids == "shuffled":
        return shuffled_consecutive_ids(nodes, seed=seed, start=start)
    if ids == "random":
        return random_distinct_ids(nodes, seed=seed, low=start)
    raise ValueError(f"unknown id scheme: {ids!r}")


def random_regular_network(
    n: int,
    degree: int,
    seed: int = 0,
    ids: str = "shuffled",
    id_start: int = 1,
    inputs: Optional[Mapping] = None,
    require_connected: bool = True,
    max_attempts: int = 50,
) -> Network:
    """A uniformly random simple ``degree``-regular graph on ``n`` nodes.

    ``n * degree`` must be even and ``degree < n``.  When
    ``require_connected`` is set (the default — the paper's basic model deals
    with connected graphs), sampling is retried until a connected graph is
    produced.
    """
    if degree >= n:
        raise ValueError("degree must be smaller than n")
    if (n * degree) % 2 != 0:
        raise ValueError("n * degree must be even for a regular graph to exist")
    rng = _instance_rng(seed)
    assignment = _ids_for(range(n), ids, seed, id_start)
    for _ in range(max_attempts):
        edges = _pairing(n, degree, random.Random(int(rng.integers(0, 2**31 - 1))))
        network = Network.from_edges(range(n), edges, assignment, inputs)
        if not require_connected or network.is_connected():
            return network
    raise RuntimeError(
        f"failed to sample a connected {degree}-regular graph on {n} nodes "
        f"in {max_attempts} attempts"
    )


def bounded_degree_gnp_network(
    n: int,
    p: float,
    max_degree: int,
    seed: int = 0,
    ids: str = "shuffled",
    id_start: int = 1,
    inputs: Optional[Mapping] = None,
    connect: bool = True,
) -> Network:
    """A G(n, p) sample truncated to maximum degree ``max_degree``.

    Edges of a G(n, p) sample are visited in random order and kept only when
    both endpoints still have residual degree.  When ``connect`` is set, a
    spanning structure is enforced afterwards by adding path edges between
    consecutive components whenever the degree budget allows (when it does
    not, the graph is returned as is and may be disconnected — callers that
    need connectivity should check).
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if max_degree < 1:
        raise ValueError("max_degree must be at least 1")
    import networkx as nx

    rng = _instance_rng(seed)
    base = nx.gnp_random_graph(n, p, seed=int(rng.integers(0, 2**31 - 1)))
    edges = list(base.edges())
    rng.shuffle(edges)

    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for u, v in edges:
        if graph.degree(u) < max_degree and graph.degree(v) < max_degree:
            graph.add_edge(u, v)

    if connect and n > 1:
        components = [sorted(c) for c in nx.connected_components(graph)]
        components.sort(key=lambda c: c[0])
        for current, following in zip(components, components[1:]):
            candidates_u = [u for u in current if graph.degree(u) < max_degree]
            candidates_v = [v for v in following if graph.degree(v) < max_degree]
            if candidates_u and candidates_v:
                graph.add_edge(candidates_u[0], candidates_v[0])

    return Network(graph, _ids_for(list(graph.nodes()), ids, seed, id_start), inputs)
