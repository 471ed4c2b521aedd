"""Networks: graphs with identities and node inputs.

A network in the LOCAL model (Section 2.1.1 of the paper) is a simple graph
whose nodes carry pairwise-distinct positive-integer identities.  Instances of
construction tasks additionally carry an input string ``x(v)`` per node, and
input-output configurations carry an output ``y(v)`` per node; the
:class:`Network` class stores the graph, the identities, and the inputs, while
outputs live in :class:`repro.core.languages.Configuration` so the same
network can be paired with many candidate outputs.

Every network keeps an adjacency index, built once at construction: each
node maps to the tuple of its neighbours sorted by identity.  Neighbour and
degree queries, and ball extraction (:func:`repro.local.ball.collect_ball`),
read the index instead of the graph.  The index is a second copy of the
topology, so the network's private graph copy is frozen (``nx.freeze``):
mutating it raises :class:`networkx.NetworkXError` instead of silently
desynchronising the two.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Hashable, Iterable, Iterator, Mapping, Optional, Tuple

import networkx as nx

from repro.local.identifiers import (
    IdAssignment,
    consecutive_ids,
    validate_id_assignment,
)

__all__ = ["Network"]


class Network:
    """A LOCAL-model network: a simple graph + identities + node inputs.

    Parameters
    ----------
    graph:
        A simple undirected graph (no self-loops, no multi-edges).  The graph
        is copied so later mutation of the argument does not affect the
        network.  Connectivity is *not* required: the paper's Claim 3 works
        with disconnected unions, and the gluing construction starts from
        them.  Use :meth:`is_connected` to check.
    ids:
        Mapping node -> positive-integer identity.  Defaults to consecutive
        identities ``1..n`` in the graph's node iteration order.
    inputs:
        Mapping node -> input value (the paper uses binary strings of length
        at most ``k``; any hashable value is accepted, and
        :func:`repro.graphs.promise.label_size` measures its encoded size).
        Missing nodes default to the empty input ``""``.

    Notes
    -----
    Nodes can be arbitrary hashable objects.  All per-node dictionaries
    returned by the class are keyed by the original node objects.
    """

    def __init__(
        self,
        graph: nx.Graph,
        ids: Optional[Mapping[Hashable, int]] = None,
        inputs: Optional[Mapping[Hashable, object]] = None,
    ) -> None:
        if graph.is_directed():
            raise ValueError("LOCAL-model networks are undirected")
        if any(u == v for u, v in graph.edges()):
            raise ValueError("LOCAL-model networks are simple graphs (no self-loops)")
        self._graph = nx.Graph()
        self._graph.add_nodes_from(graph.nodes())
        self._graph.add_edges_from(graph.edges())
        nx.freeze(self._graph)

        if ids is None:
            ids = consecutive_ids(list(self._graph.nodes()))
        missing = set(self._graph.nodes()) - set(ids)
        if missing:
            raise ValueError(f"identity missing for nodes: {sorted(map(repr, missing))[:5]}")
        extra = set(ids) - set(self._graph.nodes())
        if extra:
            raise ValueError(f"identities given for unknown nodes: {sorted(map(repr, extra))[:5]}")
        validate_id_assignment(ids)
        self._ids: IdAssignment = {node: int(ids[node]) for node in self._graph.nodes()}

        inputs = dict(inputs or {})
        unknown = set(inputs) - set(self._graph.nodes())
        if unknown:
            raise ValueError(f"inputs given for unknown nodes: {sorted(map(repr, unknown))[:5]}")
        self._inputs: Dict[Hashable, object] = {
            node: inputs.get(node, "") for node in self._graph.nodes()
        }

        self._id_to_node = {ident: node for node, ident in self._ids.items()}
        identity = self._ids.__getitem__
        self._adjacency: Dict[Hashable, Tuple[Hashable, ...]] = {
            node: tuple(sorted(neighbours, key=identity))
            for node, neighbours in self._graph.adjacency()
        }

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def graph(self) -> nx.Graph:
        """The underlying :class:`networkx.Graph`, frozen: mutating it raises
        :class:`networkx.NetworkXError`."""
        return self._graph

    @property
    def adjacency(self) -> Mapping[Hashable, Tuple[Hashable, ...]]:
        """Read-only index: node -> tuple of its neighbours sorted by identity."""
        return MappingProxyType(self._adjacency)

    @property
    def ids(self) -> IdAssignment:
        """Mapping node -> identity (a copy)."""
        return dict(self._ids)

    @property
    def inputs(self) -> Dict[Hashable, object]:
        """Mapping node -> input value (a copy)."""
        return dict(self._inputs)

    def nodes(self) -> list:
        """The nodes in a stable order (graph iteration order)."""
        return list(self._graph.nodes())

    def edges(self) -> list:
        """The edges of the network."""
        return list(self._graph.edges())

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    def __iter__(self) -> Iterator:
        return iter(self._graph.nodes())

    def __contains__(self, node: Hashable) -> bool:
        return node in self._graph

    def number_of_nodes(self) -> int:
        return self._graph.number_of_nodes()

    def number_of_edges(self) -> int:
        return self._graph.number_of_edges()

    def neighbors(self, node: Hashable) -> list:
        """Neighbours of a node, sorted by identity for determinism."""
        return list(self._adjacency[node])

    def degree(self, node: Hashable) -> int:
        return len(self._adjacency[node])

    def max_degree(self) -> int:
        """The maximum degree Δ of the network (0 for an empty graph)."""
        return max(map(len, self._adjacency.values()), default=0)

    def identity(self, node: Hashable) -> int:
        return self._ids[node]

    def node_with_identity(self, identity: int) -> Hashable:
        """Inverse lookup: the node carrying a given identity."""
        return self._id_to_node[int(identity)]

    def input_of(self, node: Hashable) -> object:
        return self._inputs[node]

    def max_identity(self) -> int:
        return max(self._ids.values()) if self._ids else 0

    def min_identity(self) -> int:
        return min(self._ids.values()) if self._ids else 0

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #
    def is_connected(self) -> bool:
        if self.number_of_nodes() == 0:
            return True
        return nx.is_connected(self._graph)

    def connected_components(self) -> list[set]:
        return [set(c) for c in nx.connected_components(self._graph)]

    def diameter(self) -> int:
        """Diameter of the network; for disconnected graphs, the maximum
        diameter over connected components."""
        if self.number_of_nodes() == 0:
            return 0
        if nx.is_connected(self._graph):
            return nx.diameter(self._graph)
        return max(
            nx.diameter(self._graph.subgraph(c))
            for c in nx.connected_components(self._graph)
        )

    def distance(self, u: Hashable, v: Hashable) -> int:
        """Hop distance between two nodes (raises if unreachable)."""
        return nx.shortest_path_length(self._graph, u, v)

    def distances_from(self, v: Hashable, cutoff: Optional[int] = None) -> Dict[Hashable, int]:
        """Hop distance from ``v`` to every node within ``cutoff`` hops."""
        return dict(nx.single_source_shortest_path_length(self._graph, v, cutoff=cutoff))

    # ------------------------------------------------------------------ #
    # Derived networks
    # ------------------------------------------------------------------ #
    def with_inputs(self, inputs: Mapping[Hashable, object]) -> "Network":
        """A copy of the network with (some) inputs replaced."""
        merged = dict(self._inputs)
        merged.update(inputs)
        return Network(self._graph, self._ids, merged)

    def with_ids(self, ids: Mapping[Hashable, int]) -> "Network":
        """A copy of the network with the identity assignment replaced."""
        return Network(self._graph, ids, self._inputs)

    def relabeled_by_identity(self) -> "Network":
        """A copy whose node objects *are* the identities.

        Useful when serialising instances or when combining networks whose
        node objects collide but whose identities are disjoint.
        """
        mapping = {node: ident for node, ident in self._ids.items()}
        g = nx.relabel_nodes(self._graph, mapping, copy=True)
        ids = {ident: ident for ident in mapping.values()}
        inputs = {mapping[node]: val for node, val in self._inputs.items()}
        return Network(g, ids, inputs)

    def induced_subnetwork(self, nodes: Iterable[Hashable]) -> "Network":
        """The sub-network induced by a set of nodes (ids and inputs kept)."""
        nodes = list(nodes)
        sub = self._graph.subgraph(nodes)
        return Network(
            sub,
            {node: self._ids[node] for node in nodes},
            {node: self._inputs[node] for node in nodes},
        )

    def copy(self) -> "Network":
        return Network(self._graph, self._ids, self._inputs)

    # ------------------------------------------------------------------ #
    # Dunder helpers
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network(n={self.number_of_nodes()}, m={self.number_of_edges()}, "
            f"max_degree={self.max_degree()})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        return (
            set(self._graph.nodes()) == set(other._graph.nodes())
            and set(map(frozenset, self._graph.edges()))
            == set(map(frozenset, other._graph.edges()))
            and self._ids == other._ids
            and self._inputs == other._inputs
        )

    def __hash__(self) -> int:
        return hash(
            (
                frozenset(self._graph.nodes()),
                frozenset(map(frozenset, self._graph.edges())),
                frozenset(self._ids.items()),
            )
        )
