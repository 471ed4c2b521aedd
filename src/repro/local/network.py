"""Networks: graphs with identities and node inputs.

A network in the LOCAL model (Section 2.1.1 of the paper) is a simple graph
whose nodes carry pairwise-distinct positive-integer identities.  Instances of
construction tasks additionally carry an input string ``x(v)`` per node, and
input-output configurations carry an output ``y(v)`` per node; the
:class:`Network` class stores the graph, the identities, and the inputs, while
outputs live in :class:`repro.core.languages.Configuration` so the same
network can be paired with many candidate outputs.

A network holds one copy of its topology: the node tuple, the edge tuple,
and an adjacency index in which each node maps to the tuple of its
neighbours sorted by identity.  There is one construction path, from a node
sequence and an edge sequence (:meth:`Network.from_edges`);
``Network(graph)`` passes a networkx graph's nodes and edges to it, and the
edge tuple is kept in the order networkx iterates the same graph, so both
ways give equal networks with equal node and edge orders.  Neighbour and
degree queries, connectivity (:meth:`Network.connected_components`), and
ball extraction (:func:`repro.local.ball.collect_ball`) read the index.
Connectivity and the distance queries (:meth:`Network.distances_from`,
:meth:`Network.diameter`) are breadth-first searches over the index, the
same search that extracts balls (:func:`breadth_first_distances`).  The
networkx form, :attr:`Network.graph`, is built from the two tuples on
first read and frozen (``nx.freeze``), like
:attr:`repro.local.ball.BallView.graph`; networkx is imported only there
and when a search is asked to start at a missing node.  The array form of
the index,
:attr:`Network.neighbor_positions` (built on first read), serves the array
membership checks.  Networks derived with new inputs
(:meth:`Network.with_inputs`, :meth:`Network.copy`) share their parent's
topology instead of copying it.

Equality is by content: nodes, edges, identities and inputs.  The hash is
computed once, from the identities and the edges between them only, so it
never hashes a node object and is the same in every process.
"""

from __future__ import annotations

from functools import cached_property
from types import MappingProxyType
from typing import TYPE_CHECKING, Dict, Hashable, Iterable, Iterator, Mapping, Optional, Tuple

import numpy as np

from repro.local.identifiers import (
    IdAssignment,
    consecutive_ids,
    validate_id_assignment,
)

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["Network", "breadth_first_distances"]


def breadth_first_distances(
    adjacency: Mapping[Hashable, Iterable[Hashable]],
    source: Hashable,
    cutoff: Optional[int] = None,
) -> Dict[Hashable, int]:
    """Hop distance from ``source`` to every node within ``cutoff`` hops
    (all reachable nodes when ``cutoff`` is ``None``), in breadth-first
    order, neighbours visited in ``adjacency`` order.

    The one search behind ball extraction, connectivity and the distance
    queries.  Raises :class:`networkx.NodeNotFound` when ``source`` is not
    in ``adjacency``, as networkx's searches do.
    """
    if source not in adjacency:
        import networkx as nx

        raise nx.NodeNotFound(f"Source {source} is not in G")
    distances = {source: 0}
    frontier = [source]
    depth = 0
    while frontier and (cutoff is None or depth < cutoff):
        depth += 1
        reached = []
        for node in frontier:
            for other in adjacency[node]:
                if other not in distances:
                    distances[other] = depth
                    reached.append(other)
        frontier = reached
    return distances


class Network:
    """A LOCAL-model network: a simple graph + identities + node inputs.

    Parameters
    ----------
    graph:
        A simple undirected graph (no self-loops, no multi-edges).  Its nodes
        and edges are copied, in iteration order, so later mutation of the
        argument does not affect the network.  Connectivity is *not*
        required: the paper's Claim 3 works with disconnected unions, and the
        gluing construction starts from them.  Use :meth:`is_connected` to
        check.
    ids:
        Mapping node -> positive-integer identity.  Defaults to consecutive
        identities ``1..n`` in the graph's node iteration order.
    inputs:
        Mapping node -> input value (the paper uses binary strings of length
        at most ``k``; any hashable value is accepted).  Missing nodes
        default to the empty input ``""``.

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
        if graph.is_multigraph():
            raise ValueError("LOCAL-model networks are simple graphs (no parallel edges)")
        self._build(graph.nodes(), graph.edges(), ids, inputs)

    @classmethod
    def from_edges(
        cls,
        nodes: Iterable[Hashable],
        edges: Iterable[Tuple[Hashable, Hashable]],
        ids: Optional[Mapping[Hashable, int]] = None,
        inputs: Optional[Mapping[Hashable, object]] = None,
    ) -> "Network":
        """The network on ``nodes`` (in this order) joined by ``edges``.

        Equal to ``Network(graph, ids, inputs)`` for the graph built by
        ``add_nodes_from(nodes)`` then ``add_edges_from(edges)``, node and
        edge order included, without building that graph.  Every endpoint
        must be one of ``nodes``; a repeated edge, a self-loop or a repeated
        node raises ``ValueError``.
        """
        network = object.__new__(cls)
        network._build(nodes, edges, ids, inputs)
        return network

    def _build(
        self,
        nodes: Iterable[Hashable],
        edges: Iterable[Tuple[Hashable, Hashable]],
        ids: Optional[Mapping[Hashable, int]],
        inputs: Optional[Mapping[Hashable, object]],
    ) -> None:
        """The one construction path: index ``edges`` over ``nodes``, then
        validate and attach identities and inputs."""
        nodes = self._nodes = tuple(nodes)
        # Neighbours in insertion order, as networkx keeps them.
        around: Dict[Hashable, Dict[Hashable, None]] = {node: {} for node in nodes}
        if len(around) != len(nodes):
            raise ValueError("a node is listed twice")
        for u, v in edges:
            if u == v:
                raise ValueError("LOCAL-model networks are simple graphs (no self-loops)")
            try:
                around_u, around_v = around[u], around[v]
            except KeyError:
                raise ValueError(f"edge {(u, v)!r} has an endpoint that is not a node") from None
            if v in around_u:
                raise ValueError("LOCAL-model networks are simple graphs (no parallel edges)")
            around_u[v] = around_v[u] = None
        # networkx's edge order: each node, in node order, with its
        # neighbours not listed before it, in insertion order.
        node_set: set = set()
        edge_list = []
        for node, others in around.items():
            node_set.add(node)
            for other in others:
                if other not in node_set:
                    edge_list.append((node, other))
        self._edges: Tuple[Tuple[Hashable, Hashable], ...] = tuple(edge_list)

        if ids is None:
            ids = consecutive_ids(nodes)
        missing = node_set.difference(ids)
        if missing:
            raise ValueError(f"identity missing for nodes: {sorted(map(repr, missing))[:5]}")
        extra = set(ids) - node_set
        if extra:
            raise ValueError(f"identities given for unknown nodes: {sorted(map(repr, extra))[:5]}")
        validate_id_assignment(ids)
        self._ids: IdAssignment = {node: int(ids[node]) for node in nodes}

        inputs = dict(inputs or {})
        unknown = set(inputs) - node_set
        if unknown:
            raise ValueError(f"inputs given for unknown nodes: {sorted(map(repr, unknown))[:5]}")
        self._inputs: Dict[Hashable, object] = {node: inputs.get(node, "") for node in nodes}

        self._id_to_node = {ident: node for node, ident in self._ids.items()}
        identity = self._ids.__getitem__
        self._adjacency: Dict[Hashable, Tuple[Hashable, ...]] = {
            node: tuple(sorted(others, key=identity)) for node, others in around.items()
        }

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @cached_property
    def graph(self) -> nx.Graph:
        """The network as a :class:`networkx.Graph`, built on first access and
        cached; frozen: mutating it raises :class:`networkx.NetworkXError`."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self._nodes)
        graph.add_edges_from(self._edges)
        return nx.freeze(graph)

    @property
    def adjacency(self) -> Mapping[Hashable, Tuple[Hashable, ...]]:
        """Read-only index: node -> tuple of its neighbours sorted by identity."""
        return MappingProxyType(self._adjacency)

    @cached_property
    def neighbor_positions(self) -> np.ndarray:
        """The index as a read-only ``(n, max(Δ, 1))`` array: row ``i`` holds
        the positions of node ``i``'s neighbours in identity order, padded
        with the sentinel ``n``.  Built on first read."""
        n, position = len(self._nodes), {node: i for i, node in enumerate(self._nodes)}
        degrees = np.fromiter(map(len, self._adjacency.values()), dtype=np.intp, count=n)
        index = np.full((n, max(self.max_degree(), 1)), n, dtype=np.intp)
        index[np.arange(index.shape[1]) < degrees[:, None]] = [
            position[other] for others in self._adjacency.values() for other in others
        ]
        index.flags.writeable = False
        return index

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
        return list(self._nodes)

    def edges(self) -> list:
        """The edges of the network, in the graph's edge iteration order."""
        return list(self._edges)

    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterator:
        return iter(self._nodes)

    def __contains__(self, node: Hashable) -> bool:
        try:
            return node in self._adjacency
        except TypeError:  # an unhashable object is no node, as in networkx
            return False

    def number_of_nodes(self) -> int:
        return len(self._nodes)

    def number_of_edges(self) -> int:
        return len(self._edges)

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

    # ------------------------------------------------------------------ #
    # Structure queries
    # ------------------------------------------------------------------ #
    def is_connected(self) -> bool:
        """Whether every node reaches every other (the empty network does)."""
        return len(self.connected_components()) <= 1

    def connected_components(self) -> list[set]:
        """The node sets of the components, ordered by their first node."""
        components: list[set] = []
        reached: set = set()
        for start in self._nodes:
            if start not in reached:
                component = set(breadth_first_distances(self._adjacency, start))
                reached |= component
                components.append(component)
        return components

    def diameter(self) -> int:
        """Diameter of the network; for disconnected graphs, the maximum
        diameter over connected components (the largest distance from any
        node to a node it reaches)."""
        return max(
            (max(self.distances_from(node).values()) for node in self._nodes), default=0
        )

    def distances_from(self, v: Hashable, cutoff: Optional[int] = None) -> Dict[Hashable, int]:
        """Hop distance from ``v`` to every node within ``cutoff`` hops."""
        return breadth_first_distances(self._adjacency, v, cutoff)

    # ------------------------------------------------------------------ #
    # Derived networks
    # ------------------------------------------------------------------ #
    def _with_topology(self, inputs: Dict[Hashable, object]) -> "Network":
        """This network with ``inputs`` (one value per node, in node order)
        in place of its own.  Everything else, the cached hash included, is
        shared: none of it is ever mutated.  The graph is rebuilt on demand."""
        network = object.__new__(Network)
        network.__dict__.update(
            (name, value) for name, value in vars(self).items() if name != "graph"
        )
        network._inputs = inputs
        return network

    def with_inputs(self, inputs: Mapping[Hashable, object]) -> "Network":
        """A copy of the network with (some) inputs replaced."""
        unknown = set(inputs).difference(self._adjacency)
        if unknown:
            raise ValueError(f"inputs given for unknown nodes: {sorted(map(repr, unknown))[:5]}")
        merged = dict(self._inputs)
        merged.update(inputs)
        return self._with_topology(merged)

    def with_ids(self, ids: Mapping[Hashable, int]) -> "Network":
        """A copy of the network with the identity assignment replaced."""
        return Network.from_edges(self._nodes, self._edges, ids, self._inputs)

    def copy(self) -> "Network":
        return self._with_topology(self._inputs)

    # ------------------------------------------------------------------ #
    # Dunder helpers
    # ------------------------------------------------------------------ #
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Network(n={self.number_of_nodes()}, m={self.number_of_edges()}, "
            f"max_degree={self.max_degree()})"
        )

    @cached_property
    def _content_hash(self) -> int:
        # Identities are ints, whose hashes are fixed; node objects (strings,
        # say) may hash differently in every process.
        identity = self._ids.__getitem__
        return hash(
            frozenset(
                (identity(node), tuple(map(identity, neighbours)))
                for node, neighbours in self._adjacency.items()
            )
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Network):
            return NotImplemented
        if self is other:
            return True
        # Equal identity maps give equal node sets; with them, equal
        # identity-sorted indices give equal edge sets.
        return (
            self._content_hash == other._content_hash
            and self._ids == other._ids
            and self._adjacency == other._adjacency
            and self._inputs == other._inputs
        )

    def __hash__(self) -> int:
        return self._content_hash
