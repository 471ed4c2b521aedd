"""Radius-t balls, the elementary object of constant-time local computing.

Following Section 2.1.1 of the paper, the ball ``B_G(v, t)`` is the subgraph
of ``G`` induced by all nodes at distance at most ``t`` from ``v``, *excluding
the edges between nodes at distance exactly* ``t`` from ``v``.  A ``t``-round
LOCAL algorithm is equivalent to a map from such balls (with their node
identities and inputs, and, for decision tasks, outputs) to local outputs.

That definition lives in one place, :func:`_ball`: a breadth-first search to
depth ``t`` (:func:`repro.local.network.breadth_first_distances`, the search
the network's distance queries run) over an adjacency mapping whose
neighbour tuples are sorted by identity (a radius-0 ball, the centre alone,
skips the search).
:func:`collect_ball` runs it on a network's adjacency index, and the
message-passing lift (:mod:`repro.local.algorithm`) runs it on the
adjacency a node has learned.  A :class:`BallView` stores the ball as that
adjacency: members in BFS order, each with its in-ball neighbours in identity
order.  Its ``graph`` (a frozen :class:`networkx.Graph`) is built only when
first read.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, Hashable, Mapping, Optional, Sequence, Tuple

from repro.local.network import Network, breadth_first_distances

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["BallView", "collect_ball"]


@dataclass(frozen=True)
class BallView:
    """An immutable view of the ball ``B_G(v, t)``.

    Attributes
    ----------
    center:
        The node the ball is centred at.
    radius:
        The radius ``t``.
    adjacency:
        The ball's structure: every member (nodes at distance ≤ t from the
        centre, in BFS order) mapped to the tuple of its neighbours inside
        the ball, sorted by identity.  Edges joining two nodes at distance
        exactly t are absent.
    ids:
        Identity of every node in the ball.
    inputs:
        Input value of every node in the ball.
    distances:
        Hop distance (in the original graph) from the centre.
    outputs:
        Output value of every node in the ball, when the ball is extracted
        from an input-output configuration; ``None`` otherwise.
    """

    center: Hashable
    radius: int
    adjacency: Mapping[Hashable, Tuple[Hashable, ...]]
    ids: Mapping[Hashable, int]
    inputs: Mapping[Hashable, object]
    distances: Mapping[Hashable, int]
    outputs: Optional[Mapping[Hashable, object]] = None

    @cached_property
    def graph(self) -> nx.Graph:
        """The ball as a frozen :class:`networkx.Graph`, built on first access
        and cached on the view."""
        import networkx as nx

        graph = nx.Graph()
        graph.add_nodes_from(self.adjacency)
        graph.add_edges_from(self.edges())
        return nx.freeze(graph)

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def nodes(self) -> list:
        """Nodes of the ball sorted by identity (deterministic order)."""
        return sorted(self.adjacency, key=self.ids.__getitem__)

    def edges(self) -> list:
        """Every edge of the ball once, in member order."""
        seen: set = set()
        edges = []
        for node, neighbours in self.adjacency.items():
            seen.add(node)
            edges.extend((node, other) for other in neighbours if other not in seen)
        return edges

    def __len__(self) -> int:
        return len(self.adjacency)

    def __contains__(self, node: Hashable) -> bool:
        return node in self.adjacency

    def center_id(self) -> int:
        return int(self.ids[self.center])

    def center_input(self) -> object:
        return self.inputs[self.center]

    def center_output(self) -> object:
        if self.outputs is None:
            raise ValueError("this ball carries no outputs")
        return self.outputs[self.center]

    def neighbors(self, node: Hashable) -> list:
        """Neighbours of ``node`` inside the ball, sorted by identity."""
        return list(self.adjacency[node])

    def center_degree(self) -> int:
        """Degree of the centre inside the ball.

        For ``radius >= 1`` this equals the centre's degree in the host
        graph, because all of its neighbours are at distance 1 ≤ t.
        """
        return len(self.adjacency[self.center])

    def boundary(self) -> list:
        """Nodes at distance exactly ``radius`` from the centre."""
        return [node for node, dist in self.distances.items() if dist == self.radius]

    def id_ranks(self) -> Dict[Hashable, int]:
        """Rank (0-based) of every node's identity within the ball."""
        return {node: rank for rank, node in enumerate(self.nodes())}

    def with_outputs(self, outputs: Mapping[Hashable, object]) -> "BallView":
        """Attach outputs (restricted to the ball's nodes) to this view."""
        return dataclasses.replace(self, outputs={node: outputs[node] for node in self.adjacency})


def _ball(
    adjacency: Mapping[Hashable, Sequence[Hashable]],
    center: Hashable,
    radius: int,
    identity: Callable[[Hashable], int],
    input_of: Callable[[Hashable], object],
    outputs: Optional[Mapping[Hashable, object]] = None,
) -> BallView:
    """The paper's ball ``B(center, radius)`` over an adjacency mapping.

    ``adjacency`` maps each node to its neighbours sorted by identity.  A
    breadth-first search to depth ``radius`` gives the members and their
    distances; every edge is kept except those whose two endpoints are both
    at distance exactly ``radius``.  ``identity`` and ``input_of`` label
    the members; ``outputs``, when given, must cover them.
    """
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if radius == 0 and center in adjacency:  # the centre alone, as the search would find it
        ids, inputs = {center: identity(center)}, {center: input_of(center)}
        out = None if outputs is None else {center: outputs[center]}
        return BallView(center, 0, {center: ()}, ids, inputs, {center: 0}, out)
    distances = breadth_first_distances(adjacency, center, radius)
    ball_adjacency = {}
    for node, dist in distances.items():
        # An interior node keeps every neighbour (all are at distance ≤ t);
        # a boundary node keeps only those one step closer to the centre.
        others = adjacency[node]
        if dist == radius:
            others = [other for other in others if distances.get(other, dist) < dist]
        ball_adjacency[node] = tuple(others)
    return BallView(
        center=center,
        radius=radius,
        adjacency=ball_adjacency,
        ids={node: identity(node) for node in distances},
        inputs={node: input_of(node) for node in distances},
        distances=distances,
        outputs=None if outputs is None else {node: outputs[node] for node in distances},
    )


def collect_ball(
    network: Network,
    center: Hashable,
    radius: int,
    outputs: Optional[Mapping[Hashable, object]] = None,
) -> BallView:
    """Extract ``B_G(center, radius)`` from a network.

    Implements exactly the paper's definition: the ball contains every node
    at hop distance at most ``radius`` from the centre, and every edge of the
    host graph between two such nodes *except* the edges whose two endpoints
    are both at distance exactly ``radius``.  Raises
    :class:`networkx.NodeNotFound` when ``center`` is not in the network.
    """
    return _ball(network.adjacency, center, radius, network.identity, network.input_of, outputs)

