"""Graph operations used by the proofs of Claim 3 and Theorem 1.

Three constructions appear in the paper:

* **Disjoint union** (Claim 3): the instances ``(H_i, x_i, id_i)`` are placed
  side by side; their identity ranges must not overlap so the union carries a
  well-defined identity assignment.

* **Double edge subdivision**: an edge ``e_i`` incident to the chosen node
  ``u_i`` of ``H_i`` is subdivided twice, inserting two fresh nodes ``v_i``
  and ``w_i``.

* **Cyclic gluing** (Theorem 1): after subdividing, an edge is added between
  ``v_i`` and ``w_{i+1}`` for every ``i`` (indices mod the number of
  instances), producing a *connected* graph of maximum degree ``max(k, 3)``
  — hence the requirement ``k > 2``.  The inputs and identities of the
  inserted nodes are set arbitrarily, subject only to not colliding with any
  identity already used.

These operations are purely combinatorial, so they can be executed exactly;
the error-amplification experiments (E6, E9) measure on their outputs the
probability decay the proof establishes analytically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Sequence, Tuple

import networkx as nx

from repro.local.network import Network

__all__ = [
    "relabel_disjoint",
    "disjoint_union",
    "subdivide_edge",
    "double_subdivide_edge",
    "GlueResult",
    "glue_instances",
]


def relabel_disjoint(networks: Sequence[Network]) -> List[Network]:
    """Make node objects and identity ranges of several networks disjoint.

    Node objects become pairs ``(index, identity)``; identities are shifted
    so the range of network ``i+1`` starts strictly above the maximum
    identity of network ``i``, mirroring the construction of the instance
    sequence in the proof (``I_{i+1} = 1 + max id of H_i``).  The relative
    order of identities inside each network is preserved, so order-invariant
    algorithms behave identically on the relabelled copies.
    """
    result: List[Network] = []
    offset = 0
    for index, network in enumerate(networks):
        mapping = {node: (index, network.identity(node)) for node in network.nodes()}
        graph = nx.relabel_nodes(network.graph, mapping, copy=True)
        ids = {mapping[node]: network.identity(node) + offset for node in network.nodes()}
        inputs = {mapping[node]: network.input_of(node) for node in network.nodes()}
        result.append(Network(graph, ids, inputs))
        offset = max(ids.values())
    return result


def disjoint_union(networks: Sequence[Network], relabel: bool = True) -> Network:
    """The disjoint union of several networks (the Claim 3 construction).

    With ``relabel=True`` (default) the inputs are first passed through
    :func:`relabel_disjoint`, which guarantees both node-object and identity
    disjointness.  With ``relabel=False`` the caller asserts the networks are
    already disjoint; a collision raises ``ValueError``.
    """
    if not networks:
        raise ValueError("need at least one network")
    parts = relabel_disjoint(networks) if relabel else list(networks)

    graph = nx.Graph()
    ids: Dict[Hashable, int] = {}
    inputs: Dict[Hashable, object] = {}
    seen_identities: set[int] = set()
    for part in parts:
        for node in part.nodes():
            if node in ids:
                raise ValueError(f"node object collision on {node!r}; use relabel=True")
            if part.identity(node) in seen_identities:
                raise ValueError(
                    f"identity collision on {part.identity(node)}; use relabel=True"
                )
            seen_identities.add(part.identity(node))
        graph.add_nodes_from(part.nodes())
        graph.add_edges_from(part.edges())
        ids.update({node: part.identity(node) for node in part.nodes()})
        inputs.update({node: part.input_of(node) for node in part.nodes()})
    return Network(graph, ids, inputs)


def subdivide_edge(
    network: Network,
    edge: Tuple[Hashable, Hashable],
    new_node: Hashable,
    new_identity: int,
    new_input: object = "",
) -> Network:
    """Subdivide one edge once: replace ``{a, b}`` by ``{a, m}, {m, b}``."""
    a, b = edge
    if not network.graph.has_edge(a, b):
        raise ValueError(f"edge {edge!r} not present")
    if new_node in network.graph:
        raise ValueError(f"node object {new_node!r} already present")
    if new_identity in set(network.ids.values()):
        raise ValueError(f"identity {new_identity} already present")
    graph = nx.Graph(network.graph)
    graph.remove_edge(a, b)
    graph.add_edge(a, new_node)
    graph.add_edge(new_node, b)
    ids = network.ids
    ids[new_node] = new_identity
    inputs = network.inputs
    inputs[new_node] = new_input
    return Network(graph, ids, inputs)


def double_subdivide_edge(
    network: Network,
    edge: Tuple[Hashable, Hashable],
    first_node: Hashable,
    second_node: Hashable,
    first_identity: int,
    second_identity: int,
    first_input: object = "",
    second_input: object = "",
) -> Network:
    """Subdivide one edge twice: ``{a, b}`` becomes ``a - m1 - m2 - b``.

    This is exactly the operation applied to the edge ``e_i`` incident to the
    chosen node ``u_i`` in the proof of Theorem 1 (inserting ``v_i`` and
    ``w_i``); note it never raises any degree, and the two inserted nodes have
    degree 2 before the gluing edges are added.
    """
    a, b = edge
    intermediate = subdivide_edge(network, (a, b), first_node, first_identity, first_input)
    return subdivide_edge(
        intermediate, (first_node, b), second_node, second_identity, second_input
    )


@dataclass
class GlueResult:
    """Outcome of :func:`glue_instances`.

    Attributes
    ----------
    network:
        The glued, connected network ``G``.
    anchor_nodes:
        For each input instance ``i``, the (relabelled) anchor node ``u_i``
        around which the subdivision happened.
    subdivision_nodes:
        For each instance ``i``, the pair ``(v_i, w_i)`` of inserted nodes.
    instance_nodes:
        For each instance ``i``, the set of nodes of ``G`` that originate
        from ``H_i`` (excluding the inserted nodes).
    """

    network: Network
    anchor_nodes: List[Hashable]
    subdivision_nodes: List[Tuple[Hashable, Hashable]]
    instance_nodes: List[set] = field(default_factory=list)


def glue_instances(
    instances: Sequence[Network],
    anchors: Sequence[Hashable],
    filler_input: object = "",
) -> GlueResult:
    """The connected gluing of Theorem 1's proof.

    Parameters
    ----------
    instances:
        The hard instances ``H_1, ..., H_{nu'}`` (each with its inputs and
        identities).  At least two are required for the cyclic gluing to make
        sense; a single instance is returned essentially unchanged apart from
        one subdivided edge closing on itself is not allowed, so a single
        instance raises ``ValueError``.
    anchors:
        For each instance, the chosen node ``u_i`` (a node object *of that
        instance*) satisfying Claim 5.  An arbitrary incident edge ``e_i`` is
        selected deterministically (towards the smallest-identity neighbour).
    filler_input:
        Input assigned to the inserted subdivision nodes ("set arbitrarily"
        in the paper).

    Returns
    -------
    GlueResult
        The glued network plus bookkeeping about where each instance and each
        inserted node ended up.

    Notes
    -----
    Degrees: the anchor ``u_i`` keeps its degree (its edge towards ``e_i`` is
    redirected to ``v_i``); the inserted nodes ``v_i`` and ``w_i`` end with
    degree 3 and the whole construction therefore has maximum degree
    ``max(Δ(H_i), 3)`` — which stays within the promise ``F_k`` as long as
    ``k > 2``, the condition in the theorem statement.
    """
    if len(instances) < 2:
        raise ValueError("gluing needs at least two instances")
    if len(anchors) != len(instances):
        raise ValueError("need exactly one anchor per instance")
    for instance, anchor in zip(instances, anchors):
        if anchor not in instance:
            raise ValueError(f"anchor {anchor!r} is not a node of its instance")
        if instance.degree(anchor) == 0:
            raise ValueError(f"anchor {anchor!r} has no incident edge to subdivide")

    relabelled = relabel_disjoint(list(instances))
    # Track the anchors through the relabelling: node -> (index, identity).
    new_anchors: List[Hashable] = []
    for index, (instance, anchor) in enumerate(zip(instances, anchors)):
        new_anchors.append((index, instance.identity(anchor)))

    union = disjoint_union(relabelled, relabel=False)
    instance_nodes = [set(part.nodes()) for part in relabelled]

    next_identity = union.max_identity() + 1
    subdivision_nodes: List[Tuple[Hashable, Hashable]] = []
    current = union
    for index, anchor in enumerate(new_anchors):
        neighbors = current.neighbors(anchor)
        # Only consider neighbours that belong to the same original instance,
        # so repeated subdivisions never pick an inserted node.
        own = [nb for nb in neighbors if nb in instance_nodes[index]]
        target = own[0] if own else neighbors[0]
        v_node = ("glue-v", index)
        w_node = ("glue-w", index)
        current = double_subdivide_edge(
            current,
            (anchor, target),
            first_node=v_node,
            second_node=w_node,
            first_identity=next_identity,
            second_identity=next_identity + 1,
            first_input=filler_input,
            second_input=filler_input,
        )
        next_identity += 2
        subdivision_nodes.append((v_node, w_node))

    graph = nx.Graph(current.graph)
    count = len(instances)
    for index in range(count):
        v_node = subdivision_nodes[index][0]
        w_next = subdivision_nodes[(index + 1) % count][1]
        graph.add_edge(v_node, w_next)
    glued = Network(graph, current.ids, current.inputs)

    return GlueResult(
        network=glued,
        anchor_nodes=new_anchors,
        subdivision_nodes=subdivision_nodes,
        instance_nodes=instance_nodes,
    )
