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
probability decay the proof establishes analytically.  Each one builds its
result from node and edge sequences (:meth:`Network.from_edges`), never
through a networkx graph, with the node and edge orders the same
operations on networkx graphs would give.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Sequence, Tuple

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
        ids = {mapping[node]: network.identity(node) + offset for node in network.nodes()}
        inputs = {mapping[node]: network.input_of(node) for node in network.nodes()}
        edges = [(mapping[u], mapping[v]) for u, v in network.edges()]
        result.append(Network.from_edges(mapping.values(), edges, ids, inputs))
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

    edges: List[Tuple[Hashable, Hashable]] = []
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
            ids[node] = part.identity(node)
            inputs[node] = part.input_of(node)
        edges.extend(part.edges())
    return Network.from_edges(ids, edges, ids, inputs)  # ``ids`` lists the nodes in order


def _subdivided(
    network: Network,
    paths: Dict[Tuple[Hashable, Hashable], Sequence[Tuple[Hashable, int, object]]],
    extra_edges: Sequence[Tuple[Hashable, Hashable]] = (),
) -> Network:
    """``network`` with every edge ``(a, b)`` of ``paths`` replaced by a path
    from ``a`` through new ``(node, identity, input)`` triples to ``b``, then
    ``extra_edges`` added.  One build, with the node and edge orders of
    subdividing one edge at a time."""
    ids, inputs = network.ids, network.inputs
    used = set(ids.values())
    removed: set = set()
    added: List[Tuple[Hashable, Hashable]] = []
    for (a, b), middle in paths.items():
        if a not in network or b not in network.adjacency[a]:
            raise ValueError(f"edge {(a, b)!r} not present")
        removed.update({(a, b), (b, a)})
        for node, identity, value in middle:
            if node in ids:
                raise ValueError(f"node object {node!r} already present")
            if identity in used:
                raise ValueError(f"identity {identity} already present")
            used.add(identity)
            ids[node], inputs[node] = identity, value
        chain = [a, *(node for node, _, _ in middle), b]
        added.extend(zip(chain, chain[1:]))
    kept = [pair for pair in network.edges() if pair not in removed]
    # ``ids`` lists the old nodes in order, then the new ones.
    return Network.from_edges(ids, kept + added + list(extra_edges), ids, inputs)


def subdivide_edge(
    network: Network,
    edge: Tuple[Hashable, Hashable],
    new_node: Hashable,
    new_identity: int,
    new_input: object = "",
) -> Network:
    """Subdivide one edge once: replace ``{a, b}`` by ``{a, m}, {m, b}``."""
    a, b = edge
    return _subdivided(network, {(a, b): [(new_node, new_identity, new_input)]})


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
    middle = [
        (first_node, first_identity, first_input),
        (second_node, second_identity, second_input),
    ]
    return _subdivided(network, {(a, b): middle})


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
    paths = {}
    for index, anchor in enumerate(new_anchors):
        # The edge towards the anchor's smallest-identity neighbour: every
        # neighbour is in the anchor's own instance, and the instances'
        # subdivisions touch disjoint edges, so the order of doing them does
        # not matter.
        target = union.neighbors(anchor)[0]
        v_node = ("glue-v", index)
        w_node = ("glue-w", index)
        paths[(anchor, target)] = [
            (v_node, next_identity, filler_input),
            (w_node, next_identity + 1, filler_input),
        ]
        next_identity += 2
        subdivision_nodes.append((v_node, w_node))
    count = len(instances)
    gluing = [
        (subdivision_nodes[index][0], subdivision_nodes[(index + 1) % count][1])
        for index in range(count)
    ]
    glued = _subdivided(union, paths, gluing)

    return GlueResult(
        network=glued,
        anchor_nodes=new_anchors,
        subdivision_nodes=subdivision_nodes,
        instance_nodes=instance_nodes,
    )
