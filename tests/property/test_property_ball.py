"""Ball extraction pinned against a networkx reference implementation.

:func:`reference_ball` is the networkx formulation of the paper's ball
``B_G(v, t)`` (Section 2.1.1) that :func:`repro.local.ball.collect_ball` used
before it ran its own breadth-first search over the network's adjacency index.  The properties
below check, on random graphs (disconnected ones, grids with tuple nodes,
shuffled and sparse identities, with and without outputs), that every
observable of a :class:`~repro.local.ball.BallView` equals the reference,
and that the message-passing lift reconstructs the same balls.  The same
search answers :meth:`Network.distances_from` and :meth:`Network.diameter`;
they are pinned to networkx's searches on the same graphs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Hashable, Mapping, Optional, Tuple

import networkx as nx
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.local.algorithm import FunctionBallAlgorithm, ball_algorithm_to_local
from repro.local.ball import BallView, collect_ball
from repro.local.network import Network
from repro.local.simulator import Simulator, run_ball_algorithm

SETTINGS = settings(
    max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)



# --------------------------------------------------------------------------- #
# Reference implementation (networkx)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ReferenceBall:
    center: Hashable
    radius: int
    graph: nx.Graph
    ids: Mapping[Hashable, int]
    inputs: Mapping[Hashable, object]
    distances: Mapping[Hashable, int]
    outputs: Optional[Mapping[Hashable, object]]


def reference_ball(
    network: Network,
    center: Hashable,
    radius: int,
    outputs: Optional[Mapping[Hashable, object]] = None,
) -> ReferenceBall:
    """Nodes within ``radius`` hops (networkx BFS), and every host edge
    between them except those joining two nodes at distance exactly
    ``radius``."""
    distances = dict(nx.single_source_shortest_path_length(network.graph, center, cutoff=radius))
    members = set(distances)
    graph = nx.Graph()
    graph.add_nodes_from(members)
    for u, v in network.graph.edges(members):
        if u in members and v in members:
            if distances[u] == radius and distances[v] == radius:
                continue
            graph.add_edge(u, v)
    return ReferenceBall(
        center=center,
        radius=radius,
        graph=graph,
        ids={node: network.identity(node) for node in members},
        inputs={node: network.input_of(node) for node in members},
        distances=distances,
        outputs=None if outputs is None else {node: outputs[node] for node in members},
    )


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
LABELS = ("", "0", "1", ("x", 2))


@st.composite
def networks(draw) -> Network:
    """Random sparse graphs on integer nodes (often disconnected, isolated
    nodes included) or grids on tuple nodes, with consecutive, shuffled or
    sparse identities and random inputs."""
    if draw(st.booleans()):
        graph = nx.grid_2d_graph(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    else:
        n = draw(st.integers(1, 9))
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(
            (u, v) for u, v in draw(st.lists(pairs, max_size=12)) if u != v
        )
    nodes = list(graph.nodes())
    n = len(nodes)
    id_mode = draw(st.sampled_from(["consecutive", "shuffled", "sparse"]))
    if id_mode == "consecutive":
        values = list(range(1, n + 1))
    elif id_mode == "shuffled":
        values = draw(st.permutations(range(1, n + 1)))
    else:
        values = draw(st.lists(st.integers(1, 10**9), min_size=n, max_size=n, unique=True))
    inputs = draw(st.lists(st.sampled_from(LABELS), min_size=n, max_size=n))
    return Network(graph, dict(zip(nodes, values)), dict(zip(nodes, inputs)))


@st.composite
def networks_with_outputs(draw):
    network = draw(networks())
    if not draw(st.booleans()):
        return network, None
    values = draw(
        st.lists(st.sampled_from([0, 1, 2]), min_size=len(network), max_size=len(network))
    )
    return network, dict(zip(network.nodes(), values))


# --------------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------------- #
class TestBallMatchesReference:
    @SETTINGS
    @given(case=networks_with_outputs(), radius=st.integers(0, 3))
    def test_every_observable_matches_reference(self, case, radius):
        network, outputs = case
        for center in network.nodes():
            ball = collect_ball(network, center, radius, outputs=outputs)
            ref = reference_ball(network, center, radius, outputs=outputs)

            assert set(ball.adjacency) == set(ref.graph.nodes())
            assert dict(ball.distances) == dict(ref.distances)
            # Members in BFS order: distances never decrease.
            order = [ball.distances[node] for node in ball.adjacency]
            assert order == sorted(order)

            ref_edges = {frozenset(edge) for edge in ref.graph.edges()}
            assert len(ball.edges()) == len(ref_edges)
            assert {frozenset(edge) for edge in ball.edges()} == ref_edges
            assert not any(
                ball.distances[u] == radius and ball.distances[v] == radius
                for u, v in ball.edges()
            )

            assert dict(ball.ids) == dict(ref.ids)
            assert dict(ball.inputs) == dict(ref.inputs)
            assert ball.outputs == ref.outputs

            assert ball.nodes() == sorted(ref.graph.nodes(), key=ref.ids.__getitem__)
            for node in ball.nodes():
                assert ball.neighbors(node) == sorted(
                    ref.graph.neighbors(node), key=ref.ids.__getitem__
                )
            assert ball.center_degree() == ref.graph.degree(center)
            assert set(ball.boundary()) == {
                node for node, dist in ref.distances.items() if dist == radius
            }

    @SETTINGS
    @given(network=networks(), radius=st.integers(0, 3))
    def test_lazy_graph_matches_reference(self, network, radius):
        for center in network.nodes():
            graph = collect_ball(network, center, radius).graph
            ref = reference_ball(network, center, radius).graph
            assert set(graph.nodes()) == set(ref.nodes())
            assert {frozenset(e) for e in graph.edges()} == {
                frozenset(e) for e in ref.edges()
            }


class TestDistancesMatchNetworkx:
    @SETTINGS
    @given(network=networks(), cutoff=st.sampled_from([None, -1, 0, 1, 2, 3]))
    def test_distances_from_matches_networkx(self, network, cutoff):
        for source in network.nodes():
            distances = network.distances_from(source, cutoff)
            assert distances == dict(
                nx.single_source_shortest_path_length(network.graph, source, cutoff=cutoff)
            )
            # Breadth-first order: distances never decrease.
            assert list(distances.values()) == sorted(distances.values())

    @SETTINGS
    @given(network=networks())
    def test_diameter_is_the_largest_component_diameter(self, network):
        graph = network.graph
        assert network.diameter() == max(
            nx.diameter(graph.subgraph(component))
            for component in nx.connected_components(graph)
        )

    def test_edgeless_and_empty_networks(self):
        for n in range(4):
            network = Network(nx.empty_graph(n))
            assert network.diameter() == 0
            for node in network.nodes():
                assert network.distances_from(node) == {node: 0}

    def test_a_missing_source_raises_node_not_found(self):
        network = Network(nx.path_graph(3))
        with pytest.raises(nx.NodeNotFound):
            network.distances_from(7)
        with pytest.raises(nx.NodeNotFound):
            collect_ball(network, 7, 0)
        with pytest.raises(nx.NodeNotFound):
            collect_ball(network, 7, 2)


class TestRadiusZeroView:
    @SETTINGS
    @given(case=networks_with_outputs())
    def test_radius_zero_view_equals_the_bfs_definition(self, case):
        # ``_ball`` builds a radius-0 view without its search; every field
        # must still be what the breadth-first definition gives.
        network, outputs = case
        for center in network.nodes():
            ball = collect_ball(network, center, 0, outputs=outputs)
            ref = reference_ball(network, center, 0, outputs=outputs)
            expected = {
                "center": ref.center,
                "radius": 0,
                "adjacency": {node: tuple(ref.graph.neighbors(node)) for node in ref.graph},
                "ids": ref.ids,
                "inputs": ref.inputs,
                "distances": ref.distances,
                "outputs": ref.outputs,
            }
            fields = dataclasses.fields(BallView)
            assert {field.name: getattr(ball, field.name) for field in fields} == expected


def ball_description(ball) -> Tuple:
    """Everything a ball shows, in terms of identities only: the lifted
    balls' node objects are identities, the direct balls' are not."""
    ident = ball.ids.__getitem__
    return (
        ident(ball.center),
        tuple(
            (ident(node), ball.distances[node], ball.inputs[node],
             tuple(ident(other) for other in ball.neighbors(node)))
            for node in ball.nodes()
        ),
        frozenset(ident(node) for node in ball.boundary()),
        ball.center_degree(),
    )


class TestLiftMatchesDirect:
    @SETTINGS
    @given(network=networks(), radius=st.integers(0, 3))
    def test_lifted_run_equals_run_ball_algorithm(self, network, radius):
        algorithm = FunctionBallAlgorithm(ball_description, radius=radius)
        direct = run_ball_algorithm(network, algorithm)
        lifted = Simulator(network).run(ball_algorithm_to_local(algorithm))
        assert lifted.outputs == direct
