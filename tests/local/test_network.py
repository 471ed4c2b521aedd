"""Tests for the Network class (repro.local.network)."""

from __future__ import annotations

import os
import subprocess
import sys

import networkx as nx
import numpy as np
import pytest

import repro
from repro.algorithms.coloring.cole_vishkin import oriented_cycle_network
from repro.graphs.families import cycle_network, grid_network, path_network
from repro.graphs.operations import (
    disjoint_union,
    double_subdivide_edge,
    glue_instances,
    relabel_disjoint,
    subdivide_edge,
)
from repro.graphs.random_graphs import random_regular_network
from repro.local.identifiers import (
    consecutive_ids,
    random_distinct_ids,
    shuffled_consecutive_ids,
)
from repro.local.network import Network


def torus_network(rows: int, cols: int, ids: str = "consecutive", seed: int = 0) -> Network:
    """The rows × cols torus, a 4-regular network built through networkx."""
    order = [(r, c) for r in range(rows) for c in range(cols)]
    assignment = random_distinct_ids(order, seed=seed) if ids == "random" else consecutive_ids(order)
    return Network(nx.grid_2d_graph(rows, cols, periodic=True), assignment)


def triangle() -> Network:
    graph = nx.Graph([("a", "b"), ("b", "c"), ("c", "a")])
    return Network(graph, {"a": 3, "b": 1, "c": 2}, {"a": "x"})


class TestConstruction:
    def test_defaults_consecutive_ids_and_empty_inputs(self):
        graph = nx.path_graph(4)
        net = Network(graph)
        assert sorted(net.ids.values()) == [1, 2, 3, 4]
        assert all(net.input_of(node) == "" for node in net.nodes())

    def test_rejects_directed_graph(self):
        with pytest.raises(ValueError, match="undirected"):
            Network(nx.DiGraph([(0, 1)]))

    def test_rejects_self_loop(self):
        graph = nx.Graph()
        graph.add_edge(0, 0)
        with pytest.raises(ValueError, match="simple"):
            Network(graph)

    def test_rejects_multigraph(self):
        # nx.Graph would merge the parallel edges silently.
        with pytest.raises(ValueError, match="simple graphs"):
            Network(nx.MultiGraph([(0, 1), (0, 1), (1, 2)]))

    @pytest.mark.parametrize(
        "nodes,edges,message",
        [
            ([0, 1], [(0, 0)], "self-loops"),
            ([0, 1], [(0, 1), (0, 1)], "parallel edges"),
            ([0, 1], [(0, 1), (1, 0)], "parallel edges"),
            ([0, 1], [(0, 2)], "not a node"),
            ([0, 1, 0], [(0, 1)], "listed twice"),
        ],
    )
    def test_from_edges_rejects_what_is_not_a_simple_graph(self, nodes, edges, message):
        with pytest.raises(ValueError, match=message):
            Network.from_edges(nodes, edges)

    def test_from_edges_equals_the_graph_it_describes(self):
        nodes, edges = ["c", "a", "d", "b"], [("a", "b"), ("c", "d"), ("b", "c"), ("d", "a")]
        graph = nx.Graph()
        graph.add_nodes_from(nodes)
        graph.add_edges_from(edges)
        ids, inputs = {"a": 4, "b": 2, "c": 9, "d": 1}, {"b": "x"}
        network = Network.from_edges(nodes, edges, ids, inputs)
        expected = Network(graph, ids, inputs)
        assert network == expected and hash(network) == hash(expected)
        assert network.nodes() == list(graph.nodes())
        assert network.edges() == list(graph.edges())
        assert dict(network.adjacency) == dict(expected.adjacency)

    def test_rejects_missing_identity(self):
        with pytest.raises(ValueError, match="missing"):
            Network(nx.path_graph(3), ids={0: 1, 1: 2})

    def test_rejects_identity_for_unknown_node(self):
        with pytest.raises(ValueError, match="unknown"):
            Network(nx.path_graph(2), ids={0: 1, 1: 2, 9: 3})

    def test_rejects_duplicate_identity(self):
        with pytest.raises(ValueError, match="duplicate"):
            Network(nx.path_graph(2), ids={0: 1, 1: 1})

    def test_rejects_unknown_input_node(self):
        with pytest.raises(ValueError, match="unknown"):
            Network(nx.path_graph(2), inputs={5: "x"})

    def test_graph_is_copied(self):
        graph = nx.path_graph(3)
        net = Network(graph)
        graph.add_edge(0, 2)
        assert net.number_of_edges() == 2

    def test_graph_is_frozen(self):
        # The adjacency index mirrors the graph, so the graph must not change.
        net = triangle()
        with pytest.raises(nx.NetworkXError):
            net.graph.add_edge("a", "d")
        with pytest.raises(nx.NetworkXError):
            net.graph.remove_node("a")
        assert net.neighbors("a") == ["b", "c"]


class TestAccessors:
    def test_sizes(self):
        net = triangle()
        assert len(net) == 3
        assert net.number_of_edges() == 3

    def test_neighbors_sorted_by_identity(self):
        net = triangle()
        assert net.neighbors("a") == ["b", "c"]  # ids 1, 2

    def test_adjacency_index_is_read_only_and_identity_ordered(self):
        net = triangle()
        assert dict(net.adjacency) == {"a": ("b", "c"), "b": ("c", "a"), "c": ("b", "a")}
        with pytest.raises(TypeError):
            net.adjacency["a"] = ()  # type: ignore[index]

    def test_degree_and_max_degree(self):
        net = path_network(4)
        assert net.degree(net.nodes()[0]) == 1
        assert net.max_degree() == 2

    def test_identity_roundtrip(self):
        net = triangle()
        for node in net.nodes():
            assert net.node_with_identity(net.identity(node)) == node

    def test_min_max_identity(self):
        net = triangle()
        assert net.min_identity() == 1
        assert net.max_identity() == 3

    def test_inputs_default_empty(self):
        net = triangle()
        assert net.input_of("a") == "x"
        assert net.input_of("b") == ""

    def test_contains_and_iter(self):
        net = triangle()
        assert "a" in net
        assert set(iter(net)) == {"a", "b", "c"}


class TestStructure:
    def test_connectivity(self):
        assert cycle_network(5).is_connected()
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        assert not Network(graph).is_connected()

    def test_connected_components(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3)])
        components = Network(graph).connected_components()
        assert sorted(map(sorted, components)) == [[0, 1], [2, 3]]

    def test_diameter_cycle(self):
        assert cycle_network(8).diameter() == 4

    def test_diameter_of_disconnected_is_max_component_diameter(self):
        graph = nx.Graph()
        graph.add_edges_from([(0, 1), (2, 3), (3, 4), (4, 5)])
        assert Network(graph).diameter() == 3

    def test_diameter_takes_its_components_from_the_adjacency_index(self, monkeypatch):
        graph = nx.Graph([(0, 1), (2, 3), (3, 4), (4, 5)])
        networks = [cycle_network(8), Network(graph), Network(nx.empty_graph(3))]

        def refuse(*args, **kwargs):
            raise AssertionError("networkx connectivity called")

        monkeypatch.setattr(nx, "is_connected", refuse)
        monkeypatch.setattr(nx, "connected_components", refuse)
        monkeypatch.setattr(nx, "diameter", refuse)
        monkeypatch.setattr(nx, "single_source_shortest_path_length", refuse)
        assert [network.diameter() for network in networks] == [4, 3, 0]
        assert networks[0].distances_from(0, cutoff=2) == {0: 0, 1: 1, 7: 1, 2: 2, 6: 2}
        assert all("graph" not in vars(network) for network in networks)

    def test_distance_and_distances_from(self):
        net = path_network(5)
        nodes = net.nodes()
        distances = net.distances_from(nodes[0], cutoff=2)
        assert distances == {nodes[0]: 0, nodes[1]: 1, nodes[2]: 2}


class TestDerivedNetworks:
    def test_with_inputs_merges(self):
        net = triangle()
        updated = net.with_inputs({"b": "y"})
        assert updated.input_of("a") == "x"
        assert updated.input_of("b") == "y"
        assert net.input_of("b") == ""  # original untouched

    def test_with_ids_replaces(self):
        net = triangle()
        updated = net.with_ids({"a": 10, "b": 20, "c": 30})
        assert updated.identity("a") == 10
        assert net.identity("a") == 3

    def test_copy_and_equality(self):
        net = triangle()
        other = net.copy()
        assert net == other
        assert hash(net) == hash(other)
        assert net is not other

    def test_inequality_on_different_inputs(self):
        net = triangle()
        assert net != net.with_inputs({"b": "changed"})

    def test_with_inputs_rejects_unknown_nodes_and_leaves_parent_untouched(self):
        net = triangle()
        before = (net.inputs, net.ids, net.edges(), hash(net))
        with pytest.raises(ValueError, match="unknown"):
            net.with_inputs({"b": "y", "z": "x"})
        updated = net.with_inputs({"c": "y"})
        assert (net.inputs, net.ids, net.edges(), hash(net)) == before
        assert updated.inputs == {"a": "x", "b": "", "c": "y"}
        assert updated.nodes() == net.nodes() and updated.edges() == net.edges()
        assert dict(updated.adjacency) == dict(net.adjacency)

    def test_with_ids_reindexes_the_shared_topology(self):
        net = triangle()
        updated = net.with_ids({"a": 1, "b": 2, "c": 3})
        assert updated.edges() == net.edges()
        assert updated.neighbors("c") == ["a", "b"]
        assert net.neighbors("c") == ["b", "a"]
        assert updated != net


class TestNeighborPositions:
    def test_rows_hold_positions_in_identity_order_padded_with_n(self):
        net = triangle()  # nodes a, b, c with identities 3, 1, 2
        assert net.neighbor_positions.tolist() == [[1, 2], [2, 0], [1, 0]]
        graph = nx.Graph([("a", "b")])
        graph.add_node("lone")
        isolated = Network(graph)
        assert isolated.neighbor_positions.tolist() == [[1], [0], [3]]
        assert Network(nx.empty_graph(1)).neighbor_positions.tolist() == [[1]]

    def test_built_on_first_read_and_read_only(self):
        net = cycle_network(6)
        assert "neighbor_positions" not in vars(net)
        index = net.neighbor_positions
        assert net.neighbor_positions is index
        assert index.shape == (6, 2)
        with pytest.raises(ValueError):
            index[0, 0] = 5

    def test_shared_by_with_inputs_and_copy_rebuilt_by_with_ids(self):
        net = triangle()
        index = net.neighbor_positions
        assert net.with_inputs({"b": "y"}).neighbor_positions is index
        assert net.copy().neighbor_positions is index
        relabelled = net.with_ids({"a": 1, "b": 2, "c": 3})
        assert "neighbor_positions" not in vars(relabelled)
        assert relabelled.neighbor_positions.tolist() == [[1, 2], [0, 2], [0, 1]]


def _cycle():
    return cycle_network(12)


def _path():
    return path_network(7, ids="shuffled", seed=3)


def _oriented_cycle():
    return oriented_cycle_network(9, seed=4)


def _grid():
    return grid_network(3, 4)


def _torus():
    return torus_network(3, 4, ids="random", seed=1)


def _random_regular():
    return random_regular_network(12, 3, seed=1)


def _relabelled():
    return relabel_disjoint([cycle_network(6), grid_network(2, 3)])[1]


def _union():
    return disjoint_union([cycle_network(6), path_network(4), grid_network(2, 2)])


def _subdivided():
    return double_subdivide_edge(cycle_network(6), (2, 3), "v", "w", 100, 101)


def _glued():
    return glue_instances([cycle_network(6), torus_network(3, 3)], [0, (1, 1)]).network


# --------------------------------------------------------------------------- #
# The networkx constructions the tuple-built networks replace, each returning
# (graph, ids, inputs) as the builder used to pass them to ``Network``.
# --------------------------------------------------------------------------- #
def _nx_relabel_disjoint(networks):
    parts, offset = [], 0
    for index, network in enumerate(networks):
        mapping = {node: (index, network.identity(node)) for node in network.nodes()}
        graph = nx.relabel_nodes(network.graph, mapping, copy=True)
        ids = {mapping[node]: network.identity(node) + offset for node in network.nodes()}
        inputs = {mapping[node]: network.input_of(node) for node in network.nodes()}
        parts.append((graph, ids, inputs))
        offset = max(ids.values())
    return parts


def _nx_union(parts):
    graph, ids, inputs = nx.Graph(), {}, {}
    for part_graph, part_ids, part_inputs in parts:
        graph.add_nodes_from(part_graph.nodes())
        graph.add_edges_from(part_graph.edges())
        ids.update(part_ids)
        inputs.update(part_inputs)
    return graph, ids, inputs


def _nx_subdivide(graph, ids, inputs, edge, new_node, new_identity, new_input=""):
    graph = nx.Graph(graph)
    graph.remove_edge(*edge)
    graph.add_edge(edge[0], new_node)
    graph.add_edge(new_node, edge[1])
    return graph, {**ids, new_node: new_identity}, {**inputs, new_node: new_input}


def _nx_glue(instances, anchors):
    graph, ids, inputs = _nx_union(_nx_relabel_disjoint(instances))
    fresh = max(ids.values()) + 1
    for index, (instance, anchor) in enumerate(zip(instances, anchors)):
        anchor = (index, instance.identity(anchor))
        target = min((node for node in graph[anchor] if node[0] == index), key=ids.get)
        v_node, w_node = ("glue-v", index), ("glue-w", index)
        graph, ids, inputs = _nx_subdivide(graph, ids, inputs, (anchor, target), v_node, fresh)
        graph, ids, inputs = _nx_subdivide(
            graph, ids, inputs, (v_node, target), w_node, fresh + 1
        )
        fresh += 2
    graph = nx.Graph(graph)
    for index in range(len(instances)):
        graph.add_edge(("glue-v", index), ("glue-w", (index + 1) % len(instances)))
    return graph, ids, inputs


def _nx_double_subdivided():
    cycle = cycle_network(6)
    first = _nx_subdivide(cycle.graph, cycle.ids, cycle.inputs, (2, 3), "v", 100)
    return _nx_subdivide(*first, ("v", 3), "w", 101)


def _oriented_reference():
    ids = random_distinct_ids(range(9), seed=4)
    return nx.cycle_graph(9), ids, {i: ids[(i + 1) % 9] for i in range(9)}


def _nx_random_regular():
    # One instance-RNG draw seeds each attempt, until the sample is connected.
    rng = np.random.default_rng(1)
    while True:
        graph = nx.random_regular_graph(3, 12, seed=int(rng.integers(0, 2**31 - 1)))
        if nx.is_connected(graph):
            return graph, shuffled_consecutive_ids(list(graph.nodes()), seed=1), {}


NX_REFERENCES = {
    _cycle: lambda: (nx.cycle_graph(12), consecutive_ids(range(12)), {}),
    _path: lambda: (nx.path_graph(7), shuffled_consecutive_ids(range(7), seed=3), {}),
    _oriented_cycle: _oriented_reference,
    _random_regular: _nx_random_regular,
    _relabelled: lambda: _nx_relabel_disjoint([cycle_network(6), grid_network(2, 3)])[1],
    _union: lambda: _nx_union(
        _nx_relabel_disjoint([cycle_network(6), path_network(4), grid_network(2, 2)])
    ),
    _subdivided: _nx_double_subdivided,
    _glued: lambda: _nx_glue([cycle_network(6), torus_network(3, 3)], [0, (1, 1)]),
}
BUILDERS = [
    _cycle, _path, _oriented_cycle, _grid, _torus, _random_regular,
    _relabelled, _union, _subdivided, _glued,
]


def _name(build):
    return build.__name__.strip("_")


def _copy(graph):
    """A copy of ``graph`` made the way a network used to copy its source
    graph: ``nx.Graph()`` + ``add_nodes_from`` + ``add_edges_from``."""
    reference = nx.Graph()
    reference.add_nodes_from(graph.nodes())
    reference.add_edges_from(graph.edges())
    return reference


@pytest.fixture
def references(monkeypatch):
    """Record, for every network built from a graph, a :func:`_copy` of its
    source graph."""
    built = {}
    init = Network.__init__

    def recording_init(self, graph, ids=None, inputs=None):
        reference = _copy(graph)
        init(self, graph, ids, inputs)
        built[id(self)] = (self, reference)

    monkeypatch.setattr(Network, "__init__", recording_init)
    return built


def _assert_same_topology(network, reference):
    """``network`` holds ``reference``'s nodes and edges in its order, and
    builds the same graph on first read."""
    assert network.nodes() == list(reference.nodes())
    assert network.edges() == list(reference.edges())
    assert network.number_of_edges() == reference.number_of_edges()
    assert list(network.adjacency.items()) == [
        (node, tuple(sorted(neighbours, key=network.identity)))
        for node, neighbours in reference.adjacency()
    ]
    assert "graph" not in vars(network)
    graph = network.graph
    assert "graph" in vars(network) and network.graph is graph
    assert nx.is_frozen(graph)
    assert list(graph.nodes()) == list(reference.nodes())
    assert list(graph.edges()) == list(reference.edges())
    assert [(node, list(nbrs)) for node, nbrs in graph.adjacency()] == [
        (node, list(nbrs)) for node, nbrs in reference.adjacency()
    ]


class TestOneTopology:
    @pytest.mark.parametrize("build", BUILDERS, ids=_name)
    def test_topology_matches_a_networkx_copy_in_order(self, build, references):
        network = build()
        if build in NX_REFERENCES:
            # Built from node and edge sequences: the networkx construction
            # it replaced gives the same network, orders and hash included.
            graph, ids, inputs = NX_REFERENCES[build]()
            expected = Network(graph, ids, inputs)
            assert list(network.ids.items()) == [(node, ids[node]) for node in graph.nodes()]
            assert list(network.inputs.items()) == list(expected.inputs.items())
            assert network == expected
            assert hash(network) == hash(expected)
            reference = _copy(graph)
        else:
            held, reference = references[id(network)]
            assert held is network
        _assert_same_topology(network, reference)

    def test_tuple_builders_and_connectivity_build_no_networkx_graph(self, monkeypatch):
        cycle, path, grid, torus = (
            cycle_network(6), path_network(4), grid_network(2, 3), torus_network(3, 3)
        )
        constructed = []
        monkeypatch.setattr(nx.Graph, "__init__", lambda *args, **kwargs: constructed.append(1))
        built = [
            cycle_network(12),
            path_network(7, ids="shuffled", seed=3),
            oriented_cycle_network(9, seed=4),
            *relabel_disjoint([cycle, grid]),
            disjoint_union([cycle, path, grid]),
            subdivide_edge(cycle, (2, 3), "m", 100),
            double_subdivide_edge(cycle, (2, 3), "v", "w", 100, 101),
            glue_instances([cycle, torus], [0, (1, 1)]).network,
            random_regular_network(12, 3, seed=1),
        ]
        connected = [network.is_connected() for network in built + [grid]]
        components = [len(network.connected_components()) for network in built]
        monkeypatch.undo()
        assert constructed == []
        assert connected == [True, True, True, True, True, False, True, True, True, True, True]
        assert components == [1, 1, 1, 1, 1, 3, 1, 1, 1, 1]

    @pytest.mark.parametrize("build", BUILDERS, ids=_name)
    def test_rebuilds_are_equal_and_hash_equal(self, build):
        first, second = build(), build()
        assert first is not second
        assert first == second
        assert hash(first) == hash(second)

    def test_hash_ignores_inputs_but_equality_does_not(self):
        net = _grid()
        updated = net.with_inputs({(0, 0): "x"})
        assert hash(updated) == hash(net)
        assert updated != net

    def test_same_identities_different_edges_are_unequal(self):
        cycle, path = cycle_network(5), path_network(5)
        assert cycle.ids == path.ids
        assert cycle != path
        assert hash(cycle) != hash(path)

    def test_with_inputs_and_copy_build_no_graph(self):
        net = _grid()
        net.graph  # noqa: B018 - the parent's graph is built; the copies' are not
        for derived in (net.with_inputs({(0, 0): "x"}), net.copy()):
            assert "graph" not in vars(derived)
            assert list(derived.graph.edges()) == list(net.graph.edges())

    def test_string_nodes_hash_the_same_in_every_process(self):
        # String hashes are salted per process (PYTHONHASHSEED); identities
        # are ints, so a network's hash is not.
        script = (
            "import networkx as nx\n"
            "from repro.local.network import Network\n"
            "graph = nx.Graph([('a', 'b'), ('b', 'c'), ('c', 'd')])\n"
            "print(hash(Network(graph, inputs={'a': 'x'})), hash('a'))\n"
        )
        src = os.path.dirname(os.path.dirname(repro.__file__))
        outputs = []
        for seed in ("1", "2"):
            environment = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            completed = subprocess.run(
                [sys.executable, "-c", script],
                env=environment,
                capture_output=True,
                text=True,
                check=True,
            )
            outputs.append(completed.stdout.split())
        (network_1, string_1), (network_2, string_2) = outputs
        assert string_1 != string_2
        assert network_1 == network_2
