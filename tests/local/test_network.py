"""Tests for the Network class (repro.local.network)."""

from __future__ import annotations

import os
import subprocess
import sys

import networkx as nx
import pytest

import repro
from repro.graphs.families import cycle_network, grid_network, path_network, torus_network
from repro.graphs.operations import (
    disjoint_union,
    double_subdivide_edge,
    glue_instances,
    relabel_disjoint,
)
from repro.graphs.random_graphs import random_regular_network
from repro.local.network import Network


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

    def test_distance_and_distances_from(self):
        net = path_network(5)
        nodes = net.nodes()
        assert net.distance(nodes[0], nodes[4]) == 4
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

    def test_relabeled_by_identity(self):
        net = triangle()
        relabelled = net.relabeled_by_identity()
        assert set(relabelled.nodes()) == {1, 2, 3}
        assert relabelled.input_of(3) == "x"
        assert relabelled.number_of_edges() == 3

    def test_induced_subnetwork(self):
        net = cycle_network(6)
        nodes = net.nodes()[:3]
        sub = net.induced_subnetwork(nodes)
        assert sub.number_of_nodes() == 3
        assert sub.number_of_edges() == 2
        assert all(sub.identity(node) == net.identity(node) for node in nodes)

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


BUILDERS = [_cycle, _path, _grid, _torus, _random_regular, _relabelled, _union, _subdivided, _glued]


@pytest.fixture
def references(monkeypatch):
    """Record, for every network built, a copy of its source graph made the
    way a network used to copy it: ``nx.Graph()`` + ``add_nodes_from`` +
    ``add_edges_from``."""
    built = {}
    init = Network.__init__

    def recording_init(self, graph, ids=None, inputs=None):
        reference = nx.Graph()
        reference.add_nodes_from(graph.nodes())
        reference.add_edges_from(graph.edges())
        init(self, graph, ids, inputs)
        built[id(self)] = (self, reference)

    monkeypatch.setattr(Network, "__init__", recording_init)
    return built


class TestOneTopology:
    @pytest.mark.parametrize("build", BUILDERS, ids=lambda build: build.__name__.strip("_"))
    def test_topology_matches_a_networkx_copy_in_order(self, build, references):
        network = build()
        held, reference = references[id(network)]
        assert held is network
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

    @pytest.mark.parametrize("build", BUILDERS, ids=lambda build: build.__name__.strip("_"))
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
