"""Tests for the Network class (repro.local.network)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.graphs.families import cycle_network, path_network
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
