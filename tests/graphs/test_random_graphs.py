"""Tests for the random graph families (repro.graphs.random_graphs)."""

from __future__ import annotations

import random

import networkx as nx
import numpy as np
import pytest

from repro.graphs import random_graphs
from repro.graphs.random_graphs import (
    bounded_degree_gnp_network,
    random_regular_network,
)
from repro.local.identifiers import shuffled_consecutive_ids
from repro.local.network import Network


def _networkx_random_regular(n, degree, seed):
    """The networkx construction :func:`random_regular_network` replaced:
    ``nx.random_regular_graph`` seeded by one ``_instance_rng`` draw per
    attempt, until the sample is connected."""
    rng = np.random.default_rng(seed)
    while True:
        graph = nx.random_regular_graph(degree, n, seed=int(rng.integers(0, 2**31 - 1)))
        if nx.is_connected(graph):
            return graph


def _pairing_triples():
    """1,008 ``(n, d, seed)`` triples: every feasible degree ``0 <= d < n``
    with ``n * d`` even for ``n <= 12``, at 16 seeds each."""
    return [
        (n, d, seed)
        for n in range(1, 13)
        for d in range(n)
        if n * d % 2 == 0
        for seed in range(16)
    ]


class TestRandomRegular:
    def test_degree_and_connectivity(self):
        net = random_regular_network(24, 3, seed=0)
        assert all(net.degree(node) == 3 for node in net.nodes())
        assert net.is_connected()

    def test_reproducible(self):
        a = random_regular_network(20, 3, seed=5)
        b = random_regular_network(20, 3, seed=5)
        assert set(map(frozenset, a.edges())) == set(map(frozenset, b.edges()))

    def test_odd_product_rejected(self):
        with pytest.raises(ValueError):
            random_regular_network(7, 3)

    def test_degree_must_be_below_n(self):
        with pytest.raises(ValueError):
            random_regular_network(4, 4)

    def test_disconnected_allowed_when_not_required(self):
        net = random_regular_network(10, 2, seed=1, require_connected=False)
        assert all(net.degree(node) == 2 for node in net.nodes())


class TestPairing:
    """The Steger–Wormald pairing behind :func:`random_regular_network` is
    networkx's ``random_regular_graph`` draw for draw: same edges in the
    same order, and the generator left in the same state."""

    def test_pairing_equals_networkx_edge_for_edge(self, monkeypatch):
        restarts = []
        scan = random_graphs._free_pair_left

        def recording(edges, leftover):
            free = scan(edges, leftover)
            restarts.append(not free)
            return free

        monkeypatch.setattr(random_graphs, "_free_pair_left", recording)
        triples = _pairing_triples()
        assert len(triples) >= 1000
        assert {d for _, d, _ in triples} >= {0, 1}
        for n, d, seed in triples:
            ours, theirs = random.Random(seed), random.Random(seed)
            edges = random_graphs._pairing(n, d, ours)
            graph = nx.random_regular_graph(d, n, seed=theirs)
            assert Network.from_edges(range(n), edges).edges() == list(graph.edges()), (n, d, seed)
            assert ours.getstate() == theirs.getstate(), (n, d, seed)
        assert any(restarts)  # some triples restart the pairing

    @pytest.mark.parametrize(
        "n,seed",
        [(16, 0), (16, 1), (16, 10_000), (24, 0), (24, 1)]  # E7: quick and full sizes
        + [(n, seed + n) for n in (20, 40, 60, 160, 400) for seed in (0, 1, 10_000)],  # E10
    )
    def test_experiment_instances_equal_the_networkx_built_network(self, n, seed):
        network = random_regular_network(n, 3, seed=seed)
        graph = _networkx_random_regular(n, 3, seed)
        ids = shuffled_consecutive_ids(list(graph.nodes()), seed=seed)
        expected = Network(graph, ids)
        assert network.nodes() == list(graph.nodes())
        assert network.edges() == list(graph.edges())
        assert list(network.ids.items()) == [(node, ids[node]) for node in graph.nodes()]
        assert network == expected
        assert hash(network) == hash(expected)


class TestBoundedDegreeGnp:
    def test_respects_degree_bound(self):
        net = bounded_degree_gnp_network(60, 0.2, max_degree=4, seed=2)
        assert net.max_degree() <= 4

    def test_connect_links_components_when_possible(self):
        net = bounded_degree_gnp_network(40, 0.01, max_degree=5, seed=3, connect=True)
        assert net.is_connected()

    def test_probability_validated(self):
        with pytest.raises(ValueError):
            bounded_degree_gnp_network(10, 1.5, max_degree=3)

    def test_degree_validated(self):
        with pytest.raises(ValueError):
            bounded_degree_gnp_network(10, 0.5, max_degree=0)

    def test_reproducible(self):
        a = bounded_degree_gnp_network(30, 0.1, max_degree=4, seed=9)
        b = bounded_degree_gnp_network(30, 0.1, max_degree=4, seed=9)
        assert set(map(frozenset, a.edges())) == set(map(frozenset, b.edges()))
