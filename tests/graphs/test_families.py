"""Tests for the deterministic graph families (repro.graphs.families)."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.graphs.families import cycle_network, grid_network, path_network, star_network
from repro.local.identifiers import validate_id_assignment


class TestCycle:
    def test_structure(self):
        net = cycle_network(10)
        assert net.number_of_nodes() == 10
        assert net.number_of_edges() == 10
        assert net.max_degree() == 2
        assert net.is_connected()

    def test_consecutive_ids_follow_cyclic_order(self):
        net = cycle_network(8, ids="consecutive")
        # Adjacent nodes carry consecutive identities (except the wrap edge).
        consecutive_pairs = 0
        for u, v in net.edges():
            if abs(net.identity(u) - net.identity(v)) == 1:
                consecutive_pairs += 1
        assert consecutive_pairs == 7

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            cycle_network(2)

    def test_id_start(self):
        net = cycle_network(5, id_start=50)
        assert sorted(net.ids.values()) == list(range(50, 55))

    def test_shuffled_ids_are_permutation(self):
        net = cycle_network(12, ids="shuffled", seed=1)
        assert sorted(net.ids.values()) == list(range(1, 13))

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            cycle_network(5, ids="bogus")


class TestPath:
    def test_structure(self):
        net = path_network(6)
        assert net.number_of_edges() == 5
        assert net.max_degree() == 2
        degrees = sorted(net.degree(node) for node in net.nodes())
        assert degrees == [1, 1, 2, 2, 2, 2]

    def test_single_node(self):
        net = path_network(1)
        assert net.number_of_nodes() == 1
        assert net.number_of_edges() == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            path_network(0)


class TestGrid:
    def test_grid_structure(self):
        net = grid_network(3, 5)
        assert net.number_of_nodes() == 15
        assert net.max_degree() == 4
        assert net.is_connected()

    def test_grid_edge_count(self):
        net = grid_network(4, 4)
        assert net.number_of_edges() == 2 * 4 * 3

    def test_grid_invalid(self):
        with pytest.raises(ValueError):
            grid_network(0, 3)


class TestStar:
    def test_star(self):
        net = star_network(7)
        assert net.number_of_nodes() == 8
        assert net.max_degree() == 7
        leaves = [node for node in net.nodes() if net.degree(node) == 1]
        assert len(leaves) == 7

    def test_star_needs_leaf(self):
        with pytest.raises(ValueError):
            star_network(0)


class TestInputs:
    def test_inputs_forwarded(self):
        net = cycle_network(4, inputs={0: "a", 2: "b"})
        assert net.input_of(0) == "a"
        assert net.input_of(1) == ""
        assert net.input_of(2) == "b"


class TestFamilyStructure:
    """Each family at small and boundary sizes: counts, degree histogram,
    connectivity and diameter in closed form, and an adjacency index that is
    symmetric, sorted by identity and mirrored by ``neighbor_positions``."""

    @pytest.mark.parametrize(
        "build,args,nodes,edges,degrees,diameter",
        [
            pytest.param(cycle_network, (3,), 3, 3, {2: 3}, 1, id="cycle-3"),
            pytest.param(cycle_network, (10,), 10, 10, {2: 10}, 5, id="cycle-10"),
            pytest.param(cycle_network, (11,), 11, 11, {2: 11}, 5, id="cycle-11"),
            pytest.param(path_network, (1,), 1, 0, {0: 1}, 0, id="path-1"),
            pytest.param(path_network, (2,), 2, 1, {1: 2}, 1, id="path-2"),
            pytest.param(path_network, (8,), 8, 7, {1: 2, 2: 6}, 7, id="path-8"),
            pytest.param(grid_network, (1, 5), 5, 4, {1: 2, 2: 3}, 4, id="grid-1x5"),
            pytest.param(grid_network, (3, 4), 12, 17, {2: 4, 3: 6, 4: 2}, 5, id="grid-3x4"),
            pytest.param(star_network, (1,), 2, 1, {1: 2}, 1, id="star-1"),
            pytest.param(star_network, (6,), 7, 6, {1: 6, 6: 1}, 2, id="star-6"),
        ],
    )
    def test_counts_degrees_and_adjacency_index(
        self, build, args, nodes, edges, degrees, diameter
    ):
        net = build(*args, ids="shuffled", seed=4)
        assert net.number_of_nodes() == len(net.nodes()) == nodes
        assert net.number_of_edges() == len(net.edges()) == edges
        assert Counter(net.degree(node) for node in net.nodes()) == degrees
        assert net.max_degree() == max(degrees)
        assert net.is_connected()
        assert net.diameter() == diameter
        position = {node: index for index, node in enumerate(net.nodes())}
        index = net.neighbor_positions
        assert index.shape == (nodes, max(max(degrees), 1))
        for node in net.nodes():
            neighbours = net.adjacency[node]
            assert list(neighbours) == sorted(net.neighbors(node), key=net.identity)
            assert all(node in net.adjacency[other] for other in neighbours)
            row = index[position[node]].tolist()
            assert row == [position[other] for other in neighbours] + [nodes] * (
                index.shape[1] - len(neighbours)
            )


FAMILIES = {
    "cycle": lambda **kw: cycle_network(12, **kw),
    "path": lambda **kw: path_network(12, **kw),
    "grid": lambda **kw: grid_network(3, 4, **kw),
    "star": lambda **kw: star_network(11, **kw),
}


class TestIdentitySchemes:
    """``consecutive`` numbers the nodes from ``id_start`` in construction
    order, ``shuffled`` permutes that range, ``random`` draws distinct
    values from ``[id_start, id_start + 100 n]``; the seed fixes the draw."""

    @pytest.mark.parametrize("scheme", ["consecutive", "shuffled", "random"])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_scheme_is_valid_and_seeded(self, family, scheme):
        build = FAMILIES[family]
        net = build(ids=scheme, seed=5, id_start=7)
        n = len(net)
        values = [net.identity(node) for node in net.nodes()]
        validate_id_assignment(net.ids)
        if scheme == "random":
            assert len(set(values)) == n
            assert all(7 <= value <= 7 + 100 * n for value in values)
        else:
            assert sorted(values) == list(range(7, 7 + n))
        assert (values == list(range(7, 7 + n))) is (scheme == "consecutive")
        assert all(net.node_with_identity(net.identity(node)) == node for node in net.nodes())
        assert build(ids=scheme, seed=5, id_start=7).ids == net.ids
        reseeded = build(ids=scheme, seed=6, id_start=7).ids
        assert (reseeded == net.ids) is (scheme == "consecutive")
