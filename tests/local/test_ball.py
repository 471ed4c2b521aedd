"""Tests for ball extraction and canonical keys (repro.local.ball)."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.api import Session
from repro.core.order_invariant import CyclePatternAlgorithm
from repro.graphs.families import grid_network, path_network
from repro.harness import experiments
from repro.local import ball as ball_module
from repro.local.ball import BallView, all_balls, collect_ball
from repro.local.network import Network


class TestCollectBall:
    def test_radius_zero_is_single_node(self, small_cycle):
        node = small_cycle.nodes()[0]
        ball = collect_ball(small_cycle, node, 0)
        assert len(ball) == 1
        assert ball.edges() == []
        assert ball.center == node

    def test_radius_one_on_cycle(self, small_cycle):
        node = small_cycle.nodes()[4]
        ball = collect_ball(small_cycle, node, 1)
        assert len(ball) == 3
        # Edges between the two distance-1 nodes do not exist on a cycle of
        # length 9, and edges between distance-exactly-1 nodes are excluded
        # anyway, so the ball is a path centred at the node.
        assert ball.graph.degree(node) == 2

    def test_excludes_edges_between_boundary_nodes(self):
        # Triangle: radius-1 ball around any node contains all three nodes but
        # NOT the edge joining the two boundary (distance-1) nodes.
        net = Network(nx.complete_graph(3))
        node = net.nodes()[0]
        ball = collect_ball(net, node, 1)
        assert len(ball) == 3
        assert ball.graph.number_of_edges() == 2
        boundary = set(ball.boundary())
        assert len(boundary) == 2
        assert not ball.graph.has_edge(*boundary)

    def test_keeps_edges_with_one_interior_endpoint(self):
        net = grid_network(3, 3)
        center = net.nodes()[4]  # middle of the grid
        ball = collect_ball(net, center, 1)
        # 1 + 4 nodes, 4 edges from the centre, no rim edges.
        assert len(ball) == 5
        assert ball.graph.number_of_edges() == 4

    def test_radius_larger_than_graph_covers_everything(self, small_path):
        node = small_path.nodes()[0]
        ball = collect_ball(small_path, node, 100)
        assert len(ball) == small_path.number_of_nodes()
        assert ball.graph.number_of_edges() == small_path.number_of_edges()

    def test_distances_match_network(self, small_grid):
        node = small_grid.nodes()[0]
        ball = collect_ball(small_grid, node, 2)
        distances = nx.single_source_shortest_path_length(small_grid.graph, node)
        for member in ball.graph.nodes():
            assert ball.distances[member] == distances[member]

    def test_negative_radius_rejected(self, small_cycle):
        with pytest.raises(ValueError):
            collect_ball(small_cycle, small_cycle.nodes()[0], -1)

    def test_unknown_center_rejected(self, small_cycle):
        with pytest.raises(nx.NodeNotFound):
            collect_ball(small_cycle, "not-a-node", 1)

    def test_outputs_attached_and_restricted(self, small_cycle):
        outputs = {node: index for index, node in enumerate(small_cycle.nodes())}
        node = small_cycle.nodes()[3]
        ball = collect_ball(small_cycle, node, 1, outputs=outputs)
        assert ball.center_output() == 3
        assert set(ball.outputs) == set(ball.graph.nodes())

    def test_all_balls_covers_every_node(self, small_cycle):
        balls = all_balls(small_cycle, 1)
        assert set(balls) == set(small_cycle.nodes())
        assert all(ball.center == node for node, ball in balls.items())


class TestBallViewAccessors:
    def test_center_id_and_input(self):
        net = path_network(3, inputs={1: "mid"})
        ball = collect_ball(net, 1, 1)
        assert ball.center_id() == net.identity(1)
        assert ball.center_input() == "mid"

    def test_center_output_requires_outputs(self, small_cycle):
        ball = collect_ball(small_cycle, small_cycle.nodes()[0], 1)
        with pytest.raises(ValueError):
            ball.center_output()

    def test_nodes_sorted_by_identity(self, small_cycle):
        ball = collect_ball(small_cycle, small_cycle.nodes()[4], 1)
        ids = [ball.ids[node] for node in ball.nodes()]
        assert ids == sorted(ids)

    def test_center_degree_matches_graph_degree(self, small_star):
        center = small_star.nodes()[0]
        ball = collect_ball(small_star, center, 1)
        assert ball.center_degree() == small_star.degree(center)

    def test_boundary(self, small_path):
        nodes = small_path.nodes()
        ball = collect_ball(small_path, nodes[3], 2)
        boundary_ids = {ball.ids[node] for node in ball.boundary()}
        assert boundary_ids == {small_path.identity(nodes[1]), small_path.identity(nodes[5])}

    def test_membership_is_distance_at_most_radius(self, small_path):
        nodes = small_path.nodes()
        ball = collect_ball(small_path, nodes[3], 2)
        assert [node in ball for node in nodes] == [False, True, True, True, True, True, False]
        assert "not-a-node" not in ball

    def test_with_outputs(self, small_cycle):
        outputs = {node: 1 for node in small_cycle.nodes()}
        ball = collect_ball(small_cycle, small_cycle.nodes()[0], 1)
        enriched = ball.with_outputs(outputs)
        assert enriched.center_output() == 1
        assert set(enriched.outputs) == set(ball.graph.nodes())


class TestBallGraphOnDemand:
    def test_graph_is_cached_and_frozen(self, small_grid):
        ball = collect_ball(small_grid, small_grid.nodes()[5], 1)
        assert "graph" not in vars(ball)
        graph = ball.graph
        assert ball.graph is graph
        with pytest.raises(nx.NetworkXError):
            graph.add_edge(*ball.boundary()[:2])

    def test_quick_e2_builds_no_ball_graph(self, monkeypatch):
        # Every E2 predicate reads the ball's adjacency; a predicate that
        # reads ``.graph`` on this path would bring back a networkx build
        # per ball.
        built = []
        monkeypatch.setattr(BallView, "graph", property(lambda ball: built.append(ball)))
        report = Session(cache=None).run("E2", preset="quick")
        assert report.result.verdict == "pass"
        assert built == []

    def test_quick_e2_extracts_no_radius_one_view(self, monkeypatch):
        # E2's memberships and Corollary 1 decider compiles read F(G) as
        # array flags; only the radius-0 construction compiles take views.
        radii = []
        original = ball_module._ball

        def counting(adjacency, center, radius, *args, **kwargs):
            radii.append(radius)
            return original(adjacency, center, radius, *args, **kwargs)

        monkeypatch.setattr(ball_module, "_ball", counting)
        report = Session(cache=None).run("E2", preset="quick")
        assert report.result.verdict == "pass"
        assert radii and set(radii) == {0}

    @pytest.mark.parametrize(
        "experiment,radii,algorithms",
        [("E3", [0, 1], [3, 27]), ("E7", [1], [27]), ("E8", [1], [27])],
    )
    def test_quick_enumeration_extracts_one_view_per_node_and_radius(
        self, monkeypatch, experiment, radii, algorithms
    ):
        # The order-invariant algorithms are evaluated once per ball class:
        # the enumeration takes each node's ball once per radius, however
        # many algorithms it evaluates.
        views, enumerations, inside = [], [], []
        original_ball = ball_module._ball
        original_enumeration = experiments._order_invariant_colorings

        def counting_ball(adjacency, center, radius, *args, **kwargs):
            if inside:
                views.append(radius)
            return original_ball(adjacency, center, radius, *args, **kwargs)

        def counting_enumeration(network, radius, language):
            inside.append(True)
            try:
                codes, bad_counts = original_enumeration(network, radius, language)
            finally:
                inside.pop()
            enumerations.append((len(network), radius, len(codes)))
            return codes, bad_counts

        computed = []
        monkeypatch.setattr(ball_module, "_ball", counting_ball)
        monkeypatch.setattr(experiments, "_order_invariant_colorings", counting_enumeration)
        monkeypatch.setattr(
            CyclePatternAlgorithm, "compute", lambda *args, **kwargs: computed.append(args)
        )
        report = Session(cache=None).run(experiment, preset="quick")
        assert report.result.verdict == "pass"
        assert [(radius, count) for _, radius, count in enumerations] == list(
            zip(radii, algorithms)
        )
        assert views == [radius for n, radius, _ in enumerations for _ in range(n)]
        assert computed == []  # no algorithm is run ball by ball

    @pytest.mark.parametrize("experiment", ["E4", "E6"])
    def test_quick_cycles_and_gluing_build_no_network_graph(self, monkeypatch, experiment):
        # E4's oriented cycles and connectivity check, and E6's cycles,
        # unions and Theorem 1 gluings, are built and walked from node and
        # edge sequences.
        built = []
        monkeypatch.setattr(Network, "graph", property(lambda network: built.append(network)))
        report = Session(cache=None).run(experiment, preset="quick")
        assert report.result.verdict == "pass"
        assert built == []

    def test_quick_pass_builds_no_graph(self, monkeypatch):
        # E7's diameter and E9's distances are breadth-first searches over
        # the adjacency index (they built the only two network graphs of a
        # quick pass), and no experiment reads a ball's graph.
        built = []
        record = property(lambda view: built.append(view))
        monkeypatch.setattr(Network, "graph", record)
        monkeypatch.setattr(BallView, "graph", record)
        reports = Session(cache=None).run_all(preset="quick")
        assert [report.ok for report in reports] == [True] * 10
        assert built == []

    def test_quick_e2_builds_no_network_graph(self, monkeypatch):
        # A network's networkx graph is built on first read; E2 reads only
        # the adjacency index, so it must never build one.
        built = []
        monkeypatch.setattr(Network, "graph", property(lambda network: built.append(network)))
        report = Session(cache=None).run("E2", preset="quick")
        assert report.result.verdict == "pass"
        assert built == []
