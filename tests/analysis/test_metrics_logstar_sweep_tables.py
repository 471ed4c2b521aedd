"""Tests for metrics, log*, sweeps, table formatting, and the harness records."""

from __future__ import annotations

import pytest

from repro.analysis.logstar import cole_vishkin_round_bound, iterated_log, log_star
from repro.analysis.metrics import (
    color_count,
    conflicting_edges,
    dominating_set_size,
    fraction_bad_nodes,
    independent_set_size,
    matching_size,
)
from repro.analysis.sweep import SweepResult, grid_points, merge_point_row
from repro.analysis.tables import format_series, format_table
from repro.core.languages import Configuration
from repro.core.lcl import ProperColoring
from repro.graphs.families import path_network
from repro.harness.reporting import load_json, render_experiment, write_json
from repro.harness.results import ExperimentResult


class TestMetrics:
    def test_fraction_bad_nodes(self, broken_three_coloring):
        assert fraction_bad_nodes(ProperColoring(3), broken_three_coloring) == pytest.approx(2 / 9)

    def test_conflicting_edges(self, broken_three_coloring, proper_three_coloring):
        assert conflicting_edges(broken_three_coloring) == 1
        assert conflicting_edges(proper_three_coloring) == 0

    def test_color_count(self, proper_three_coloring):
        assert color_count(proper_three_coloring) == 3

    def test_set_sizes(self, small_cycle):
        outputs = {node: (index % 2 == 0) for index, node in enumerate(small_cycle.nodes())}
        configuration = Configuration(small_cycle, outputs)
        assert independent_set_size(configuration) == 5
        assert dominating_set_size(configuration) == 5

    def test_matching_size_counts_only_mutual_pairs(self):
        network = path_network(4)
        nodes = network.nodes()
        outputs = {node: None for node in nodes}
        outputs[nodes[0]] = network.identity(nodes[1])
        outputs[nodes[1]] = network.identity(nodes[0])
        outputs[nodes[2]] = network.identity(nodes[3])  # not reciprocated
        assert matching_size(Configuration(network, outputs)) == 1


class TestLogStar:
    @pytest.mark.parametrize(
        "value,expected",
        [(1, 0), (2, 1), (4, 2), (16, 3), (65536, 4), (2**65536 if False else 10**9, 5)],
    )
    def test_log_star_values(self, value, expected):
        assert log_star(value) == expected

    def test_iterated_log_other_base(self):
        assert iterated_log(10, base=10) == 1
        assert iterated_log(100, base=10) == 2

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            log_star(0)
        with pytest.raises(ValueError):
            iterated_log(5, base=1)

    def test_cole_vishkin_bound_monotone(self):
        assert cole_vishkin_round_bound(10) <= cole_vishkin_round_bound(10**6)
        with pytest.raises(ValueError):
            cole_vishkin_round_bound(0)


def sweep(experiment, parameters):
    """The row assembly of ``Session.sweep``: one merged row per grid point."""
    return SweepResult(
        rows=[merge_point_row(point, experiment(**point)) for point in grid_points(parameters)]
    )


class TestSweep:
    def test_grid_is_cartesian_product(self):
        result = sweep(lambda a, b: {"sum": a + b}, {"a": [1, 2], "b": [10, 20]})
        assert len(result) == 4
        assert result.column("sum") == [11, 21, 12, 22]

    def test_filter_and_column(self):
        result = sweep(lambda a, b: {"sum": a + b}, {"a": [1, 2], "b": [10, 20]})
        filtered = result.filter(a=2)
        assert len(filtered) == 2
        assert filtered.column("b") == [10, 20]

    def test_rows_contain_parameters_and_measurements(self):
        result = sweep(lambda n: {"square": n * n}, {"n": [3]})
        assert result.rows[0] == {"n": 3, "square": 9}

    def test_iteration(self):
        result = SweepResult(rows=[{"x": 1}])
        assert list(result) == [{"x": 1}]

    def test_measurement_colliding_with_parameter_raises(self):
        """Regression: a measurement reusing a sweep-parameter key used to
        silently overwrite the parameter in the row."""
        with pytest.raises(ValueError, match=r"colliding.*\bn\b"):
            sweep(lambda n: {"n": n * n}, {"n": [3]})

    def test_collision_error_names_every_colliding_key(self):
        with pytest.raises(ValueError, match=r"a, b"):
            sweep(lambda a, b: {"a": 1, "b": 2, "ok": 3}, {"a": [1], "b": [2]})


class TestTables:
    def test_format_table_alignment_and_title(self):
        text = format_table(
            [{"n": 10, "rate": 0.5}, {"n": 1000, "rate": 0.25}],
            title="demo",
        )
        lines = text.splitlines()
        assert lines[0] == "demo"
        assert "n" in lines[1] and "rate" in lines[1]
        assert "0.5000" in text and "0.2500" in text

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([], title="empty")

    def test_format_table_column_selection(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_format_series(self):
        text = format_series([1, 2], [True, False], x_name="n", y_name="ok")
        assert "yes" in text and "no" in text


class TestHarness:
    def make_result(self):
        result = ExperimentResult(
            experiment_id="E0",
            title="toy experiment",
            paper_claim="nothing in particular",
            parameters={"n": 5},
        )
        result.add_row(n=5, value=1.25)
        result.matches_paper = True
        return result

    def test_rows_and_columns(self):
        result = self.make_result()
        assert result.column("value") == [1.25]

    def test_roundtrip_json(self, tmp_path):
        result = self.make_result()
        path = write_json(result, tmp_path / "sub" / "e0.json")
        loaded = load_json(path)
        assert loaded.experiment_id == "E0"
        assert loaded.rows == result.rows
        assert loaded.matches_paper is True

    def test_render_contains_verdict_and_table(self):
        text = render_experiment(self.make_result())
        assert "E0" in text
        assert "MATCHES" in text
        assert "1.2500" in text
