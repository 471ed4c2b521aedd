"""Tests for the CLI (repro.cli) and the EXPERIMENTS.md renderer
(repro.harness.summary)."""

from __future__ import annotations

import io
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.harness.registry import REGISTRY
from repro.harness.reporting import write_json
from repro.harness.results import ExperimentResult
from repro.harness.summary import (
    load_results_directory,
    markdown_for_experiment,
    render_experiments_markdown,
)


def toy_result(experiment_id="E1", matches=True):
    result = ExperimentResult(
        experiment_id=experiment_id,
        title="toy",
        paper_claim="claim text",
        parameters={"n": 3},
        notes="a note",
    )
    result.add_row(n=3, rate=0.5, flag=True)
    result.matches_paper = matches
    return result


class TestSummaryRendering:
    def test_markdown_section_contains_claim_rows_and_verdict(self):
        text = markdown_for_experiment(toy_result())
        assert "## E1 — toy" in text
        assert "claim text" in text
        assert "| n | rate | flag |" in text
        assert "0.5000" in text and "yes" in text
        assert "matches the paper's claim" in text
        assert "a note" in text

    def test_negative_verdict_rendered(self):
        text = markdown_for_experiment(toy_result(matches=False))
        assert "does NOT match" in text

    def test_row_cap_mentions_json_artifact(self):
        result = toy_result()
        for index in range(40):
            result.add_row(n=index, rate=0.1, flag=False)
        text = markdown_for_experiment(result)
        assert "further rows" in text

    def test_full_document_has_header_summary_and_sections(self):
        text = render_experiments_markdown([toy_result("E2"), toy_result("E1")])
        assert text.startswith("# EXPERIMENTS")
        assert "## Summary" in text
        # Sections are ordered by experiment id.
        assert text.index("## E1 — toy") < text.index("## E2 — toy")

    def test_load_results_directory_roundtrip(self, tmp_path):
        write_json(toy_result("E1"), tmp_path / "e1.json")
        write_json(toy_result("E2"), tmp_path / "e2.json")
        results = load_results_directory(tmp_path)
        assert {result.experiment_id for result in results} == {"E1", "E2"}


class TestCliParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_parses_flags(self):
        args = build_parser().parse_args(["run", "E1", "e3", "--quick", "--output-dir", "/tmp/x"])
        assert args.experiments == ["E1", "e3"]
        assert args.quick
        assert str(args.output_dir) == "/tmp/x"

    def test_report_requires_results(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report"])

    def test_quick_presets_cover_all_experiments(self):
        """The reduced workloads live on the specs now (the CLI-side
        QUICK_PARAMETERS table is gone); every spec must declare one."""
        assert set(REGISTRY) == {f"E{i}" for i in range(1, 11)}
        assert all(REGISTRY[experiment_id].quick for experiment_id in REGISTRY)

    def test_cli_holds_no_experiment_parameter_tables(self):
        """The CLI is a thin client of repro.api: no per-experiment parameter
        dicts, no signature introspection."""
        import repro.cli as cli_module

        assert not hasattr(cli_module, "QUICK_PARAMETERS")
        import inspect

        source = inspect.getsource(cli_module)
        assert "accepts_seed" not in source
        assert "ALL_EXPERIMENTS" not in source


class TestCliExecution:
    def test_list_prints_every_experiment(self):
        stream = io.StringIO()
        assert main(["list"], stream=stream) == 0
        output = stream.getvalue()
        for experiment_id in REGISTRY:
            assert experiment_id in output

    def test_list_renders_schema_presets_and_capabilities(self):
        stream = io.StringIO()
        assert main(["list"], stream=stream) == 0
        output = stream.getvalue()
        # Parameter schemas with typed defaults, not bare ids.
        assert "trials=2000 (int)" in output  # E5's schema
        assert "sizes=[12, 40] (seq[int])" in output  # E1's schema
        # Engine-capability tags and the quick presets are shown.
        assert "capabilities: seed, engine" in output
        assert "capabilities: seed\n" in output  # E4/E10 declare no engine
        assert "quick preset: n=15, trials=400" in output  # E7's preset
        assert "engine='auto'" in output

    def test_run_quick_single_experiment_writes_artifact(self, tmp_path):
        stream = io.StringIO()
        code = main(
            ["run", "E3", "--quick", "--no-cache", "--output-dir", str(tmp_path)],
            stream=stream,
        )
        assert code == 0
        assert (tmp_path / "e3.json").exists()
        assert "E3" in stream.getvalue()

    def test_run_unknown_experiment_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "E99"], stream=io.StringIO())

    def test_report_from_directory_to_file(self, tmp_path):
        write_json(toy_result("E1"), tmp_path / "results" / "e1.json")
        output = tmp_path / "EXPERIMENTS.md"
        stream = io.StringIO()
        code = main(
            ["report", "--results", str(tmp_path / "results"), "--output", str(output)],
            stream=stream,
        )
        assert code == 0
        assert output.exists()
        assert "# EXPERIMENTS" in output.read_text(encoding="utf8")

    def test_report_empty_directory_fails(self, tmp_path):
        assert main(["report", "--results", str(tmp_path)], stream=io.StringIO()) == 1

    @staticmethod
    def _stub_spec(runner):
        from repro.harness.registry import ExperimentSpec

        return ExperimentSpec(id="E1", title="stub", runner=runner, parameters=())

    def test_run_exits_nonzero_on_failed_verdict(self, monkeypatch):
        monkeypatch.setitem(
            REGISTRY, "E1", self._stub_spec(lambda: toy_result("E1", matches=False))
        )
        stream = io.StringIO()
        assert main(["run", "E1", "--no-cache"], stream=stream) == 1
        assert "FAILED verdicts (1/1): E1" in stream.getvalue()

    def test_run_exits_nonzero_on_unset_verdict(self, monkeypatch):
        """A verdict that was never judged must not read as green in CI."""

        def unjudged():
            result = toy_result("E1", matches=True)
            result.matches_paper = None
            return result

        monkeypatch.setitem(REGISTRY, "E1", self._stub_spec(unjudged))
        assert main(["run", "E1", "--no-cache"], stream=io.StringIO()) == 1


class TestCommittedExperimentsRecord:
    def test_experiments_md_regenerates_byte_identically(self, tmp_path):
        """The committed EXPERIMENTS.md is what its header's two commands
        write: the full preset at seed 0, rendered from its artifacts."""
        committed = Path(__file__).resolve().parents[2] / "EXPERIMENTS.md"
        results, output = tmp_path / "results", tmp_path / "EXPERIMENTS.md"
        run = ["run", "all", "--seed", "0", "--output-dir", str(results), "--no-cache"]
        assert main(run, stream=io.StringIO()) == 0
        report = ["report", "--results", str(results), "--output", str(output)]
        assert main(report, stream=io.StringIO()) == 0
        assert output.read_bytes() == committed.read_bytes()
