"""Tests for the run-context CLI flags: --seed, --engine, --parallel,
--precision/--confidence, --no-cache — all thin pass-throughs to
repro.api.Session."""

from __future__ import annotations

import io

import pytest

from repro.cli import DEFAULT_SEED, build_parser, main
from repro.harness.registry import REGISTRY, ExperimentSpec, ParameterSpec
from repro.harness.results import ExperimentResult
from tests.conftest import fallback_counters


def run_cli(argv):
    stream = io.StringIO()
    code = main(argv, stream=stream)
    return code, stream.getvalue()


class TestParsing:
    def test_new_flags_parse(self):
        args = build_parser().parse_args(
            ["run", "E3", "--quick", "--parallel", "2", "--no-cache", "--seed", "7"]
        )
        assert args.parallel == 2
        assert args.no_cache
        assert args.seed == 7
        assert args.engine is None

    def test_engine_flag_parses_and_validates(self):
        for name in ("auto", "off"):
            assert build_parser().parse_args(["run", "E5", "--engine", name]).engine == name
        for name in ("exact", "warp", "fast"):
            with pytest.raises(SystemExit) as excinfo:
                build_parser().parse_args(["run", "E5", "--engine", name])
            assert excinfo.value.code == 2

    def test_backend_flag_is_gone(self, capsys):
        """--parallel N picks the backend; --backend is an unknown flag."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["run", "E5", "--backend", "process-pool"])
        assert exit_info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--parallel", "0"],
            ["--parallel", "-3"],
            ["--parallel", "two"],
            ["--quick", "--parallel", "0"],
        ],
    )
    def test_parallel_below_one_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["run", "E5"] + argv)
        assert exit_info.value.code == 2
        assert "--parallel" in capsys.readouterr().err

    def test_defaults(self):
        args = build_parser().parse_args(["run", "E3"])
        assert args.parallel == 1
        assert not args.no_cache
        assert args.seed == DEFAULT_SEED
        assert args.cache_dir is None
        assert args.engine is None
        assert args.precision is None and args.confidence is None

    def test_seed_default_documented_in_help(self, capsys):
        try:
            build_parser().parse_args(["run", "--help"])
        except SystemExit:
            pass
        help_text = capsys.readouterr().out
        assert f"default: {DEFAULT_SEED}" in help_text


class TestRunBehaviour:
    def test_seeded_quick_runs_are_reproducible(self, tmp_path):
        argv = ["run", "E5", "--quick", "--seed", "11", "--cache-dir", str(tmp_path), "--no-cache"]
        code_a, out_a = run_cli(argv)
        code_b, out_b = run_cli(argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    @pytest.mark.parametrize(
        "flags",
        [["--precision", "-0.05"], ["--precision", "0.05", "--confidence", "1.5"]],
    )
    def test_out_of_range_precision_is_a_usage_error(self, flags, tmp_path, capsys):
        """Values PrecisionTarget would reject exit 2 before anything runs,
        instead of a silent fixed-trial run or a traceback."""
        code, out = run_cli(["run", "E5", "--quick", "--cache-dir", str(tmp_path)] + flags)
        assert code == 2
        assert out == ""
        assert "must be" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_cache_hit_on_second_run(self, tmp_path):
        argv = ["run", "E3", "--quick", "--cache-dir", str(tmp_path)]
        code_a, out_a = run_cli(argv)
        assert code_a == 0
        assert "cached result reused" not in out_a
        code_b, out_b = run_cli(argv)
        assert code_b == 0
        assert "cached result reused" in out_b
        # The rendered experiment table is identical either way.
        assert out_a.splitlines()[0] == out_b.splitlines()[0]

    def test_no_cache_bypasses_existing_entries(self, tmp_path):
        argv = ["run", "E3", "--quick", "--cache-dir", str(tmp_path)]
        run_cli(argv)
        code, out = run_cli(argv + ["--no-cache"])
        assert code == 0
        assert "cached result reused" not in out

    def test_different_seed_misses_cache(self, tmp_path):
        base = ["run", "E5", "--quick", "--cache-dir", str(tmp_path)]
        run_cli(base)
        code, out = run_cli(base + ["--seed", "99"])
        assert code == 0
        assert "cached result reused" not in out

    def test_different_engine_misses_cache(self, tmp_path):
        base = ["run", "E5", "--quick", "--cache-dir", str(tmp_path)]
        run_cli(base)
        code, out = run_cli(base + ["--engine", "off"])
        assert code == 0
        assert "cached result reused" not in out

    def test_auto_engine_output_matches_reference(self, tmp_path):
        """--engine auto and --engine off print bit-identical tables (the
        engine's exactness contract, exercised through the CLI surface), and
        the trace of the auto run records no engine.fallback.* counter, so
        the engine really ran."""
        from repro.obs import read_jsonl

        base = ["run", "E5", "--quick", "--seed", "5", "--no-cache"]
        trace_path = tmp_path / "trace.jsonl"
        code_a, out_a = run_cli(base + ["--engine", "auto", "--trace", str(trace_path)])
        counters = {
            record["name"]: record["value"]
            for record in read_jsonl(trace_path)
            if record["record"] == "counter"
        }
        assert counters["engine.chunks"] > 0
        assert fallback_counters(counters) == {}
        code_b, out_b = run_cli(base + ["--engine", "off"])
        assert code_a == code_b == 0
        out_a = out_a.split("wrote trace")[0]
        table_a = [line for line in out_a.splitlines() if "engine" not in line]
        table_b = [line for line in out_b.splitlines() if "engine" not in line]
        assert table_a == table_b

    def test_seedless_experiment_shares_cache_across_seeds(self, tmp_path, monkeypatch):
        """A spec without the seed contract cannot be changed by --seed, so
        --seed must not change its cache key either.  (Every shipped spec now
        declares a seed, so the behaviour is pinned with a synthetic one.)"""

        def seedless_runner(n=15, trials=300):
            result = ExperimentResult(
                experiment_id="E3", title="seedless", paper_claim="cache-key pinning"
            )
            result.add_row(value=1)
            result.matches_paper = True
            return result

        spec = ExperimentSpec(
            id="E3",
            title="seedless stub",
            runner=seedless_runner,
            parameters=(
                ParameterSpec("n", "int", 15),
                ParameterSpec("trials", "int", 300),
            ),
        )
        monkeypatch.setitem(REGISTRY, "E3", spec)
        base = ["run", "E3", "--quick", "--cache-dir", str(tmp_path)]
        run_cli(base)
        code, out = run_cli(base + ["--seed", "99"])
        assert code == 0
        assert "cached result reused" in out

    def test_parallel_run_matches_serial(self, tmp_path):
        serial_argv = [
            "run", "E3", "E5", "--quick", "--seed", "2", "--no-cache",
        ]
        parallel_argv = serial_argv + ["--parallel", "2"]
        code_a, out_a = run_cli(serial_argv)
        code_b, out_b = run_cli(parallel_argv)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_traced_process_pool_matches_inline(self, tmp_path):
        """The pool's telemetry path (worker exports merged back) prints the
        inline tables byte for byte; only the trace line is added."""
        base = ["run", "E3", "E5", "--quick", "--seed", "2", "--no-cache"]
        trace = tmp_path / "trace.jsonl"
        code_a, out_a = run_cli(base)
        code_b, out_b = run_cli(base + ["--parallel", "2", "--trace", str(trace)])
        assert code_a == code_b == 0
        assert out_b == out_a + f"wrote trace {trace}\n"
        assert trace.is_file()

    def test_parallel_results_are_cached(self, tmp_path):
        argv = [
            "run", "E3", "E5", "--quick", "--parallel", "2",
            "--cache-dir", str(tmp_path), "--seed", "4",
        ]
        code, _out = run_cli(argv)
        assert code == 0
        code, out = run_cli(argv)
        assert code == 0
        assert out.count("cached result reused") == 2


class TestObservabilityFlags:
    def test_trace_and_metrics_parse(self, tmp_path):
        args = build_parser().parse_args(
            ["run", "E5", "--trace", str(tmp_path / "t.jsonl"), "--metrics"]
        )
        assert args.trace == tmp_path / "t.jsonl"
        assert args.metrics
        args = build_parser().parse_args(["run", "E5"])
        assert args.trace is None
        assert not args.metrics

    def test_trace_writes_jsonl_with_request_roots(self, tmp_path):
        from repro.obs import read_jsonl

        trace_path = tmp_path / "trace.jsonl"
        argv = [
            "run", "E5", "--quick", "--cache-dir", str(tmp_path / "cache"),
            "--trace", str(trace_path),
        ]
        code, out = run_cli(argv)
        assert code == 0
        assert f"wrote trace {trace_path}" in out
        records = read_jsonl(trace_path)
        assert records[0]["record"] == "trace"
        spans = [r for r in records if r["record"] == "span"]
        roots = [s for s in spans if s["name"] == "session.request"]
        assert len(roots) == 1
        assert roots[0]["attributes"]["experiment_id"] == "E5"
        children = {s["name"] for s in spans if s["parent"] == roots[0]["id"]}
        assert "backend.task" in children
        counters = {r["name"]: r["value"] for r in records if r["record"] == "counter"}
        assert counters["cache.miss"] == 1
        assert counters["cache.write"] == 1

    def test_metrics_prints_summary_table(self, tmp_path):
        argv = [
            "run", "E5", "--quick", "--no-cache",
            "--cache-dir", str(tmp_path), "--metrics",
        ]
        code, out = run_cli(argv)
        assert code == 0
        assert "session.request" in out
        assert "engine.chunks" in out

    def test_tracing_does_not_change_rendered_results(self, tmp_path):
        base = ["run", "E5", "--quick", "--seed", "5", "--no-cache"]
        code_a, out_a = run_cli(base)
        code_b, out_b = run_cli(base + ["--trace", str(tmp_path / "t.jsonl")])
        assert code_a == code_b == 0
        table_b = out_b.split("wrote trace")[0]
        assert out_a == table_b

    def test_traced_parallel_run_merges_worker_spans(self, tmp_path):
        from repro.obs import read_jsonl

        trace_path = tmp_path / "trace.jsonl"
        argv = [
            "run", "E3", "E5", "--quick", "--parallel", "2", "--no-cache",
            "--trace", str(trace_path),
        ]
        code, _out = run_cli(argv)
        assert code == 0
        spans = [r for r in read_jsonl(trace_path) if r["record"] == "span"]
        workers = [s for s in spans if s["name"] == "backend.worker"]
        assert len(workers) == 2


class TestCacheSubcommand:
    def test_stats_reports_shape(self, tmp_path):
        code, out = run_cli(["cache", "stats", "--cache-dir", str(tmp_path)])
        assert code == 0
        assert str(tmp_path) in out
        assert "entries    : 0" in out

    def test_clear_removes_entries(self, tmp_path):
        code, _out = run_cli(
            ["run", "E5", "--quick", "--cache-dir", str(tmp_path)]
        )
        assert code == 0
        code, out = run_cli(["cache", "stats", "--cache-dir", str(tmp_path)])
        assert "entries    : 1" in out
        code, out = run_cli(["cache", "clear", "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "removed 1 cache entries" in out
        code, out = run_cli(["cache", "stats", "--cache-dir", str(tmp_path)])
        assert "entries    : 0" in out

    def test_action_is_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache", "nuke"])
