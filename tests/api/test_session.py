"""Tests for the Session facade (repro.api.session)."""

from __future__ import annotations

import pytest

from repro.api import (
    PRESET_QUICK,
    REGISTRY,
    ExperimentRegistry,
    InlineBackend,
    ProcessPoolBackend,
    Session,
    UnknownParameterError,
)
from repro.engine.cache import ResultCache
from repro.engine.parallel import point_seed
from repro.engine.adapters import ENGINE_CHOICES
from repro.harness.registry import ExperimentSpec, ParameterSpec, ParameterValueError
from repro.harness.results import ExperimentResult


def stub_runner(n=3, factor=2, seed=0, engine="auto"):
    result = ExperimentResult(
        experiment_id="STUB",
        title="stub",
        paper_claim="none",
        parameters={"n": n, "factor": factor, "seed": seed, "engine": engine},
    )
    result.add_row(value=n * factor + seed)
    result.matches_paper = True
    return result


def stub_spec(experiment_id="STUB"):
    return ExperimentSpec(
        id=experiment_id,
        title="stub spec",
        runner=stub_runner,
        parameters=(
            ParameterSpec("n", "int", 3),
            ParameterSpec("factor", "int", 2),
            ParameterSpec("seed", "int", 0),
            ParameterSpec("engine", "str", "auto", choices=ENGINE_CHOICES),
        ),
        quick={"n": 1},
    )


@pytest.fixture
def registry():
    return ExperimentRegistry([stub_spec()])


class TestRequestResolution:
    def test_request_carries_normalized_parameters(self, registry):
        session = Session(cache=None, registry=registry)
        request = session.request("STUB", factor=5)
        assert request.kwargs == {"n": 3, "factor": 5, "seed": 0, "engine": "auto"}
        assert request.preset == "full"

    def test_session_seed_and_engine_injected(self, registry):
        session = Session(seed=7, engine="off", cache=None, registry=registry)
        assert session.request("STUB").kwargs["seed"] == 7
        assert session.request("STUB").kwargs["engine"] == "off"
        # Explicit overrides win over the session context.
        assert session.request("STUB", seed=1).kwargs["seed"] == 1

    @pytest.mark.parametrize("engine", ["warp", "fast", 3])
    def test_unknown_engine_rejected_at_construction(self, engine):
        """A spec without the engine capability never sees the session's
        engine, so the value is checked up front, with the per-spec error."""
        with pytest.raises(ParameterValueError) as at_session:
            Session(engine=engine, cache=None)
        with pytest.raises(ParameterValueError) as at_spec:
            REGISTRY["E1"].resolve(overrides={"engine": engine})
        assert at_session.value.code == at_spec.value.code == "parameter_value"
        assert str(at_session.value) == str(at_spec.value)

    @pytest.mark.parametrize(
        "experiment_id, parameter",
        [("E5", "trials"), ("E2", "decider_trials"), ("E10", "runs")],
    )
    @pytest.mark.parametrize("engine", ["auto", "off"])
    def test_trial_count_below_one_rejected_before_running(self, experiment_id, parameter, engine):
        session = Session(engine=engine, cache=None)
        with pytest.raises(ParameterValueError, match="at least 1"):
            session.run(experiment_id, preset="quick", **{parameter: 0})

    def test_equal_requests_compare_equal_and_share_keys(self, registry):
        session = Session(cache=None, registry=registry)
        a = session.request("STUB", factor=5, n=3)
        b = session.request("STUB", n=3, factor=5)
        assert a == b
        assert a.cache_key(registry) == b.cache_key(registry)

    def test_unknown_parameter_surfaces_at_request_time(self, registry):
        session = Session(cache=None, registry=registry)
        with pytest.raises(UnknownParameterError):
            session.request("STUB", bogus=1)

    def test_payload_roundtrip_is_jsonable(self, registry):
        import json

        session = Session(cache=None, registry=registry)
        payload = session.request("STUB", preset=PRESET_QUICK).to_payload()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["preset"] == "quick"


class TestRunAndCache:
    def test_run_executes_and_reports(self, registry):
        report = Session(cache=None, registry=registry).run("STUB", n=4)
        assert report.ok
        assert report.result.rows == [{"value": 8}]
        assert report.from_cache is False
        assert report.cache_path is None

    def test_cache_roundtrip_and_provenance(self, registry, tmp_path):
        session = Session(cache=tmp_path, registry=registry)
        first = session.run("STUB", n=4)
        second = session.run("STUB", n=4)
        assert not first.from_cache and second.from_cache
        assert second.cache_path is not None and second.cache_path.is_file()
        assert second.result.rows == first.result.rows

    def test_cache_key_distinguishes_parameters_and_seed(self, registry, tmp_path):
        session = Session(cache=tmp_path, registry=registry)
        session.run("STUB", n=4)
        assert not session.run("STUB", n=5).from_cache
        assert not session.run("STUB", n=4, seed=9).from_cache
        assert session.run("STUB", n=4).from_cache

    def test_cache_accepts_result_cache_instance_and_none(self, registry, tmp_path):
        cache = ResultCache(tmp_path)
        Session(cache=cache, registry=registry).run("STUB")
        assert len(cache) == 1
        uncached = Session(cache=None, registry=registry)
        assert uncached.cache is None
        assert Session(cache=False, registry=registry).cache is None

    def test_corrupt_cache_entry_is_a_miss(self, registry, tmp_path):
        session = Session(cache=tmp_path, registry=registry)
        report = session.run("STUB")
        assert report.cache_path is not None  # freshly written entry
        report.cache_path.write_text('{"payload": {"bad": "shape"}}', encoding="utf8")
        rerun = session.run("STUB")
        assert not rerun.from_cache
        assert rerun.result.rows == report.result.rows


class TestProgressEvents:
    def test_start_done_and_cached_events(self, registry, tmp_path):
        events = []
        session = Session(
            cache=tmp_path,
            registry=registry,
            progress=lambda event: events.append((event.kind, event.index, event.total)),
        )
        session.run("STUB")
        assert events == [("start", 0, 1), ("done", 0, 1)]
        events.clear()
        session.run("STUB")
        assert events == [("cached", 0, 1)]

    def test_per_call_progress_overrides_session_progress(self, registry):
        session_events, call_events = [], []
        session = Session(
            cache=None, registry=registry, progress=lambda e: session_events.append(e)
        )
        session.run("STUB", progress=lambda e: call_events.append(e.kind))
        assert session_events == []
        assert call_events == ["start", "done"]

    def test_done_events_carry_the_report(self, registry):
        reports = []
        Session(cache=None, registry=registry).run(
            "STUB", progress=lambda e: e.report is not None and reports.append(e.report)
        )
        assert len(reports) == 1 and reports[0].ok


class TestSelections:
    def test_run_selection_dedups_and_orders(self, registry):
        registry.register(stub_spec("STUB2"))
        session = Session(cache=None, registry=registry)
        reports = session.run_selection(["stub2", "STUB", "STUB2"])
        assert [report.experiment_id for report in reports] == ["STUB2", "STUB"]

    def test_run_all_uses_the_preset(self, registry):
        reports = Session(cache=None, registry=registry).run_all(preset=PRESET_QUICK)
        assert len(reports) == 1
        assert reports[0].result.parameters["n"] == 1

    def test_run_iter_streams_in_request_order(self, registry, tmp_path):
        registry.register(stub_spec("STUB2"))
        session = Session(cache=tmp_path, registry=registry)
        session.run("STUB2")  # pre-cache the second request
        requests = [session.request("STUB"), session.request("STUB2")]
        seen = [
            (report.experiment_id, report.from_cache)
            for report in session.run_iter(requests)
        ]
        assert seen == [("STUB", False), ("STUB2", True)]


class TestSweep:
    def test_sweep_grid_order_and_table(self, registry):
        session = Session(cache=None, registry=registry)
        sweep = session.sweep("STUB", {"n": [1, 2], "factor": [10]})
        assert len(sweep) == 2
        values = [report.result.rows[0]["value"] for report in sweep.reports]
        assert values == [10, 20]
        assert sweep.table.column("matches_paper") == [True, True]
        assert sweep.table.rows[0]["n"] == 1 and sweep.table.rows[1]["n"] == 2

    def test_sweep_derives_per_point_seeds(self, registry):
        session = Session(seed=7, cache=None, registry=registry)
        sweep = session.sweep("STUB", {"n": [1, 2]})
        seeds = [report.request.kwargs["seed"] for report in sweep.reports]
        assert seeds == [point_seed(7, {"n": 1}), point_seed(7, {"n": 2})]
        # An explicit seed in the grid wins over the derived one.
        pinned = session.sweep("STUB", {"n": [1]}, seed=5)
        assert pinned.reports[0].request.kwargs["seed"] == 5

    def test_sweep_without_session_seed_uses_schema_default(self, registry):
        sweep = Session(cache=None, registry=registry).sweep("STUB", {"n": [4]})
        assert sweep.reports[0].request.kwargs["seed"] == 0

    def test_sweep_reports_cache_hits_in_table(self, registry, tmp_path):
        session = Session(cache=tmp_path, registry=registry)
        first = session.sweep("STUB", {"n": [1, 2]})
        second = session.sweep("STUB", {"n": [1, 2]})
        assert first.table.column("from_cache") == [False, False]
        assert second.table.column("from_cache") == [True, True]

    def test_sweep_seeds_do_not_depend_on_the_grid_shape(self, registry):
        session = Session(seed=7, cache=None, registry=registry)
        wide = session.sweep("STUB", {"n": [1, 2, 3], "factor": [2, 5]})
        narrow = session.sweep("STUB", {"n": [3], "factor": [5]})
        seed_of = {
            (kwargs["n"], kwargs["factor"]): kwargs["seed"]
            for kwargs in (report.request.kwargs for report in wide.reports)
        }
        assert narrow.reports[0].request.kwargs["seed"] == seed_of[(3, 5)]
        assert seed_of[(3, 5)] == point_seed(7, {"n": 3, "factor": 5})

    def test_explicit_seed_parameter_wins(self, registry):
        session = Session(seed=7, cache=None, registry=registry)
        sweep = session.sweep("STUB", {"n": [1, 2], "seed": [5]})
        assert [report.request.kwargs["seed"] for report in sweep.reports] == [5, 5]
        assert [report.result.rows[0]["value"] for report in sweep.reports] == [7, 9]

    def test_seeding_is_declared_not_introspected(self):
        """A runner with a ``seed`` keyword whose spec does not declare the
        seed contract is swept without one: the schema decides, not the
        function signature."""
        seen = []

        def seedless_runner(n=1, seed=0):
            seen.append(seed)
            result = ExperimentResult("SEEDLESS", "t", "c", parameters={"n": n})
            result.add_row(value=n)
            result.matches_paper = True
            return result

        spec = ExperimentSpec(
            id="SEEDLESS",
            title="seedless",
            runner=seedless_runner,
            parameters=(ParameterSpec("n", "int", 1),),
        )
        session = Session(seed=7, cache=None, registry=ExperimentRegistry([spec]))
        sweep = session.sweep("SEEDLESS", {"n": [1, 2]})
        assert [report.request.kwargs for report in sweep.reports] == [{"n": 1}, {"n": 2}]
        assert seen == [0, 0]

    def test_key_collisions_raise(self):
        """A sweep parameter named like a summary column would be shadowed
        in the table row; the sweep refuses it instead."""

        def shadowing_runner(trials_used=1):
            result = ExperimentResult("SHADOW", "t", "c")
            result.add_row(value=trials_used)
            return result

        spec = ExperimentSpec(
            id="SHADOW",
            title="shadow",
            runner=shadowing_runner,
            parameters=(ParameterSpec("trials_used", "int", 1),),
        )
        session = Session(cache=None, registry=ExperimentRegistry([spec]))
        with pytest.raises(ValueError, match="colliding with sweep parameters: trials_used"):
            session.sweep("SHADOW", {"trials_used": [1, 2]})

    def test_serial_in_process_mode(self):
        """The inline backend runs points in the calling process, in grid
        order, so a runner may be a closure over local state."""
        calls = []

        def recording_runner(n=1, factor=1):
            calls.append((n, factor))
            result = ExperimentResult("LOCAL", "t", "c", parameters={"n": n})
            result.add_row(value=n * factor)
            result.matches_paper = True
            return result

        spec = ExperimentSpec(
            id="LOCAL",
            title="local",
            runner=recording_runner,
            parameters=(ParameterSpec("n", "int", 1), ParameterSpec("factor", "int", 1)),
        )
        session = Session(cache=None, registry=ExperimentRegistry([spec]))
        sweep = session.sweep("LOCAL", {"n": [1, 2], "factor": [10, 20]})
        assert calls == [(1, 10), (1, 20), (2, 10), (2, 20)]
        assert [report.result.rows[0]["value"] for report in sweep.reports] == [10, 20, 20, 40]

    def test_sweep_grid_key_colliding_with_fixed_raises(self, registry):
        session = Session(cache=None, registry=registry)
        with pytest.raises(ValueError, match="colliding"):
            session.sweep("STUB", {"n": [1, 2]}, n=3)

    def test_sweep_records_verdict_and_ci_columns(self, registry):
        sweep = Session(cache=None, registry=registry).sweep("STUB", {"n": [1]})
        row = sweep.table.rows[0]
        assert row["verdict"] == "pass"
        for column in ("trials_used", "ci_low", "ci_high"):
            assert column in row

    def test_unresolved_point_is_distinguishable_from_a_failed_one(self):
        # An UNRESOLVED point (CI straddles the acceptance threshold: more
        # trials needed) must not be conflated with a failed one in the sweep
        # table — matches_paper is None for both unresolved and unset.
        def verdict_runner(n=1, seed=0):
            result = ExperimentResult(
                experiment_id="VERDICT",
                title="verdict stub",
                paper_claim="none",
                parameters={"n": n, "seed": seed},
            )
            result.add_row(value=n)
            if n == 1:
                result.matches_paper = None
                result.unresolved = True
                result.ci_low, result.ci_high, result.trials_used = 0.4, 0.6, 128
            elif n == 2:
                result.matches_paper = False
            else:
                result.matches_paper = True
            return result

        spec = ExperimentSpec(
            id="VERDICT",
            title="verdict stub",
            runner=verdict_runner,
            parameters=(
                ParameterSpec("n", "int", 1),
                ParameterSpec("seed", "int", 0),
            ),
        )
        session = Session(cache=None, registry=ExperimentRegistry([spec]))
        sweep = session.sweep("VERDICT", {"n": [1, 2, 3]})
        assert sweep.table.column("verdict") == ["unresolved", "fail", "pass"]
        assert sweep.table.column("matches_paper") == [None, False, True]
        unresolved_row = sweep.table.rows[0]
        assert unresolved_row["trials_used"] == 128
        assert unresolved_row["ci_low"] == 0.4 and unresolved_row["ci_high"] == 0.6

    def test_backend_under_yield_raises_not_truncates(self, registry):
        from repro.api.backends import ExecutionBackend

        class UnderYieldingBackend(ExecutionBackend):
            name = "under-yield"

            def execute(self, payloads, registry=None):
                return iter(())  # yields nothing, whatever was requested

        session = Session(
            cache=None, registry=registry, backend=UnderYieldingBackend()
        )
        with pytest.raises(RuntimeError, match="yielded fewer results"):
            session.sweep("STUB", {"n": [1, 2]})

    def test_sweep_on_a_real_experiment_through_the_pool(self):
        session = Session(
            seed=3, cache=None, backend=ProcessPoolBackend(max_workers=2)
        )
        sweep = session.sweep(
            "E5", {"f_values": [[1], [2]]}, trials=150, n=24
        )
        # At toy trial counts the statistical verdict may wobble; the pinned
        # property is that both points ran and the pool backend is
        # bit-identical to inline at the same derived per-point seeds.
        assert [report.result.matches_paper is not None for report in sweep.reports] == [
            True,
            True,
        ]
        inline = Session(seed=3, cache=None, backend=InlineBackend()).sweep(
            "E5", {"f_values": [[1], [2]]}, trials=150, n=24
        )
        assert [r.result.rows for r in sweep.reports] == [
            r.result.rows for r in inline.reports
        ]


class TestSessionConstruction:
    def test_default_registry_is_the_shipped_one(self):
        assert Session(cache=None).registry is REGISTRY

    def test_backend_resolution(self):
        assert Session(cache=None).backend.name == "inline"
        assert Session(cache=None, parallel=4).backend.name == "process-pool"
        for name in ("carrier-pigeon", "batch"):
            with pytest.raises(ValueError, match="unknown backend"):
                Session(cache=None, backend=name)

    @pytest.mark.parametrize("parallel", [0, -1])
    def test_worker_counts_below_one_rejected(self, parallel):
        with pytest.raises(ValueError, match="positive worker count"):
            Session(cache=None, parallel=parallel)
