"""Whole-sweep fusion (repro.engine.fusion + Session.sweep).

The contract under test is **bit-identity**: a fused sweep — one shared
construction matrix per fusion group, every point's decision DAG lowered
against it — must equal the same grid run point by point through
``Session.run_many``, at several seeds, on both grids of the paper's
sweep-shaped experiments (E2's ε grid, E8's f grid), through the inline and
process-pool backends alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.sweep import grid_points
from repro.api import InlineBackend, ProcessPoolBackend, Session, UnknownParameterError
from repro.engine import construct, fusion
from repro.engine.construct import compile_construction, construction_matrix
from repro.engine.fusion import (
    FusedSweepPlan,
    FusionContext,
    active_fusion,
    fusion_group_key,
    fusion_scope,
)
from repro.graphs.families import cycle_network
from repro.algorithms.coloring.random_coloring import RandomColoringConstructor
from repro.engine.parallel import point_seed
from repro.harness.experiments import _toy_faulty_constructor
from repro.harness.registry import REGISTRY
from repro.obs import TraceRecorder

E2_GRID = {"eps_values": [[0.75], [0.65]]}
E2_FIXED = dict(sizes=[18], trials=25, decider_trials=40, engine="auto")
E8_GRID = {"f_values": [[1], [2]]}
E8_FIXED = dict(n=15, trials=40, engine="auto")

CASES = [("E2", E2_GRID, E2_FIXED), ("E8", E8_GRID, E8_FIXED)]


def _dicts(report):
    return [run.result.to_dict() for run in report.reports]


def _per_point(session, experiment, grid, **fixed):
    """The sweep's requests run one by one through ``Session.run_many``
    (the per-point path), seeded like ``Session.sweep`` seeds them."""
    requests = []
    for point in grid_points(grid):
        overrides = {**fixed, **point}
        if session.seed is not None and "seed" not in overrides:
            overrides["seed"] = point_seed(session.seed, point)
        requests.append(session.request(experiment, **overrides))
    return [run.result.to_dict() for run in session.run_many(requests)]


class TestFusedBitIdentity:
    @pytest.mark.parametrize("seed", [0, 10_000])
    @pytest.mark.parametrize("experiment,grid,fixed", CASES)
    def test_inline_fused_equals_per_point(self, experiment, grid, fixed, seed):
        base = _per_point(Session(cache=None), experiment, grid, seed=seed, **fixed)
        fused = Session(cache=None).sweep(experiment, grid, seed=seed, **fixed)
        assert fused.plan is not None and fused.plan.has_fusion
        assert _dicts(fused) == base

    @pytest.mark.parametrize("seed", [0, 10_000])
    @pytest.mark.parametrize("experiment,grid,fixed", CASES)
    def test_pool_fused_equals_per_point(self, experiment, grid, fixed, seed):
        pool = Session(cache=None, backend=ProcessPoolBackend(max_workers=2))
        base = _per_point(Session(cache=None), experiment, grid, seed=seed, **fixed)
        fused = pool.sweep(experiment, grid, seed=seed, **fixed)
        assert fused.plan is not None and fused.plan.has_fusion
        assert _dicts(fused) == base

    def test_session_seed_points_stay_singletons_and_identical(self):
        # A session master seed derives a distinct per-point seed, so no two
        # points may share randomness — the plan must degrade to singleton
        # groups, and results still match the per-point path exactly.
        base = _per_point(Session(seed=11, cache=None), "E8", E8_GRID, **E8_FIXED)
        fused = Session(seed=11, cache=None).sweep("E8", E8_GRID, **E8_FIXED)
        assert fused.plan is None
        assert _dicts(fused) == base

    def test_fused_sweep_through_inline_backend_object(self):
        # Explicit backend objects take the same grouped path as the default.
        base = _per_point(
            Session(cache=None, backend=InlineBackend()), "E8", E8_GRID, seed=0, **E8_FIXED
        )
        fused = Session(cache=None, backend=InlineBackend()).sweep(
            "E8", E8_GRID, seed=0, **E8_FIXED
        )
        assert _dicts(fused) == base


class TestSweepFuseArgument:
    @pytest.mark.parametrize("fuse", ["auto", "on", "off"])
    def test_unknown_fuse_choice_is_rejected(self, fuse):
        # There is one run path: a leftover fuse= is just an undeclared
        # parameter, rejected by the spec's schema.
        with pytest.raises(UnknownParameterError, match="fuse"):
            Session(cache=None).sweep("E8", E8_GRID, fuse=fuse, seed=0, **E8_FIXED)

    def test_plan_is_none_when_nothing_fuses(self):
        # engine="off" makes every group a singleton: the report carries no
        # plan, and the points run exactly as they do one by one.
        fixed = dict(E8_FIXED, engine="off")
        sweep = Session(cache=None).sweep("E8", E8_GRID, seed=0, **fixed)
        assert sweep.plan is None
        assert _dicts(sweep) == _per_point(Session(cache=None), "E8", E8_GRID, seed=0, **fixed)


class TestFusedSweepPlan:
    def _requests(self, session, grid, seed, **fixed):
        from repro.analysis.sweep import grid_points

        return [
            session.request("E8", **{**fixed, **point, "seed": seed})
            for point in grid_points(grid)
        ]

    def test_same_configuration_shares_one_group(self):
        session = Session(cache=None)
        requests = self._requests(session, E8_GRID, 0, **E8_FIXED)
        plan = FusedSweepPlan.build(REGISTRY["E8"], requests)
        assert plan.groups == ((0, 1),)
        assert plan.fused_points == 2 and plan.has_fusion

    def test_mixed_seeds_split_groups(self):
        session = Session(cache=None)
        requests = self._requests(session, E8_GRID, 0, **E8_FIXED) + self._requests(
            session, E8_GRID, 1, **E8_FIXED
        )
        plan = FusedSweepPlan.build(REGISTRY["E8"], requests)
        assert plan.groups == ((0, 1), (2, 3))

    def test_engine_off_points_are_singletons(self):
        session = Session(cache=None)
        fixed = dict(E8_FIXED, engine="off")
        requests = self._requests(session, E8_GRID, 0, **fixed)
        plan = FusedSweepPlan.build(REGISTRY["E8"], requests)
        assert plan.groups == ((0,), (1,))
        assert not plan.has_fusion and plan.fused_points == 0

    def test_group_key_requires_engine_capability(self):
        spec = REGISTRY["E8"]
        assert fusion_group_key(spec, {"engine": "auto", "seed": 3}) == ("E8", "auto", 3)
        assert fusion_group_key(spec, {"engine": "off", "seed": 3}) is None
        assert fusion_group_key(spec, {"engine": None, "seed": 3}) is None
        # Unhashable seeds cannot enter a group key.
        assert fusion_group_key(spec, {"engine": "auto", "seed": [3]}) is None


class TestFusionContext:
    def _compiled(self, n=12):
        return compile_construction(RandomColoringConstructor(3), cycle_network(n))

    def test_codes_match_one_shot_matrix_for_prefix_and_extension(self):
        compiled = self._compiled()
        context = FusionContext()
        grown = context.codes_for(compiled, 20, seed_base=5, salt="t")
        prefix = context.codes_for(compiled, 8, seed_base=5, salt="t")
        extended = context.codes_for(compiled, 32, seed_base=5, salt="t")
        one_shot = construction_matrix(compiled, 32, seed=5, salt="t")
        assert np.array_equal(extended, one_shot)
        assert np.array_equal(grown, one_shot[:20])
        assert np.array_equal(prefix, one_shot[:8])
        assert context.hits == 1 and context.misses == 2  # prefix hit, two growths

    def test_returned_matrix_is_read_only(self):
        context = FusionContext()
        codes = context.codes_for(self._compiled(), 4, seed_base=0, salt=None)
        with pytest.raises(ValueError):
            codes[0, 0] = 0

    def test_oversized_matrix_bypasses_retention(self, monkeypatch):
        compiled = self._compiled(n=12)
        monkeypatch.setattr(fusion, "WORKING_SET_BYTES", 100)  # < 4 trials × 12 nodes × 4 bytes
        context = FusionContext()
        assert context.codes_for(compiled, 4, seed_base=0, salt=None) is None
        assert context.retained_bytes == 0

    def test_eviction_keeps_retained_bytes_bounded(self, monkeypatch):
        compiled = self._compiled(n=12)
        # Each 4×12 int32 matrix is 192 bytes; the bound fits one, not two.
        monkeypatch.setattr(fusion, "WORKING_SET_BYTES", 256)
        context = FusionContext()
        context.codes_for(compiled, 4, seed_base=0, salt="a")
        context.codes_for(compiled, 4, seed_base=0, salt="b")
        assert len(context._entries) == 1
        assert context.retained_bytes <= 256

    def test_scope_installs_and_restores_the_ambient_context(self):
        assert active_fusion() is None
        with fusion_scope() as context:
            assert active_fusion() is context
        assert active_fusion() is None


class TestFusionTelemetry:
    def test_fused_sweep_emits_spans_and_counters(self):
        recorder = TraceRecorder()
        session = Session(cache=None, telemetry=recorder)
        session.sweep("E8", E8_GRID, seed=0, **E8_FIXED)

        def walk(spans):
            for span in spans:
                yield span["name"]
                yield from walk(span["children"])

        names = set(walk(recorder.export()["spans"]))
        assert "engine.fuse" in names
        assert "engine.fuse_group" in names
        counters = recorder.export()["counters"]
        assert counters.get("engine.fuse_hits", 0) > 0
        assert counters.get("engine.fuse_misses", 0) > 0

    def test_telemetry_does_not_change_results(self):
        silent = Session(cache=None).sweep("E8", E8_GRID, seed=0, **E8_FIXED)
        traced = Session(cache=None, telemetry=TraceRecorder()).sweep(
            "E8", E8_GRID, seed=0, **E8_FIXED
        )
        assert _dicts(traced) == _dicts(silent)


class TestFusedCountMemo:
    def test_memo_hits_compile_no_membership_program(self, monkeypatch):
        # Per E2 point: the probe's counts, and the success estimate's budget
        # and counts, each want a membership program.  Only the first probe
        # and the first success count miss the shared memo; the budget is
        # compiled at every point.
        compiled = []
        original = fusion.compile_membership

        def counting(language, construction):
            compiled.append(language.name)
            return original(language, construction)

        monkeypatch.setattr(fusion, "compile_membership", counting)
        grid = {"eps_values": [[0.75], [0.7], [0.65]]}
        fused = Session(cache=None).sweep("E2", grid, seed=0, **E2_FIXED)
        assert fused.plan is not None and fused.plan.has_fusion
        assert len(compiled) == len(grid["eps_values"]) + 2
        assert _dicts(fused) == _per_point(Session(cache=None), "E2", grid, seed=0, **E2_FIXED)


class TestConstructionCompileMemo:
    def test_fused_sweep_compiles_each_size_once(self, monkeypatch):
        # Every E2 point compiles the same construction twice (the probe and
        # the success estimate); one group compiles it once per size.
        sizes = []
        original = construct._compile_construction

        def counting(constructor, network, span):
            sizes.append(len(network))
            return original(constructor, network, span)

        monkeypatch.setattr(construct, "_compile_construction", counting)
        grid = {"eps_values": [[0.75], [0.7], [0.65]]}
        fixed = dict(E2_FIXED, sizes=[18, 24])
        fused = Session(cache=None).sweep("E2", grid, seed=0, **fixed)
        assert fused.plan is not None and fused.plan.has_fusion
        assert sorted(sizes) == [18, 24]
        assert _dicts(fused) == _per_point(Session(cache=None), "E2", grid, seed=0, **fixed)

    def test_memo_matches_constructors_by_equality_only(self):
        network = cycle_network(9)
        faulty = _toy_faulty_constructor(0.25)
        with fusion_scope():
            first = compile_construction(RandomColoringConstructor(3), network)
            assert compile_construction(RandomColoringConstructor(3), network.copy()) is first
            assert compile_construction(RandomColoringConstructor(4), network) is not first
            compiled = compile_construction(faulty, network)
            assert compile_construction(faulty, network) is compiled
            assert compile_construction(_toy_faulty_constructor(0.25), network) is not compiled
        assert compile_construction(RandomColoringConstructor(3), network) is not first


class TestFusedProgress:
    def test_fused_points_start_before_the_group_runs(self):
        # Both points of the group start when the group does; neither is
        # reported as starting after the shared run has finished.
        events = []
        Session(cache=None).sweep(
            "E8", E8_GRID, seed=0, progress=lambda event: events.append(event), **E8_FIXED
        )
        assert [(event.kind, event.index) for event in events] == [
            ("start", 0),
            ("start", 1),
            ("done", 0),
            ("done", 1),
        ]


class TestTracedPoolFusion:
    @pytest.mark.parametrize(
        "grid",
        [E8_GRID, {**E8_GRID, "seed": [0, 1]}],
        ids=["one-group", "two-groups"],
    )
    def test_pool_group_runs_as_one_traced_task(self, grid):
        fixed = E8_FIXED if "seed" in grid else dict(E8_FIXED, seed=0)
        recorder = TraceRecorder()
        pool = Session(cache=None, backend=ProcessPoolBackend(max_workers=2), telemetry=recorder)
        fused = pool.sweep("E8", grid, **fixed)
        tasks = [span for span in recorder.iter_spans() if span.name == "backend.task"]
        assert len(tasks) == len(fused.plan.groups) == len(grid.get("seed", [0]))
        for task in tasks:
            assert task.attributes["points"] == 2
            assert task.attributes["experiment_id"] == "E8"
            (worker,) = [span for span in task.children if span.name == "backend.worker"]
            assert worker.attributes["points"] == 2
            assert isinstance(worker.attributes["pid"], int)
            assert "engine.fuse_group" in {span.name for span in worker.walk()}
        assert recorder.counters["engine.fuse_hits"] > 0
        assert _dicts(fused) == _dicts(Session(cache=None).sweep("E8", grid, **fixed))
