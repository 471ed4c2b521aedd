"""Whole-sweep fusion (repro.engine.fusion + Session.sweep(fuse=...)).

The contract under test is **bit-identity**: a fused sweep — one shared
construction matrix per fusion group, every point's decision DAG lowered
against it — must equal the per-point path exactly, at several seeds, on
both grids of the paper's sweep-shaped experiments (E2's ε grid, E8's f
grid), through the inline and process-pool backends alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import InlineBackend, ProcessPoolBackend, Session
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
from repro.harness.registry import REGISTRY
from repro.obs import TraceRecorder

E2_GRID = {"eps_values": [[0.75], [0.65]]}
E2_FIXED = dict(sizes=[18], trials=25, decider_trials=40, engine="auto")
E8_GRID = {"f_values": [[1], [2]]}
E8_FIXED = dict(n=15, trials=40, engine="auto")

CASES = [("E2", E2_GRID, E2_FIXED), ("E8", E8_GRID, E8_FIXED)]


def _dicts(report):
    return [run.result.to_dict() for run in report.reports]


class TestFusedBitIdentity:
    @pytest.mark.parametrize("seed", [0, 10_000])
    @pytest.mark.parametrize("experiment,grid,fixed", CASES)
    def test_inline_fused_equals_per_point(self, experiment, grid, fixed, seed):
        base = Session(cache=None).sweep(experiment, grid, fuse="off", seed=seed, **fixed)
        fused = Session(cache=None).sweep(experiment, grid, fuse="on", seed=seed, **fixed)
        auto = Session(cache=None).sweep(experiment, grid, fuse="auto", seed=seed, **fixed)
        assert base.plan is None
        assert fused.plan is not None and fused.plan.has_fusion
        assert auto.plan is not None and auto.plan.has_fusion
        assert _dicts(fused) == _dicts(base)
        assert _dicts(auto) == _dicts(base)
        assert fused.table.rows == base.table.rows
        assert auto.table.rows == base.table.rows

    @pytest.mark.parametrize("seed", [0, 10_000])
    @pytest.mark.parametrize("experiment,grid,fixed", CASES)
    def test_pool_fused_equals_per_point(self, experiment, grid, fixed, seed):
        pool = Session(cache=None, backend=ProcessPoolBackend(max_workers=2))
        base = Session(cache=None).sweep(experiment, grid, fuse="off", seed=seed, **fixed)
        fused = pool.sweep(experiment, grid, fuse="on", seed=seed, **fixed)
        assert fused.plan is not None and fused.plan.has_fusion
        assert _dicts(fused) == _dicts(base)
        assert fused.table.rows == base.table.rows

    def test_session_seed_points_stay_singletons_and_identical(self):
        # A session master seed derives a distinct per-point seed, so no two
        # points may share randomness — the plan must degrade to singleton
        # groups, and results still match the per-point path exactly.
        base = Session(seed=11, cache=None).sweep("E8", E8_GRID, fuse="off", **E8_FIXED)
        fused = Session(seed=11, cache=None).sweep("E8", E8_GRID, fuse="on", **E8_FIXED)
        assert fused.plan is not None and not fused.plan.has_fusion
        assert _dicts(fused) == _dicts(base)

    def test_fused_sweep_through_inline_backend_object(self):
        # Explicit backend objects take the same grouped path as the default.
        base = Session(cache=None, backend=InlineBackend()).sweep(
            "E8", E8_GRID, fuse="off", seed=0, **E8_FIXED
        )
        fused = Session(cache=None, backend=InlineBackend()).sweep(
            "E8", E8_GRID, fuse="on", seed=0, **E8_FIXED
        )
        assert _dicts(fused) == _dicts(base)


class TestSweepFuseArgument:
    def test_unknown_fuse_choice_is_rejected(self):
        with pytest.raises(ValueError, match="fuse"):
            Session(cache=None).sweep("E8", E8_GRID, fuse="maybe", **E8_FIXED)

    def test_auto_drops_the_plan_when_nothing_fuses(self):
        # engine="off" makes every group a singleton; fuse="auto" then runs
        # the plain per-point path (no plan on the report), while fuse="on"
        # keeps the (degenerate) plan.
        fixed = dict(E8_FIXED, engine="off")
        auto = Session(cache=None).sweep("E8", E8_GRID, fuse="auto", seed=0, **fixed)
        forced = Session(cache=None).sweep("E8", E8_GRID, fuse="on", seed=0, **fixed)
        assert auto.plan is None
        assert forced.plan is not None and not forced.plan.has_fusion
        assert _dicts(auto) == _dicts(forced)


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
        assert plan.group_of(0) == plan.group_of(1) == 0
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

    def test_oversized_matrix_bypasses_retention(self):
        compiled = self._compiled(n=12)
        context = FusionContext(max_bytes=100)  # < 4 trials × 12 nodes × 4 bytes
        assert context.codes_for(compiled, 4, seed_base=0, salt=None) is None
        assert context.retained_bytes == 0

    def test_eviction_keeps_retained_bytes_bounded(self):
        compiled = self._compiled(n=12)
        # Each 4×12 int32 matrix is 192 bytes; the bound fits one, not two.
        context = FusionContext(max_bytes=256)
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
        session.sweep("E8", E8_GRID, fuse="on", seed=0, **E8_FIXED)

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
        silent = Session(cache=None).sweep("E8", E8_GRID, fuse="on", seed=0, **E8_FIXED)
        traced = Session(cache=None, telemetry=TraceRecorder()).sweep(
            "E8", E8_GRID, fuse="on", seed=0, **E8_FIXED
        )
        assert _dicts(traced) == _dicts(silent)
