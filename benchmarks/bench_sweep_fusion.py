"""Whole-sweep fusion — one mega-batched construction matrix per grid.

Benchmarks ``Session.sweep`` on an E2 ε grid whose points share a (seed,
size, trials) configuration: the fused path compiles the construction
matrix once and lowers every point's decision DAG against the shared code
matrix, where the per-point path (the grid's requests one by one through
``Session.run_many``) regenerates it for each point.  Bit-identity is the
contract — every fused result must equal its per-point result exactly, rows
and verdicts included — so this bench asserts equality on a small grid
before timing the fused pass.
(`bench_suite.py` guards the fused-vs-per-point speedup on the full
12-point grid with a ≥1× floor.)
"""

from conftest import run_once

from repro.analysis.sweep import grid_points
from repro.api import Session

GRID = {"eps_values": [[0.75], [0.65]]}
FIXED = dict(sizes=(60,), trials=200, decider_trials=60, seed=0, engine="auto")


def test_sweep_fusion_bit_identity(benchmark):
    # No record_experiment here: this bench's artifact is the timing plus the
    # exactness assertion, not a full-scale experiment table (writing one
    # would clobber results/e2.json with a small-grid point).
    session = Session(cache=None)
    per_point = session.run_many(
        [session.request("E2", **FIXED, **point) for point in grid_points(GRID)]
    )
    fused = run_once(benchmark, lambda: Session(cache=None).sweep("E2", GRID, **FIXED))
    assert fused.plan is not None and fused.plan.has_fusion
    assert [run.result.to_dict() for run in fused.reports] == [
        run.result.to_dict() for run in per_point
    ]
    for row in fused.table.rows:
        assert row["verdict"] == "pass"
