"""Throughput of the repro.engine batched Monte-Carlo path vs. the legacy loop.

Measures trials/second of ``Decider.acceptance_probability`` on a 200-node
cycle for the paper's two randomized deciders, comparing

* ``engine="off"``  — the reference pure-Python per-node voting loop,
* ``engine="exact"`` — the engine reproducing the reference coins bit for
  bit (the counter-based reference tapes, computed as one array operation).

The acceptance criterion of the engine subsystem is a ≥ 10× speedup of the
engine path over the legacy path on this workload; the engine is typically
one to two orders of magnitude faster.

Run standalone (``python benchmarks/bench_engine_throughput.py``) for the
table, or under pytest for the assertions.
"""

from __future__ import annotations

import gc
import time

from repro.core.decision import AmosDecider, ResilientDecider
from repro.core.languages import SELECTED, Configuration
from repro.core.lcl import ProperColoring
from repro.graphs.families import cycle_network

N = 200
LEGACY_TRIALS = 300
ENGINE_TRIALS = 300
REQUIRED_SPEEDUP = 10.0


def _amos_workload():
    network = cycle_network(N)
    nodes = network.nodes()
    selected = {nodes[0], nodes[N // 2]}
    configuration = Configuration(
        network, {node: (SELECTED if node in selected else "") for node in nodes}
    )
    return AmosDecider(), configuration


def _resilient_workload():
    network = cycle_network(N)
    nodes = network.nodes()
    colors = {node: (index % 3) + 1 for index, node in enumerate(nodes)}
    for index in (0, N // 2):  # two conflicting edges -> four bad balls
        colors[nodes[index]] = colors[nodes[index + 1]]
    configuration = Configuration(network, colors)
    return ResilientDecider(ProperColoring(3), f=2), configuration


def _throughput(decider, configuration, engine, trials):
    """(trials/second, estimate) for one acceptance_probability call.

    Includes the engine's compile step, i.e. measures end-to-end cost of the
    call a user makes; a warm-up call absorbs one-off import costs, and a
    collection first clears the garbage of the previous measurement (the
    legacy loop's tapes), so its cost is not charged to this one.
    """
    gc.collect()
    decider.acceptance_probability(configuration, trials=10, seed=1, engine=engine)
    start = time.perf_counter()
    estimate = decider.acceptance_probability(
        configuration, trials=trials, seed=1, engine=engine
    )
    elapsed = time.perf_counter() - start
    return trials / elapsed, estimate


def measure_all():
    """Rows of (workload, engine, trials/s, speedup vs legacy, estimate)."""
    rows = []
    for label, (decider, configuration) in (
        ("amos", _amos_workload()),
        ("resilient", _resilient_workload()),
    ):
        legacy_tps, legacy_estimate = _throughput(
            decider, configuration, "off", LEGACY_TRIALS
        )
        rows.append((label, "off", legacy_tps, 1.0, legacy_estimate))
        tps, estimate = _throughput(decider, configuration, "exact", ENGINE_TRIALS)
        rows.append((label, "exact", tps, tps / legacy_tps, estimate))
    return rows


def test_engine_throughput_at_least_10x(capsys):
    rows = measure_all()
    with capsys.disabled():
        print()
        _print_table(rows)
    by_key = {(workload, engine): speedup for workload, engine, _tps, speedup, _est in rows}
    for workload in ("amos", "resilient"):
        assert by_key[(workload, "exact")] >= REQUIRED_SPEEDUP, (
            f"{workload}: engine speedup {by_key[(workload, 'exact')]:.1f}x "
            f"below the required {REQUIRED_SPEEDUP}x"
        )


def test_engine_estimates_match_legacy_bit_for_bit():
    """The engine must return the identical estimate (same coins);
    see tests/engine for the per-trial equivalence suite."""
    for decider, configuration in (_amos_workload(), _resilient_workload()):
        legacy = decider.acceptance_probability(
            configuration, trials=150, seed=3, engine="off"
        )
        exact = decider.acceptance_probability(
            configuration, trials=150, seed=3, engine="exact"
        )
        assert legacy == exact


def _print_table(rows):
    print(f"engine throughput on the {N}-node cycle "
          f"({LEGACY_TRIALS} legacy / {ENGINE_TRIALS} engine trials)")
    print(f"{'workload':<12}{'engine':<8}{'trials/s':>12}{'speedup':>10}{'estimate':>10}")
    for workload, engine, tps, speedup, estimate in rows:
        print(f"{workload:<12}{engine:<8}{tps:>12.0f}{speedup:>9.1f}x{estimate:>10.4f}")


if __name__ == "__main__":
    measured = measure_all()
    _print_table(measured)
    below = [
        (workload, engine, speedup)
        for workload, engine, _tps, speedup, _est in measured
        if engine != "off" and speedup < REQUIRED_SPEEDUP
    ]
    if below:
        raise SystemExit(f"engine speedup below {REQUIRED_SPEEDUP}x: {below}")
