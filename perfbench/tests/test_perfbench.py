"""Tests of the benchmark itself: self-time accounting, the service job
plan, the metric declarations, the instrumentation, and a tiny run of
every workload through the one command."""

import json
import os
import subprocess
import sys
import threading

import pytest

from conftest import ROOT
from spans import Instrumentation, Span, SpanLog, covered_length, layer_metrics, self_times, totals
from workloads import CLIENTS, job_plan

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf8") as handle:
    BENCHMARK = json.load(handle)
with open(os.path.join(ROOT, "perfbench", "mapping.json"), encoding="utf8") as handle:
    MAPPING = json.load(handle)


# --------------------------------------------------------------------------- #
# Self time on a synthetic span tree
# --------------------------------------------------------------------------- #
def test_self_time_on_a_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping: they
    # cover [1, 6], 5 s) and c [8, 12] (clipped to the root: 2 s);
    # a has a grandchild g [2, 3].  Another thread has its own root.
    spans = [
        Span(0, "api.session", "root", None, 1, 0.0, 10.0),
        Span(1, "engine.construct", "a", 0, 1, 1.0, 4.0),
        Span(2, "engine.executor", "b", 0, 1, 3.0, 6.0),
        Span(3, "engine.executor", "c", 0, 1, 8.0, 12.0),
        Span(4, "engine.cache", "g", 1, 1, 2.0, 3.0),
        Span(5, "engine.cache", "other", None, 2, 0.0, 1.5),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[5] == pytest.approx(1.5)

    log = SpanLog()
    log.spans.extend(spans)
    aggregate = totals(log)
    assert aggregate["self_s"]["engine.executor"] == pytest.approx(7.0)
    assert aggregate["calls"]["engine.cache"] == 2


def test_self_times_of_a_nested_tree_add_up_to_its_root():
    spans = [
        Span(0, "api.session", "root", None, 1, 0.0, 10.0),
        Span(1, "harness", "run", 0, 1, 0.5, 9.5),
        Span(2, "engine.construct", "sample", 1, 1, 1.0, 4.0),
        Span(3, "engine.executor", "accept", 1, 1, 4.0, 9.0),
        Span(4, "engine.cache", "put", 0, 1, 9.6, 9.9),
    ]
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_covered_length_merges_and_clips():
    assert covered_length([(0, 2), (1, 3), (5, 6)], 0, 10) == pytest.approx(4.0)
    assert covered_length([(-1, 2), (9, 12)], 0, 10) == pytest.approx(3.0)
    assert covered_length([], 0, 10) == 0.0


def test_span_log_keeps_threads_apart():
    log = SpanLog()
    ready = threading.Barrier(2)

    def work():
        with log.span("engine.cache", "inner"):
            ready.wait(5)

    with log.span("api.session", "outer"):
        thread = threading.Thread(target=work)
        thread.start()
        ready.wait(5)
        thread.join(5)
    assert not thread.is_alive()
    inner = next(span for span in log.spans if span.name == "inner")
    assert inner.parent is None  # opened on another thread: its own root


# --------------------------------------------------------------------------- #
# The service job plan
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("seed", [0, 1, 961564])
def test_job_plan_shape(seed):
    plans = job_plan(seed, jobs_per_client=100)
    assert len(plans) == CLIENTS
    assert job_plan(seed, jobs_per_client=100) == plans
    kinds = [[item.kind for item in plan] for plan in plans]
    # Barrier duplicates sit at the same positions with the same request.
    for position in range(100):
        if any(kind[position] == "barrier" for kind in kinds):
            assert len({plan[position] for plan in plans}) == 1
            assert all(kind[position] == "barrier" for kind in kinds)
    for plan in plans:
        assert [item.kind for item in plan].count("barrier") == 29
        assert [item.kind for item in plan].count("warm") == 28
        cold_before = set()
        for item in plan:
            key = (item.experiment_id, item.seed)
            if item.kind == "warm":
                # Only from this client's own earlier cold items.
                assert key in cold_before
            if item.kind == "cold":
                cold_before.add(key)
    cold = [
        (item.experiment_id, item.seed) for plan in plans for item in plan if item.kind == "cold"
    ]
    barrier = {(item.experiment_id, item.seed) for item in plans[0] if item.kind == "barrier"}
    assert len(set(cold)) == len(cold)  # distinct requests
    assert not barrier & set(cold)


def test_job_plans_of_all_seeds_hold_the_same_mix_of_experiments():
    def mix(seed):
        return [
            sorted((item.kind, item.experiment_id) for item in plan if item.kind != "warm")
            for plan in job_plan(seed, jobs_per_client=100)
        ]

    assert mix(0) == mix(1) == mix(961564)
    assert job_plan(0) != job_plan(1)


# --------------------------------------------------------------------------- #
# Declarations
# --------------------------------------------------------------------------- #
def test_benchmark_json_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    bounds = {metric["name"]: metric["bound"] for metric in BENCHMARK["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert metric["better"] in ("lower", "higher")
    names = [metric["name"] for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))


def test_mapping_names_every_metric_and_workload():
    assert set(MAPPING["workloads"]) == {workload["name"] for workload in BENCHMARK["workloads"]}
    assert set(MAPPING["per_layer"]) == {metric["name"] for metric in BENCHMARK["per_layer"]}
    declared = {metric["name"] for metric in BENCHMARK["end_to_end"]}
    assert declared <= set(MAPPING["end_to_end"])
    workloads = set(MAPPING["workloads"])
    for name, entry in MAPPING["per_layer"].items():
        assert set(entry["on"]) <= workloads, name
        assert set(entry["moves"]) <= declared, name
        assert entry["layer"] in MAPPING["layers"] or entry["layer"] == "trace", name


def test_layer_metrics_cover_the_declared_per_layer_metrics():
    computed = set(layer_metrics({}))
    # Filled in by run.py from the service's /v1/metrics and the self-time
    # table rather than from the span totals.
    derived = {
        "jobs.executions", "jobs.dedup_ratio", "jobs.cache_hit_ratio", "jobs.execute_ratio",
        "jobs.queue_wait_mean_s", "jobs.execute_mean_s", "unattributed.self_s",
        "execute.self_share", "construct.self_share", "trace.overhead_ratio",
    }
    assert computed | derived == {metric["name"] for metric in BENCHMARK["per_layer"]}


# --------------------------------------------------------------------------- #
# Instrumentation
# --------------------------------------------------------------------------- #
def test_instrumentation_observes_only_and_cross_checks_program_counters():
    import repro.engine.executor as executor
    from repro.api import Session
    from repro.obs import TraceRecorder

    original = executor.accept_vector
    grid = {"eps_values": [[0.80], [0.70], [0.60]]}
    fixed = dict(sizes=(90,), trials=200, decider_trials=30, seed=3)
    plain = Session(seed=3, cache=None).sweep("E2", grid, **fixed)

    log = SpanLog()
    recorder = TraceRecorder()
    with Instrumentation(log):
        assert executor.accept_vector is not original
        traced = Session(seed=3, cache=None, telemetry=recorder).sweep("E2", grid, **fixed)
        Session(seed=3, cache=None, precision=0.05, telemetry=recorder).run(
            "E1", sizes=[9], selected_counts=[0, 1], trials=400
        )
    assert executor.accept_vector is original
    assert [run.result.to_dict() for run in traced.reports] == [
        run.result.to_dict() for run in plain.reports
    ]

    metrics = layer_metrics(totals(log))
    counters = recorder.counters
    assert metrics["fusion.hits"] == counters["engine.fuse_hits"] > 0
    assert metrics["fusion.misses"] == counters["engine.fuse_misses"] > 0
    assert metrics["stats.rounds"] == counters["stats.rounds"] > 0
    assert metrics["stats.trials_used"] == counters["stats.trials"] > 0
    assert metrics["construct.cells"] > 0 and metrics["execute.draws"] > 0


# --------------------------------------------------------------------------- #
# Exact-repeat checks
# --------------------------------------------------------------------------- #
def _pass(counts):
    return {
        "traced": False, "wall_s": 1.0, "scale": 1.0, "latencies": [0.5, 1.0], "jobs": 2,
        "attempted": 2, "failures": [], "digest": "d", "counts": counts,
    }


@pytest.mark.parametrize("drift", [False, True])
def test_a_count_drifting_between_passes_fails_the_run(monkeypatch, capsys, drift):
    import run

    second = {"fusion.hits": 44.0 + drift, "stats.rounds": 102.0}
    report = {"passes": [_pass({"fusion.hits": 44.0, "stats.rounds": 102.0}), _pass(second)]}
    monkeypatch.setattr(run, "collect", lambda args: ([0.1, 0.1], report, 1024, None))
    code = run.main(["--workload", "sweep_e2", "--seed", "0", "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == (1 if drift else 0)
    assert result["correct"] is not drift and result["failed"] == int(drift)


def test_untraced_passes_record_the_repeat_counts():
    from spans import REPEAT_COUNTS

    import repro.engine.executor as executor
    from repro.api import Session

    original = executor.accept_vector
    log = SpanLog()
    with Instrumentation(log, layers=False):
        assert executor.accept_vector is original  # no layer wrappers
        Session(seed=3, cache=None).sweep(
            "E2", {"eps_values": [[0.80], [0.70]]}, sizes=(90,), trials=200, decider_trials=30,
            seed=3,
        )
        Session(seed=3, cache=None, precision=0.05).run(
            "E1", sizes=[9], selected_counts=[0, 1], trials=400
        )
    metrics = layer_metrics(totals(log))
    assert all(metrics[name] > 0 for name in REPEAT_COUNTS)


# --------------------------------------------------------------------------- #
# The one command, at a tiny size
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [workload["name"] for workload in BENCHMARK["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == {
        metric["name"]: metric["unit"] for metric in declared
    }
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
        if not trace:
            assert entry["value"] > 0, name
        # Every metric also appears by name with its unit in the readable lines.
        assert any(line.split()[:1] == [name] for line in completed.stdout.splitlines()), name
