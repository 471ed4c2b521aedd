"""The default-path benchmark: one command, one workload per invocation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: ``run_quick``, ``sweep_e2``, ``service_mixed``, ``precision_e1e5``
(see ``perfbench/mapping.json`` for why each exists).  The run

1. imports the program once untimed, so byte-compilation is never measured;
2. times set-up several times in fresh processes and reports the median;
3. runs the workload in a fresh worker process (``worker.py``) for about
   ``--seconds``, repeating its fixed work, and reads the worker's peak RSS;
4. checks the outputs: required verdicts green, results and exact counts
   repeating across the passes of one seed, service payloads identical for
   identical requests and equal to inline runs;
5. prints every metric by name with its unit, then, as the last line, one
   JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding the
   end-to-end metrics (``--trace 0``) or the per-layer metrics
   (``--trace 1``) named in ``BENCHMARK.json``.

It exits 1 when a check fails and 2 when the checkout holds no program.
Everything it writes lives under ``.perfbench-work/`` in the checkout and
is removed on exit.
"""

# A terminal program: what it prints is the benchmark's report.
# ruff: noqa: T201

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from spans import LAYERS, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-up samples per run, besides those the workload itself takes.
SETUP_SAMPLES = 4
#: Hard limit on the whole run (the contract allows 180 s).
RUN_LIMIT_S = 170.0


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = (len(ordered) - 1) * q
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def spawn_worker(arguments, workdir: str, timeout: float):
    """Run ``worker.py`` to completion; return (its JSON report or None,
    its peak RSS in KiB, a failure message or None).  The worker leads its
    own process group, so a timeout also stops any server it started."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    out_path = os.path.join(workdir, f"worker-{time.monotonic_ns()}.out")
    err_path = out_path[:-4] + ".err"
    command = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
               "--workdir", workdir, *arguments]
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=out, stderr=err, start_new_session=True
        )
    deadline = time.monotonic() + timeout
    timed_out = False
    while True:
        pid, status, usage = os.wait4(process.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            timed_out = True
            os.killpg(process.pid, signal.SIGKILL)
            pid, status, usage = os.wait4(process.pid, 0)
            break
        time.sleep(0.02)
    process.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf8") as handle:
        lines = handle.read().strip().splitlines()
    with open(err_path, encoding="utf8", errors="replace") as handle:
        stderr = handle.read().strip()
    if timed_out:
        return None, usage.ru_maxrss, f"worker timed out after {timeout:.0f}s"
    if process.returncode != 0 or not lines:
        return None, usage.ru_maxrss, f"worker exited {process.returncode}: {stderr[-2000:]}"
    return json.loads(lines[-1]), usage.ru_maxrss, None


def repeat_failures(passes) -> list:
    """Results and counts must repeat exactly across the passes of one seed:
    a drift is a bug, not noise."""
    failures = []
    digests = {record["digest"] for record in passes if "digest" in record}
    if len(digests) > 1:
        failures.append(f"result digests differ across passes of one seed: {sorted(digests)}")
    keys = {key for record in passes for key in record.get("counts", {})}
    for key in sorted(keys):
        seen = {record["counts"][key] for record in passes if key in record.get("counts", {})}
        if len(seen) > 1:
            failures.append(f"count {key} differs across passes of one seed: {sorted(seen)}")
    return failures


def end_to_end(report, setup, rss_kb, workload):
    """Every timing is taken per pass and scaled to the reference host
    speed by the pass's own speed probes (``calibration.py``).  Pass times
    are reported as the median over the untraced passes, so one slow pass
    moves no metric; latency quantiles are taken over the latencies of all
    untraced passes together, so the tail has as many samples as the run."""
    passes = [record for record in report["passes"] if not record["traced"] and "wall_s" in record]
    latencies = [value for record in passes for value in record["latencies"]]

    def median_of(per_pass):
        return statistics.median(per_pass(record) for record in passes)

    if workload == "service_mixed":
        rss_kb = median_of(lambda record: record["server"]["rss_kb"])
    return {
        "setup_s": statistics.median(setup),
        "run_s": median_of(lambda record: record["wall_s"] * record["scale"]),
        "jobs_per_s": median_of(
            lambda record: record["jobs"] / (record["wall_s"] * record["scale"])
        ),
        "job_latency_p50_s": quantile(latencies, 0.50),
        "job_latency_p95_s": quantile(latencies, 0.95),
        "peak_rss_mb": rss_kb / 1024.0,
    }, {
        "pass walls, unscaled (s)": " ".join(f"{record['wall_s']:.3f}" for record in passes),
        "host slowdown per pass": " ".join(f"{1 / record['scale']:.3f}" for record in passes),
        "latency samples per pass": " ".join(str(len(record["latencies"])) for record in passes),
        "set-up samples (s)": " ".join(f"{value:.3f}" for value in setup),
    }


def _service_layer(record) -> dict:
    counts = record.get("service")
    if not counts:
        return {}
    submissions = counts["submissions"] or 1
    return {
        "jobs.executions": counts["executions"],
        "jobs.dedup_ratio": counts["deduplicated"] / submissions,
        "jobs.cache_hit_ratio": counts["cache_hits"] / submissions,
        "jobs.execute_ratio": counts["executions"] / submissions,
        "jobs.queue_wait_mean_s": counts["queue_wait_mean_s"],
        "jobs.execute_mean_s": counts["execute_mean_s"],
    }


def per_layer(report, names):
    """Medians over the traced passes of every per-layer metric, the
    self-time table, and the traced/untraced overhead."""
    traced = [record for record in report["passes"] if record["traced"] and "totals" in record]
    rows = []
    tables = []
    for record in traced:
        metrics = layer_metrics(record["totals"])
        metrics.update(_service_layer(record))
        self_s = {layer: record["totals"]["self_s"].get(layer, 0.0) for layer in LAYERS}
        self_s["unattributed"] = max(0.0, record["unattributed_s"])
        total = sum(self_s.values()) or 1.0
        metrics["unattributed.self_s"] = self_s["unattributed"]
        metrics["execute.self_share"] = self_s.get("engine.executor", 0.0) / total
        metrics["construct.self_share"] = self_s.get("engine.construct", 0.0) / total
        rows.append(metrics)
        tables.append(self_s)
    # Each traced pass against the untraced pass just before it, both scaled
    # by the probes taken just before and after them: host drift between
    # passes then moves neither side of a pair.
    passes = report["passes"]
    ratios = [
        (after["wall_s"] * after["scale"]) / (before["wall_s"] * before["scale"])
        for before, after in zip(passes, passes[1:])
        if not before["traced"] and after["traced"] and "wall_s" in before and "wall_s" in after
    ]
    overhead = statistics.median(ratios)
    values = {}
    for name in names:
        if name == "trace.overhead_ratio":
            values[name] = overhead
        else:
            values[name] = statistics.median(row.get(name, 0.0) for row in rows)
    table = {
        layer: statistics.median(entry.get(layer, 0.0) for entry in tables)
        for layer in LAYERS + ("unattributed",)
    }
    notes = {"overhead pass pairs": " ".join(f"{ratio:.3f}" for ratio in ratios)}
    return values, table, notes


def collect(args):
    """Warm the byte-code, time set-up in fresh processes, run the worker.
    Returns (set-up samples, the worker's report, its peak RSS in KiB, a
    failure message or None)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    setup, report, rss_kb = [], None, 0
    try:
        # Untimed: byte-compiles the program once, so no sample pays for it.
        try:
            warm = subprocess.run(
                [sys.executable, "-c",
                 "import repro.api, repro.harness.experiments, repro.service"],
                cwd=ROOT, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                capture_output=True, text=True, timeout=60,
            )
            failure = f"import failed: {warm.stderr[-2000:]}" if warm.returncode else None
        except subprocess.TimeoutExpired:
            failure = "import timed out"
        for _ in range(SETUP_SAMPLES if not failure else 0):
            sample, _, failure = spawn_worker(
                [*common, "--seconds", "0", "--setup-only"], workdir,
                min(60.0, deadline - time.monotonic()),
            )
            if failure:
                failure = f"set-up: {failure}"
                break
            setup.extend(sample["setup_s"])
        if not failure:
            report, rss_kb, failure = spawn_worker(
                [*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                workdir, deadline - time.monotonic(),
            )
            if report is not None:
                setup.extend(report["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass
    return setup, report, rss_kb, failure


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="The default-path benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the same code paths on minimal inputs (for tests)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to benchmark: {ROOT}/src/repro is missing", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf8") as handle:
        declared = json.load(handle)
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["per_layer" if args.trace else "end_to_end"]
    }

    setup, report, rss_kb, failure = collect(args)
    attempted, failures = 1, [failure] if failure else []
    metrics, notes, table = {}, {}, {}
    if report is not None:
        passes = report["passes"]
        attempted = sum(record["attempted"] for record in passes)
        for record in passes:
            failures.extend(record["failures"])
        failures.extend(repeat_failures(passes))
        try:
            if args.trace:
                metrics, table, notes = per_layer(report, list(units))
            else:
                metrics, notes = end_to_end(report, setup, rss_kb, args.workload)
        except (statistics.StatisticsError, ValueError, ZeroDivisionError, KeyError) as error:
            failures.append(f"no complete pass to measure: {error!r}")
    failed = min(len(failures), attempted)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, value in notes.items():
        print(f"  {name:<28} {value}")
    for name, value in metrics.items():
        print(f"  {name:<28} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"  {'failed_ratio':<28} {failed / max(attempted, 1):.6g} ratio"
              f"  ({failed} failed of {attempted} attempted)")
    if table:
        total = sum(table.values()) or 1.0
        print("  self time by layer (median of traced passes):")
        for layer, seconds in sorted(table.items(), key=lambda item: -item[1]):
            print(f"    {layer:<20} {seconds:9.4f} s  {100 * seconds / total:5.1f}%")
    for message in failures:
        print(f"  FAILED: {message}")
    print(json.dumps({
        "correct": not failures,
        "attempted": int(attempted),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0 if not failures else 1


if __name__ == "__main__":
    raise SystemExit(main())
