"""Measure one workload in a fresh process (started by ``run.py``).

Usage::

    python perfbench/worker.py --root CHECKOUT --workdir DIR --workload NAME
        --seed N --seconds S --trace 0|1 [--size full|tiny] [--setup-only]

``--setup-only`` times one set-up and exits.  Otherwise the worker repeats
the workload's pass until ``--seconds`` would be exceeded (at least two
passes, so every run checks that results and counts repeat), alternating
untraced and traced passes under ``--trace 1`` (there at least two pairs in
process, so the tracing overhead does not rest on one pair; the service's
passes are too long for more than one within the run's time limit).  It
prints one JSON object: ``{"setup_s": [...], "passes": [...]}``.
"""

# A terminal program: what it prints is the benchmark's report.
# ruff: noqa: T201

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
import time
import traceback

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calibration import SpeedSampler, probe_mean  # noqa: E402
from spans import (  # noqa: E402
    REPEAT_COUNTS,
    Instrumentation,
    SpanLog,
    layer_metrics,
    root_seconds,
    totals,
)
from workloads import (  # noqa: E402
    IN_PROCESS,
    IN_PROCESS_PASSES,
    WORKLOADS,
    server_setup_sample,
    service_pass,
)

MIN_PASSES = 2
MIN_TRACED_PASSES_IN_PROCESS = 4


def measure_setup(workload: str, seed: int, root: str, workdir: str) -> float:
    """In-process workloads: import plus a ready ``Session`` (numpy, which
    the speed probe loads first, is already imported).  The service:
    spawning the server until its first healthy ``/v1/health``.  Seconds at
    the reference host speed (see ``calibration.py``)."""
    if workload == "service_mixed":
        return server_setup_sample(root, workdir)
    with SpeedSampler(interrupt=False) as sampler:
        started = time.perf_counter()
        from repro.api import Session

        Session(seed=seed, cache=tempfile.mkdtemp(prefix="cache-", dir=workdir))
        seconds = time.perf_counter() - started
    return seconds * sampler.scale(seconds)


def one_pass(args, traced: bool, first: bool) -> dict:
    """One pass; its record carries the counts that must repeat exactly
    across passes (the service's come from ``/v1/metrics``)."""
    if args.workload == "service_mixed":
        record = service_pass(
            args.seed, args.size, args.workdir, args.root, traced=traced, check_inline=first
        )
        record["traced"] = traced
        return record
    log = SpanLog()
    with Instrumentation(log, layers=traced):
        # Under --trace 1 traced and untraced passes are compared, so both
        # are scaled alike: by probes just before and after the pass.
        record = IN_PROCESS_PASSES[args.workload](
            args.seed, args.size, args.workdir, interrupt=not args.trace
        )
    aggregate = totals(log)
    metrics = layer_metrics(aggregate)
    record["counts"].update((name, metrics[name]) for name in REPEAT_COUNTS)
    if traced:
        record["totals"] = aggregate
        record["unattributed_s"] = record["wall_s"] - root_seconds(
            log.spans, threading.get_ident()
        )
    record["traced"] = traced
    return record


def run_passes(args) -> dict:
    setup = []
    if args.workload in IN_PROCESS:
        setup.append(measure_setup(args.workload, args.seed, args.root, args.workdir))
        # One untimed pass on tiny inputs first: lazy imports and first-call
        # costs inside the program are then paid before the clock starts.
        IN_PROCESS_PASSES[args.workload](args.seed, "tiny", args.workdir)
    passes = []
    minimum = MIN_PASSES
    if args.trace and args.workload in IN_PROCESS:
        minimum = MIN_TRACED_PASSES_IN_PROCESS
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        try:
            record = one_pass(args, traced, first=not passes)
        except Exception:
            passes.append({
                "traced": traced,
                "attempted": 1,
                "jobs": 0,
                "latencies": [],
                "failures": [traceback.format_exc(limit=4)],
            })
            break
        passes.append(record)
        if record.get("server"):
            setup.append(record["server"]["setup_s"])
        elapsed = time.perf_counter() - started
        # Stop when one more pass of average length would overrun.
        if len(passes) >= minimum and elapsed * (1 + 1 / len(passes)) > args.seconds:
            break
    return {"setup_s": setup, "passes": passes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    # Untimed: the first probes in a fresh process run cache-cold and would
    # overstate the slowdown of whatever is measured first.
    probe_mean()
    if args.setup_only:
        report = {"setup_s": [measure_setup(args.workload, args.seed, args.root, args.workdir)]}
    else:
        report = run_passes(args)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
