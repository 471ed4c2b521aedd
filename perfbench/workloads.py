"""The benchmark's workloads: one timed pass of fixed work each.

Every pass goes through the program's public surfaces at their defaults and
returns a JSON-able record: wall seconds, per-job latencies, a digest of the
results, the exact-repeat counts, and the failures its output checks found.
A *job* is one experiment result delivered to the caller; its latency runs
from the call (or HTTP submission) that asked for it to its delivery.

In-process workloads (``run_quick``, ``sweep_e2``, ``precision_e1e5``) call
:class:`repro.api.Session`.  ``service_mixed`` drives ``python -m repro
serve`` (on traced passes through ``serve.py``, which runs the CLI's serve
command unchanged under the span wrappers) with two closed-loop
:class:`repro.api.Client` threads over a job plan generated from the seed
(:func:`job_plan`).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.request
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from calibration import REFERENCE_S, SpeedSampler, probe_mean
from spans import SpanLog, merge_totals, root_seconds, totals

IN_PROCESS = ("run_quick", "sweep_e2", "precision_e1e5")
WORKLOADS = IN_PROCESS + ("service_mixed",)

#: The existing 12-point E2 ε grid over one shared configuration.
E2_GRID = (0.80, 0.78, 0.76, 0.74, 0.72, 0.70, 0.67, 0.66, 0.64, 0.61, 0.60, 0.59)

#: Fixed work per workload and size.  ``tiny`` keeps every code path of the
#: workload but finishes in about a second (the benchmark's own tests).
SIZES: Dict[str, Dict[str, Dict[str, object]]] = {
    "run_quick": {
        "full": {"experiments": ["all"]},
        "tiny": {"experiments": ["E1", "E4", "E10"]},
    },
    "sweep_e2": {
        "full": {"eps": E2_GRID, "sizes": (240,), "trials": 1200, "decider_trials": 30},
        "tiny": {"eps": (0.80, 0.70, 0.60), "sizes": (90,), "trials": 200, "decider_trials": 30},
    },
    "precision_e1e5": {
        "full": {"e1": {}, "e5": {"f_values": (1, 2)}},
        "tiny": {
            "e1": {"sizes": (9,), "selected_counts": (0, 1), "trials": 400},
            "e5": {"f_values": (1,), "n": 24, "trials": 400},
        },
    },
    "service_mixed": {
        "full": {"jobs_per_client": 100, "samples": 3},
        "tiny": {"jobs_per_client": 8, "samples": 1},
    },
}

#: Cheap experiments the service job stream draws from (quick preset).
CHEAP = ("E1", "E3", "E4", "E5", "E7", "E8", "E9", "E10")
#: Barrier duplicates use experiments that run for over 0.1 s, so the twin
#: submission (milliseconds later) always finds the job still in flight.
SLOW = ("E3", "E8", "E9")

CLIENTS = 2
#: Shares of each client's list that are barrier duplicates and warm
#: resubmissions; the rest are cold distinct requests.
BARRIER_SHARE = 0.29
WARM_SHARE = 0.28
#: Client-side limits: a stuck request or job counts as failed, never hangs.
HTTP_TIMEOUT_S = 20.0
JOB_TIMEOUT_S = 60.0
BARRIER_TIMEOUT_S = 60.0
PASS_TIMEOUT_S = 120.0
#: Each service pass runs in this many segments, with the same boundaries in
#: both clients' lists.  At a boundary both clients wait while the host's
#: speed is probed, so no probe competes with the program for the cores,
#: and each segment is scaled by the probes on either side of it.
SEGMENTS = 20

_TERMINAL_EVENTS = ("cached", "done", "failed")


def digest(payloads: Sequence[object]) -> str:
    """A digest of results, stable across runs of one seed."""
    text = json.dumps(payloads, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf8")).hexdigest()[:16]


def _record(
    wall: float, latencies: List[float], attempted: int, payloads, failures, scale: float
) -> dict:
    """A pass record: ``wall_s`` as measured, ``scale`` the factor that
    turns it into seconds at the reference host speed, ``latencies``
    already at that speed."""
    return {
        "wall_s": wall,
        "scale": scale,
        "latencies": latencies,
        "attempted": attempted,
        "jobs": len(latencies),
        "digest": digest(payloads),
        "failures": list(failures),
        "counts": {},
    }


# --------------------------------------------------------------------------- #
# In-process workloads
# --------------------------------------------------------------------------- #
def _timed(call: Callable, interrupt: bool) -> Tuple[object, float, List[float], float]:
    """Run ``call(progress)``; return its value, wall seconds, each job's
    latency from the start of the call to its ``done`` event (at the
    reference host speed), and the factor that scales wall seconds to that
    speed.  With ``interrupt`` the host is probed during the call too;
    without, only just before and after it (how traced passes and the
    passes they are compared with are scaled)."""
    done: List[float] = []

    def progress(event) -> None:
        if event.kind in ("done", "cached"):
            done.append(time.perf_counter())

    with SpeedSampler(interrupt=interrupt) as sampler:
        start = time.perf_counter()
        value = call(progress)
        wall = time.perf_counter() - start
    scale = sampler.scale(wall)
    return value, wall, [(moment - start) * scale for moment in done], scale


def _verdict_failures(labels_and_verdicts, require_green: bool) -> List[str]:
    if not require_green:
        return []
    return [
        f"{label}: verdict {verdict}"
        for label, verdict in labels_and_verdicts
        if verdict != "pass"
    ]


def run_quick_pass(seed: int, size: str, workdir: str, interrupt: bool = True) -> dict:
    """``Session(seed, cache=<fresh>).run_all(preset="quick")`` — a first
    ``python -m repro run all --quick``."""
    from repro.api import Session

    work = SIZES["run_quick"][size]
    session = Session(seed=seed, cache=tempfile.mkdtemp(prefix="cache-", dir=workdir))
    if work["experiments"] == ["all"]:
        call = lambda progress: session.run_all(preset="quick", progress=progress)  # noqa: E731
    else:
        call = lambda progress: session.run_selection(  # noqa: E731
            work["experiments"], preset="quick", progress=progress
        )
    reports, wall, latencies, scale = _timed(call, interrupt)
    # Red verdicts at a random seed are statistical outcomes, not failed
    # operations; seed 0 is the CI smoke configuration and must be green.
    failures = _verdict_failures(
        [(report.experiment_id, report.result.verdict) for report in reports], seed == 0
    )
    return _record(
        wall, latencies, len(reports), [report.result.to_dict() for report in reports], failures,
        scale,
    )


def sweep_e2_pass(seed: int, size: str, workdir: str, interrupt: bool = True) -> dict:
    """The E2 ε grid through ``Session.sweep`` at its defaults (fusion and
    engine ``auto``), every point on one shared seed."""
    from repro.api import Session

    work = SIZES["sweep_e2"][size]
    session = Session(seed=seed, cache=tempfile.mkdtemp(prefix="cache-", dir=workdir))
    grid = {"eps_values": [[eps] for eps in work["eps"]]}
    report, wall, latencies, scale = _timed(
        lambda progress: session.sweep(
            "E2",
            grid,
            progress=progress,
            sizes=work["sizes"],
            trials=work["trials"],
            decider_trials=work["decider_trials"],
            seed=seed,
        ),
        interrupt,
    )
    failures = _verdict_failures(
        [(f"E2 eps={eps}", run.result.verdict) for eps, run in zip(work["eps"], report.reports)],
        seed == 0,
    )
    if report.plan is None:
        failures.append("sweep ran point by point: fusion did not engage")
    return _record(
        wall, latencies, len(grid["eps_values"]), [run.result.to_dict() for run in report.reports],
        failures, scale,
    )


def precision_pass(seed: int, size: str, workdir: str, interrupt: bool = True) -> dict:
    """``Session(seed, precision=0.01)``: E1 at its full preset and E5 at
    f ∈ {1, 2} (the f ≥ 4 rows are unresolved by design), so adaptive
    stopping decides how many trials run."""
    from repro.api import Session

    work = SIZES["precision_e1e5"][size]
    session = Session(
        seed=seed, precision=0.01, cache=tempfile.mkdtemp(prefix="cache-", dir=workdir)
    )
    requests = [session.request("E1", **work["e1"]), session.request("E5", **work["e5"])]
    reports, wall, latencies, scale = _timed(
        lambda progress: session.run_many(requests, progress=progress), interrupt
    )
    return _record(
        wall, latencies, len(requests), [report.result.to_dict() for report in reports], [], scale
    )


IN_PROCESS_PASSES = {
    "run_quick": run_quick_pass,
    "sweep_e2": sweep_e2_pass,
    "precision_e1e5": precision_pass,
}


# --------------------------------------------------------------------------- #
# service_mixed: the job plan
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class PlanItem:
    """One submission: ``cold`` (a distinct request), ``barrier`` (the same
    request in every client's list at the same position, submitted together
    after a barrier), or ``warm`` (a resubmission of one of this client's
    earlier, finished cold requests)."""

    kind: str
    experiment_id: str
    seed: int


def _mix(rng: random.Random, experiments: Sequence[str], count: int) -> List[str]:
    """``count`` experiment ids using each of ``experiments`` equally often
    (the first ones once more when ``count`` does not divide evenly), in a
    seeded order."""
    mix = [experiments[index % len(experiments)] for index in range(count)]
    rng.shuffle(mix)
    return mix


def job_plan(seed: int, jobs_per_client: int = 100) -> List[List[PlanItem]]:
    """Each client's job list, generated from ``seed``.

    Every seed asks for the same mix of experiments; the seed picks their
    order, the request seeds and the positions of each kind.  So passes of
    different seeds hold the same amount of work, and the spread over seeds
    measures the program, not the draw of cheap against slow experiments.

    Barrier items sit at the same positions in every list, so the clients
    meet at each barrier in the same order.  Warm items are drawn only from
    the client's own earlier cold items, never from barrier items: a warm
    repeat of a barrier item would make one client wait at a barrier alone.
    """
    rng = random.Random(seed)
    n_barrier = round(jobs_per_client * BARRIER_SHARE)
    n_warm = round(jobs_per_client * WARM_SHARE)
    request_seeds = iter(rng.sample(range(1, 2**31 - 1), CLIENTS * jobs_per_client))
    # Position 0 is always a cold item, so every warm item has a predecessor.
    positions = list(range(1, jobs_per_client))
    barrier_at = set(rng.sample(positions, n_barrier))
    slow = iter(_mix(rng, SLOW, n_barrier))
    barrier_items = {
        position: PlanItem("barrier", next(slow), next(request_seeds))
        for position in sorted(barrier_at)
    }
    plans = []
    for _ in range(CLIENTS):
        free = [position for position in positions if position not in barrier_at]
        warm_at = set(rng.sample(free, n_warm))
        cheap = iter(_mix(rng, CHEAP, len(free) + 1 - n_warm))
        cold: List[PlanItem] = []
        items: List[PlanItem] = []
        for position in range(jobs_per_client):
            if position in barrier_at:
                items.append(barrier_items[position])
            elif position in warm_at:
                original = rng.choice(cold)
                items.append(PlanItem("warm", original.experiment_id, original.seed))
            else:
                item = PlanItem("cold", next(cheap), next(request_seeds))
                cold.append(item)
                items.append(item)
        plans.append(items)
    return plans


# --------------------------------------------------------------------------- #
# service_mixed: the server process
# --------------------------------------------------------------------------- #
class Server:
    """One ``python -m repro serve --port 0`` child on a fresh cache.  With
    ``traced`` it starts through ``serve.py`` instead, which records the
    layer spans and writes their totals on shutdown (:meth:`report`)."""

    def __init__(self, root: str, workdir: str, traced: bool = False) -> None:
        self.root = root
        self.workdir = tempfile.mkdtemp(prefix="server-", dir=workdir)
        self.traced = traced
        self.report_path = os.path.join(self.workdir, "report.json")
        self.process: Optional[subprocess.Popen] = None
        self.url = ""
        self.setup_s = 0.0  # at the reference host speed (see calibration.py)
        self.rss_kb = 0

    def start(self, timeout: float = 60.0) -> "Server":
        with SpeedSampler(interrupt=False) as sampler:
            self._start(timeout)
        self.setup_s *= sampler.scale(self.setup_s)
        return self

    def _start(self, timeout: float) -> None:
        launcher = (
            [os.path.join(self.root, "perfbench", "serve.py"), "--out", self.report_path]
            if self.traced
            else ["-m", "repro"]
        )
        command = [
            sys.executable, *launcher,
            "serve", "--port", "0", "--cache-dir", os.path.join(self.workdir, "cache"),
        ]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        started = time.perf_counter()
        with open(os.path.join(self.workdir, "stderr.log"), "wb") as stderr:
            self.process = subprocess.Popen(
                command, cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=stderr
            )
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        line = self.process.stdout.readline().decode("utf8").strip() if ready else ""
        if not line.startswith("repro service listening on "):
            self.stop()
            raise RuntimeError(f"server did not announce itself: {line!r}")
        self.url = line.rsplit(" ", 1)[-1]
        deadline = started + timeout
        while True:
            try:
                with urllib.request.urlopen(f"{self.url}/v1/health", timeout=5.0) as response:
                    if response.status == 200:
                        break
            except OSError:
                if time.perf_counter() > deadline:
                    self.stop()
                    raise
                time.sleep(0.005)
        self.setup_s = time.perf_counter() - started

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain), then reap the child with ``wait4`` for
        its peak RSS; SIGKILL if the drain overruns ``timeout``."""
        process = self.process
        if process is None or process.returncode is not None:
            return
        process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(process.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                process.kill()
                pid, status, usage = os.wait4(process.pid, 0)
                break
            time.sleep(0.01)
        process.returncode = os.waitstatus_to_exitcode(status)
        process.stdout.close()
        self.rss_kb = int(usage.ru_maxrss)

    def report(self) -> Dict[str, object]:
        """What ``serve.py`` wrote on shutdown."""
        with open(self.report_path, encoding="utf8") as handle:
            return json.load(handle)


def server_setup_sample(root: str, workdir: str) -> float:
    """Seconds from spawning a server to its first healthy ``/v1/health``."""
    server = Server(root, workdir).start()
    server.stop()
    return server.setup_s


# --------------------------------------------------------------------------- #
# service_mixed: the closed-loop clients
# --------------------------------------------------------------------------- #
def _span(log: Optional[SpanLog], name: str):
    return log.span("service.http", name) if log is not None else nullcontext()


def _run_job(client, item: PlanItem, log: Optional[SpanLog], deadline: float) -> Dict[str, object]:
    """Submit one plan item and return its wire result record, following
    the job's events when it is not already terminal (``Client.run``'s
    sequence, with each HTTP call timed)."""
    request = client.request(item.experiment_id, preset="quick", seed=item.seed)
    with _span(log, "submit"):
        job = client.submit(request)
    if not job.terminal:
        with _span(log, "events"):
            for event in client.stream(job.id):
                if event.get("event") in _TERMINAL_EVENTS:
                    break
                if time.monotonic() > deadline:
                    raise TimeoutError(f"job {job.id} not terminal after {JOB_TIMEOUT_S}s")
        with _span(log, "status"):
            state = client.status(job.id)["state"]
    else:
        state = job.state
    if state != "done":
        raise RuntimeError(f"job {job.id} ended {state!r}")
    with _span(log, "result"):
        return client.result_record(job.id)


class Checkpoint:
    """The segment boundaries of a service pass.  Every client thread and
    the main thread meet at ``arrive``; the main thread then probes the host
    while the clients wait; all meet again at ``release`` and the next
    segment starts."""

    def __init__(self, clients: int, length: int) -> None:
        self.length = length  # plan positions per segment
        self.arrive = threading.Barrier(clients + 1)
        self.release = threading.Barrier(clients + 1)

    def wait(self) -> None:
        self.arrive.wait(timeout=BARRIER_TIMEOUT_S)
        self.release.wait(timeout=BARRIER_TIMEOUT_S)

    def abort(self) -> None:
        self.arrive.abort()
        self.release.abort()


def _client_loop(
    url: str,
    plan: Sequence[PlanItem],
    barrier: threading.Barrier,
    checkpoint: Checkpoint,
    log: Optional[SpanLog],
    pass_deadline: float,
    out: Dict[str, object],
) -> None:
    from repro.api import Client

    client = Client(url, timeout=HTTP_TIMEOUT_S, retries=2)
    latencies: List[Tuple[int, float]] = []  # (segment, seconds)
    payloads: List[Optional[str]] = []
    failures: List[str] = []
    started = time.perf_counter()
    paused = 0.0
    for position, item in enumerate(plan):
        if position and position % checkpoint.length == 0:
            arrived = time.perf_counter()
            try:
                checkpoint.wait()
            except threading.BrokenBarrierError:
                failures.append(f"position {position}: segment checkpoint broken")
                payloads.extend([None] * (len(plan) - position))
                break
            paused += time.perf_counter() - arrived
        if time.monotonic() > pass_deadline:
            failures.append(f"position {position}: pass deadline passed")
            payloads.append(None)
            continue
        try:
            if item.kind == "barrier":
                barrier.wait(timeout=BARRIER_TIMEOUT_S)
            submitted = time.perf_counter()
            record = _run_job(client, item, log, time.monotonic() + JOB_TIMEOUT_S)
            latencies.append((position // checkpoint.length, time.perf_counter() - submitted))
            payloads.append(json.dumps(record["result"], sort_keys=True))
        except Exception as error:  # every failure is counted, none is fatal
            failures.append(f"position {position} ({item.kind} {item.experiment_id}): {error!r}")
            payloads.append(None)
    out.update(
        latencies=latencies,
        payloads=payloads,
        failures=failures,
        thread=threading.get_ident(),
        wall_s=time.perf_counter() - started - paused,
    )


def _service_counts(url: str) -> Dict[str, float]:
    with urllib.request.urlopen(f"{url}/v1/metrics", timeout=HTTP_TIMEOUT_S) as response:
        metrics = json.loads(response.read().decode("utf8"))
    counters = metrics.get("counters", {})
    spans = metrics.get("spans", {})

    def mean_wall(name: str) -> float:
        entry = spans.get(name, {})
        return entry["wall_seconds"] / entry["count"] if entry.get("count") else 0.0

    return {
        "submissions": counters.get("service.submissions", 0),
        "executions": counters.get("service.executions", 0),
        "deduplicated": counters.get("service.deduplicated", 0),
        "cache_hits": counters.get("service.cache_hits", 0),
        "queue_wait_mean_s": mean_wall("service.queue_wait"),
        "execute_mean_s": mean_wall("service.execute"),
    }


def _check_payloads(plans, outcomes) -> List[str]:
    """Identical requests must get byte-identical payloads: the barrier
    twins across clients, and each warm item against its cold original."""
    failures = []
    first = {}
    for client, (plan, outcome) in enumerate(zip(plans, outcomes)):
        for position, (item, payload) in enumerate(zip(plan, outcome["payloads"])):
            if payload is None:
                continue
            key = (item.experiment_id, item.seed)
            if key in first and first[key] != payload:
                failures.append(
                    f"client {client} position {position}: payload differs from the "
                    f"earlier identical request {key}"
                )
            first.setdefault(key, payload)
    return failures


def _check_inline(plans, outcomes, seed: int, samples: int) -> List[str]:
    """A seeded sample of served results must equal inline ``Session.run``."""
    from repro.api import Session

    served = [
        (item, payload)
        for plan, outcome in zip(plans, outcomes)
        for item, payload in zip(plan, outcome["payloads"])
        if item.kind == "cold" and payload is not None
    ]
    failures = []
    for item, payload in random.Random(seed).sample(served, min(samples, len(served))):
        inline = Session(cache=None).run(item.experiment_id, preset="quick", seed=item.seed)
        if json.dumps(inline.result.to_dict(), sort_keys=True) != payload:
            failures.append(f"{item.experiment_id} seed {item.seed}: service result != inline run")
    return failures


def service_pass(
    seed: int, size: str, workdir: str, root: str, traced: bool, check_inline: bool
) -> dict:
    """200 quick-preset jobs from two closed-loop clients against a fresh
    server, in :data:`SEGMENTS` segments; returns the pass record plus the
    server's setup, RSS and (when traced) layer totals.

    The host is probed only while neither the program nor the clients run:
    before the server starts, at each segment boundary, and after the server
    stops.  Probes taken while jobs run would compete with the server for
    the cores, and the measured slowdown would then move with the program's
    own load."""
    work = SIZES["service_mixed"][size]
    plans = job_plan(seed, jobs_per_client=int(work["jobs_per_client"]))
    length = -(-len(plans[0]) // SEGMENTS)
    log = SpanLog() if traced else None
    barrier = threading.Barrier(len(plans))
    checkpoint = Checkpoint(len(plans), length)
    outcomes: List[Dict[str, object]] = [{} for _ in plans]
    walls: List[float] = []  # seconds of each segment
    probes = [probe_mean()]  # mean probe seconds at each segment boundary
    server = Server(root, workdir, traced=traced).start()
    try:
        deadline = time.monotonic() + PASS_TIMEOUT_S
        threads = [
            threading.Thread(
                target=_client_loop,
                args=(server.url, plan, barrier, checkpoint, log, deadline, outcome),
                name=f"perfbench-client-{index}",
            )
            for index, (plan, outcome) in enumerate(zip(plans, outcomes))
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for _ in range(1, -(-len(plans[0]) // length)):
            try:
                checkpoint.arrive.wait(timeout=PASS_TIMEOUT_S)
                walls.append(time.perf_counter() - start)
                probes.append(probe_mean())
                start = time.perf_counter()
                checkpoint.release.wait(timeout=BARRIER_TIMEOUT_S)
            except threading.BrokenBarrierError:
                checkpoint.abort()
                break
        for thread in threads:
            thread.join(PASS_TIMEOUT_S + BARRIER_TIMEOUT_S)
        walls.append(time.perf_counter() - start)
        stuck = [thread for thread in threads if thread.is_alive()]
        if stuck:
            barrier.abort()
            checkpoint.abort()
        counts = _service_counts(server.url)
    finally:
        server.stop()
    probes.append(probe_mean())
    for thread in stuck:  # released by the aborts and the closed server
        thread.join(HTTP_TIMEOUT_S * 3)

    # Each segment at the reference speed: divided by the mean slowdown of
    # the probes on either side of it.
    factors = [
        2 * REFERENCE_S / (before + after) for before, after in zip(probes, probes[1:])
    ]
    failures: List[str] = [f"{thread.name} did not finish in time" for thread in stuck]
    for outcome in outcomes:
        failures.extend(outcome.get("failures", ["client produced no outcome"]))
    failures.extend(_check_payloads(plans, outcomes))
    if check_inline:
        failures.extend(_check_inline(plans, outcomes, seed, int(work["samples"])))
    latencies = [
        seconds * factors[min(segment, len(factors) - 1)]
        for outcome in outcomes
        for segment, seconds in outcome.get("latencies", [])
    ]
    payloads = [outcome.get("payloads", []) for outcome in outcomes]
    wall = sum(walls)
    record = _record(
        wall, latencies, sum(len(plan) for plan in plans), payloads, failures,
        sum(seconds * factor for seconds, factor in zip(walls, factors)) / wall,
    )
    record["counts"] = {
        name: counts[name] for name in ("submissions", "executions", "deduplicated", "cache_hits")
    }
    record["service"] = counts
    record["server"] = {"setup_s": server.setup_s, "rss_kb": server.rss_kb}
    if log is not None:
        # Client threads: time outside their HTTP calls (barrier waits,
        # request building, checks) is the unattributed remainder.
        record["totals"] = merge_totals([server.report()["totals"], totals(log)])
        record["unattributed_s"] = sum(
            outcome.get("wall_s", 0.0) - root_seconds(log.spans, outcome.get("thread"))
            for outcome in outcomes
        )
    shutil.rmtree(server.workdir, ignore_errors=True)
    return record
