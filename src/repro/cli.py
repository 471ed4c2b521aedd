"""Command-line interface: a thin client of :class:`repro.api.Session`.

Usage::

    python -m repro list
    python -m repro run E1 E3 --output-dir results/
    python -m repro run all --quick --parallel 2 --seed 7
    python -m repro run E5 --engine off --no-cache
    python -m repro run all --quick --trace trace.jsonl --metrics
    python -m repro cache stats
    python -m repro serve --port 8765
    python -m repro check --format json
    python -m repro report --results results/ --output EXPERIMENTS.md

``run`` resolves the selected experiments of DESIGN.md's index against the
spec registry (:data:`repro.harness.registry.REGISTRY`), executes them
through a :class:`~repro.api.Session`, prints their tables, and optionally
writes the JSON artifacts; ``report`` renders a directory of artifacts into
the EXPERIMENTS.md format.  ``list`` prints each spec's parameter schema,
quick preset, and capability tags.  ``cache`` inspects (``stats``) or empties
(``clear``) the on-disk result cache without running anything.  ``serve``
starts the long-running experiment service (:mod:`repro.service`) —
single-flight deduplicating job server with SSE progress streaming; pair it
with :class:`repro.api.Client`.  ``--journal-dir`` makes the service
crash-safe (accepted jobs survive a kill and replay on restart), and
``--job-timeout``/``--max-retries``/``--max-queue`` configure execution
deadlines, retry budgets, and admission control.

Every knob is session configuration, not CLI logic: ``--quick`` selects the
spec's ``quick`` preset, ``--seed`` reseeds every experiment whose spec
declares the seed contract, ``--engine`` picks the execution engine for
every spec with the engine capability, ``--parallel N`` runs the
experiments over N worker processes, and results are memoised in the
:mod:`repro.engine.cache` result cache under the spec-derived canonical key
(``--no-cache`` bypasses it in both directions).  Observability is opt-in:
``--trace PATH`` records the run under a :class:`repro.obs.TraceRecorder`
and writes the span tree as JSONL; ``--metrics`` prints the summary table
(span timings, counters, histograms) after the run.  Both are observation
only — results are bit-identical with them on or off.  A value the spec
schema rejects (``--precision -0.05``, ``--confidence 1.5``) is a usage
error: exit status 2, before anything runs.  External callers get
the identical behavior from ``repro.api`` directly — the CLI holds no
experiment knowledge of its own.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.api import PRESET_FULL, PRESET_QUICK, RunReport, Session
from repro.engine.adapters import ENGINE_CHOICES
from repro.engine.cache import ResultCache
from repro.harness.registry import REGISTRY, SpecValidationError
from repro.harness.reporting import render_experiment, write_json
from repro.harness.summary import load_results_directory, render_experiments_markdown
from repro.obs import TraceRecorder, render_summary, summarize, write_jsonl

__all__ = ["main", "build_parser", "DEFAULT_SEED"]

#: The master seed used when ``--seed`` is not given.  Every experiment whose
#: spec declares the seed contract receives it, so two machines running the
#: same command produce bit-for-bit identical tables.
DEFAULT_SEED = 0


def _say(stream, text: str = "") -> None:
    """Write one output line (the CLI's only output primitive; ``print`` is
    banned in ``src/repro`` so nothing can bypass the caller's stream)."""
    stream.write(f"{text}\n")


def _positive_int(text: str) -> int:
    """``--parallel``'s type: a worker count of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction harness for 'Randomized Local Network Computing' (SPAA 2015)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser(
        "list", help="list the available experiments with their parameter schemas"
    )

    run_parser = subparsers.add_parser("run", help="run one or more experiments")
    run_parser.add_argument(
        "experiments",
        nargs="+",
        help="experiment ids (E1..E10) or 'all'",
    )
    run_parser.add_argument(
        "--quick", action="store_true", help="use the spec's quick preset (seconds, not minutes)"
    )
    run_parser.add_argument(
        "--output-dir",
        type=Path,
        default=None,
        help="directory to write JSON artifacts to (omit to skip writing)",
    )
    run_parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=(
            "master seed forwarded to every experiment whose spec declares one "
            f"(default: {DEFAULT_SEED}); for a fixed seed, runs — including "
            "--quick runs — are reproducible bit-for-bit across machines"
        ),
    )
    run_parser.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default=None,
        help=(
            "execution engine for every spec with the engine capability "
            "(default: the spec's own default, auto)"
        ),
    )
    run_parser.add_argument(
        "--precision",
        type=float,
        default=None,
        metavar="HW",
        help=(
            "CI half-width target for every spec with the precision capability: "
            "trials stream until the interval is at most ±HW (the spec's trial "
            "budget becomes a cap) and verdicts become CI-aware — UNRESOLVED "
            "instead of a flap when the CI straddles a threshold"
        ),
    )
    run_parser.add_argument(
        "--confidence",
        type=float,
        default=None,
        metavar="C",
        help="confidence level for --precision intervals (spec default: 0.99)",
    )
    run_parser.add_argument(
        "--parallel",
        type=_positive_int,
        default=1,
        metavar="N",
        help="run the selected experiments over N worker processes (default: 1, serial)",
    )
    run_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute even when a cached result exists, and do not update the cache",
    )
    run_parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or ./.repro-cache)",
    )
    run_parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "record the run under a trace recorder and write the span tree, "
            "counters, and histograms to PATH as JSONL (observation only: "
            "results are bit-identical with tracing on or off)"
        ),
    )
    run_parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the telemetry summary table (span timings, counters) after the run",
    )

    cache_parser = subparsers.add_parser(
        "cache", help="inspect or clear the on-disk result cache"
    )
    cache_parser.add_argument(
        "action",
        choices=("stats", "clear"),
        help="'stats' prints the cache directory, entry count, and size; 'clear' empties it",
    )
    cache_parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or ./.repro-cache)",
    )

    serve_parser = subparsers.add_parser(
        "serve", help="start the long-running experiment service (HTTP + SSE)"
    )
    serve_parser.add_argument(
        "--host", default="127.0.0.1", help="address to bind (default: 127.0.0.1)"
    )
    serve_parser.add_argument(
        "--port", type=int, default=8765, help="port to bind (default: 8765; 0 for ephemeral)"
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="executor threads running experiments (default: 4)",
    )
    serve_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="serve without the on-disk result cache (every submission executes)",
    )
    serve_parser.add_argument(
        "--cache-dir",
        type=Path,
        default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or ./.repro-cache)",
    )
    serve_parser.add_argument(
        "--journal-dir",
        type=Path,
        default=None,
        metavar="DIR",
        help="persist a job journal here: accepted work survives crashes and "
        "restarts replay it (default: no journal)",
    )
    serve_parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt execution deadline; timed-out attempts retry under "
        "backoff when --max-retries allows (default: no deadline)",
    )
    serve_parser.add_argument(
        "--max-queue",
        type=int,
        default=None,
        metavar="N",
        help="bound on queued jobs; beyond it submissions get 429 + Retry-After "
        "(default: unbounded)",
    )
    serve_parser.add_argument(
        "--max-retries",
        type=int,
        default=0,
        metavar="N",
        help="retry budget for retryable failures per job (default: 0, fail fast)",
    )

    check_parser = subparsers.add_parser(
        "check",
        help="run the static checks (determinism lint, IR contracts, "
        "concurrency discipline) over the installed package",
    )
    check_parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text; json is the CI artifact shape)",
    )
    check_parser.add_argument(
        "--select",
        default=None,
        metavar="RULES",
        help="comma-separated rule ids to run (default: all; "
        "e.g. --select DET001,CON001)",
    )

    report_parser = subparsers.add_parser(
        "report", help="render a directory of JSON artifacts as EXPERIMENTS.md"
    )
    report_parser.add_argument(
        "--results", type=Path, required=True, help="directory containing e*.json artifacts"
    )
    report_parser.add_argument(
        "--output", type=Path, default=None, help="file to write (default: stdout)"
    )
    return parser


def _command_list(stream) -> int:
    for experiment_id, spec in REGISTRY.items():
        _say(stream, f"{experiment_id:4s} {spec.title}")
        tags = ", ".join(spec.capabilities) if spec.capabilities else "none"
        _say(stream, f"     capabilities: {tags}")
        schema = ", ".join(parameter.render() for parameter in spec.parameters)
        _say(stream, f"     parameters  : {schema}")
        if spec.quick:
            quick = ", ".join(f"{name}={value!r}" for name, value in spec.quick.items())
            _say(stream, f"     quick preset: {quick}")
    return 0


def _command_run(args: argparse.Namespace, stream) -> int:
    try:
        experiment_ids = REGISTRY.select(args.experiments)
    except KeyError as error:
        raise SystemExit(str(error.args[0]))

    if args.no_cache:
        cache = None
    elif args.cache_dir is not None:
        cache = args.cache_dir
    else:
        cache = True
    recorder = TraceRecorder() if (args.trace is not None or args.metrics) else None
    preset = PRESET_QUICK if args.quick else PRESET_FULL
    try:
        session = Session(
            seed=args.seed,
            engine=args.engine,
            cache=cache,
            parallel=args.parallel,
            precision=args.precision,
            confidence=args.confidence,
            telemetry=recorder,
        )
        requests = [
            session.request(experiment_id, preset=preset) for experiment_id in experiment_ids
        ]
    except SpecValidationError as error:
        _say(sys.stderr, f"repro run: error: {error}")
        return 2

    failures: List[str] = []
    # run_iter streams reports in request order as soon as each is available,
    # so long runs show progress and an interrupted run keeps everything
    # already printed and persisted.
    for report in session.run_iter(requests):
        _emit_report(report, args.output_dir, stream)
        # Anything but an affirmative verdict is a failure: an unset verdict
        # (None) means the experiment never judged its claim, and an
        # UNRESOLVED one means the CI straddles a threshold — CI must not
        # mistake either for a green run (rerun with a tighter --precision).
        if not report.ok:
            verdict = report.result.verdict
            failures.append(
                report.experiment_id
                if verdict == "fail"
                else f"{report.experiment_id}({verdict})"
            )
    if recorder is not None:
        export = recorder.export()
        if args.trace is not None:
            write_jsonl(export, args.trace)
            _say(stream, f"wrote trace {args.trace}")
        if args.metrics:
            _say(stream, render_summary(summarize(export)))
    if failures:
        _say(
            stream,
            f"FAILED verdicts ({len(failures)}/{len(experiment_ids)}): " + ", ".join(failures),
        )
        return 1
    return 0


def _emit_report(report: RunReport, output_dir: Optional[Path], stream) -> None:
    _say(stream, render_experiment(report.result))
    if report.from_cache:
        _say(stream, f"(cached result reused from {report.cache_path})")
    _say(stream)
    if output_dir is not None:
        path = write_json(report.result, output_dir / f"{report.experiment_id.lower()}.json")
        _say(stream, f"wrote {path}")


def _command_cache(args: argparse.Namespace, stream) -> int:
    cache = ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        _say(stream, f"removed {removed} cache entries from {cache.directory}")
        return 0
    # describe() reads zeros (and exits 0) for a missing or empty directory —
    # inspecting a cache must never require one to exist.
    shape = cache.describe()
    _say(stream, f"directory  : {shape['directory']}")
    _say(stream, f"entries    : {shape['entries']}")
    _say(stream, f"total bytes: {shape['total_bytes']}")
    _say(stream, f"shards     : {shape['shards']}")
    return 0


def _command_serve(args: argparse.Namespace, stream) -> int:
    # Imported here so the plain run/report paths never pay for asyncio.
    from repro.service import serve

    if args.no_cache:
        cache = None
    elif args.cache_dir is not None:
        cache = args.cache_dir
    else:
        cache = True
    return serve(
        host=args.host,
        port=args.port,
        cache=cache,
        max_workers=args.workers,
        journal_dir=args.journal_dir,
        job_timeout=args.job_timeout,
        max_queue=args.max_queue,
        max_retries=args.max_retries,
        stream=stream,
    )


def _command_check(args: argparse.Namespace, stream) -> int:
    # Imported here so the run/report paths never pay for the analyzers.
    from repro.check import run_checks

    select = None
    if args.select is not None:
        select = [rule.strip() for rule in args.select.split(",") if rule.strip()]
    try:
        report = run_checks(select=select)
    except ValueError as error:
        _say(sys.stderr, str(error))
        return 2
    if args.format == "json":
        _say(stream, report.to_json())
    else:
        _say(stream, report.render_text())
    return 0 if report.ok else 1


def _command_report(args: argparse.Namespace, stream) -> int:
    results = load_results_directory(args.results)
    if not results:
        _say(sys.stderr, f"no JSON artifacts found in {args.results}")
        return 1
    markdown = render_experiments_markdown(results)
    if args.output is None:
        _say(stream, markdown)
    else:
        Path(args.output).write_text(markdown, encoding="utf8")
        _say(stream, f"wrote {args.output}")
    return 0


def main(argv: Optional[Sequence[str]] = None, stream=None) -> int:
    """Entry point; returns the process exit code."""
    stream = stream if stream is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _command_list(stream)
    if args.command == "run":
        return _command_run(args, stream)
    if args.command == "cache":
        return _command_cache(args, stream)
    if args.command == "serve":
        return _command_serve(args, stream)
    if args.command == "check":
        return _command_check(args, stream)
    if args.command == "report":
        return _command_report(args, stream)
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
