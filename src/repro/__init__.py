"""repro — a reproduction of *Randomized Local Network Computing*
(Feuilloley & Fraigniaud, SPAA 2015).

The package implements the LOCAL model of distributed network computing and
the paper's framework on top of it:

* :mod:`repro.local` — the synchronous LOCAL-model simulator (networks,
  identities, balls, message passing, private randomness);
* :mod:`repro.graphs` — graph families, the F_k promise, and the gluing
  operations used in the proof of Theorem 1;
* :mod:`repro.core` — distributed languages, LD/BPLD deciders, construction
  tasks, f-resilient and ε-slack relaxations, order-invariant algorithms and
  the derandomization machinery (Claims 2–5, Eq. (3));
* :mod:`repro.algorithms` — classic LOCAL baselines (Cole–Vishkin, Luby,
  random coloring, color reduction, matching, dominating sets, resampling);
* :mod:`repro.analysis` — metrics, log*, growth fits, sweep tables;
* :mod:`repro.engine` — the batched vectorized Monte-Carlo execution layer:
  it compiles a ``(Configuration, Decider)`` pair once into flat NumPy form
  (CSR adjacency + per-node Bernoulli vote programs) and evaluates
  thousands of trials as single array reductions, plus the process-pool
  fan-out and the content-addressed JSON result cache behind the CLI;
* :mod:`repro.stats` — adaptive-precision statistics: streaming
  accumulators, Wilson/Hoeffding confidence intervals, and the
  :class:`~repro.stats.PrecisionTarget` sequential-stopping rule the
  chunked engine drives between chunks ("run until the CI half-width is
  ±0.005 at 99%" instead of guessing trial counts); ``precision=None``
  leaves every estimator bit-identical to its fixed-trial behaviour;
* :mod:`repro.harness` — the declarative experiment layer: the
  :class:`~repro.harness.registry.ExperimentSpec` registry (typed parameter
  schemas, ``full``/``quick`` presets, seed/engine capabilities) over the
  E1–E10 runner functions, plus result records and reporting;
* :mod:`repro.api` — the programmatic facade: :class:`~repro.api.Session`
  runs single experiments, selections, and parameter sweeps through
  pluggable execution backends (``inline``, ``process-pool``)
  with canonical spec-derived cache keys; the CLI is a thin client of it
  (see DESIGN.md and EXPERIMENTS.md);
* :mod:`repro.obs` — zero-dependency observability: the
  :class:`~repro.obs.Recorder` protocol (nested spans, counters,
  histograms) every layer is instrumented against, with a near-zero-cost
  null recorder as the default, an in-memory
  :class:`~repro.obs.TraceRecorder` with JSONL/summary sinks, and an
  export/merge contract that carries worker-process telemetry back to the
  parent; telemetry is observation-only — results are bit-identical with
  it on or off (``Session(telemetry=...)``, ``--trace``/``--metrics``);
* :mod:`repro.errors` — the shared exception taxonomy: every error the
  public surface raises derives from :class:`~repro.errors.ReproError`,
  carries a stable machine-readable ``code`` and JSON-able ``details``,
  and maps mechanically onto HTTP statuses for the service;
* :mod:`repro.service` — the long-running experiment service: a
  stdlib-``asyncio`` HTTP server (``python -m repro serve``) that accepts
  wire-encoded run requests, deduplicates concurrent identical
  submissions into a single execution (single-flight by canonical cache
  key), streams job progress over SSE, and shares the result cache with
  inline sessions — results are bit-identical either way; talk to it with
  :class:`repro.api.Client`.

Fast path vs. reference path
----------------------------
The per-node Python voting rules in :mod:`repro.core.decision` are the
*reference path* — they define correctness.  The engine is the *fast path*:
any decider exposing ``vote_program(ball)`` (its vote as a Bernoulli circuit
over the node's tape) is compiled and executed in batch, reproducing the
reference coin streams bit for bit (``engine="auto"``, the default, falls
back to the reference path for deciders that do not compile; ``"exact"``
raises instead; ``"off"`` forces the reference path).  See the
:mod:`repro.engine` docstring for the authoring guide, and DESIGN.md for the
architecture notes.

Result caching
--------------
``python -m repro run`` (and any :class:`repro.api.Session` with caching
enabled) memoises experiment results under ``$REPRO_CACHE_DIR`` (default
``./.repro-cache``), keyed by the spec's fully normalized parameter mapping
(seed included) and :data:`__version__`; bumping the version invalidates
every entry, and ``--no-cache`` / ``Session(cache=None)`` bypasses the cache
entirely.

Quickstart
----------
>>> from repro.api import Session
>>> session = Session(seed=0, cache=None)
>>> session.run("E5", preset="quick").ok    # doctest: +SKIP
True

Working with the substrate directly:


>>> from repro.graphs import cycle_network
>>> from repro.core import Configuration, ProperColoring, LocalCheckerDecider
>>> net = cycle_network(9)
>>> colors = {node: (index % 3) + 1 for index, node in enumerate(net.nodes())}
>>> language = ProperColoring(3)
>>> language.contains(Configuration(net, colors))
True
>>> LocalCheckerDecider(language).decide(Configuration(net, colors)).accepted
True
"""

__version__ = "2.3.0"

__all__ = [
    "local",
    "graphs",
    "core",
    "algorithms",
    "analysis",
    "engine",
    "stats",
    "harness",
    "api",
    "__version__",
]
