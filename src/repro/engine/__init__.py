"""repro.engine — batched vectorized Monte-Carlo execution.

The reference decision path (:mod:`repro.core.decision`) re-runs pure-Python
per-node voting once per trial, even though the configuration — and with it
every ball classification — is fixed across trials.  This subsystem compiles
a ``(Configuration, Decider)`` pair **once** into flat NumPy form (per-node
vote programs and probabilities) and then evaluates thousands of
trials as single array operations.  It is the package's *fast path*; the
per-node Python rules remain the *reference path* that defines correctness.

Layers
------
* :mod:`repro.engine.compiler` — :func:`compile_decision` /
  :class:`CompiledDecision`: the one-off flattening, and the
  ``vote_program`` contract a decider must expose to be compilable;
* :mod:`repro.engine.executor` — the trials×nodes Bernoulli-matrix
  evaluation: the reference counter-based tape streams, computed as one
  array operation, and :class:`~repro.engine.executor.AcceptStream`, the
  resumable acceptance stream every decision estimate samples;
* :mod:`repro.engine.adapters` — the ``engine=`` dispatch:
  :func:`resolve_engine` and :func:`engine_or_reference`, through which
  :mod:`repro.core` builds each estimator's success stream from the engine
  or from the reference loop, counting every ``auto`` fallback
  (``engine.fallback.*``);
* :mod:`repro.engine.construct` — the **construction engine**: compiles
  constructors (``output_program(ball)`` contract) into vectorized per-node
  draw programs producing the ``trials × nodes`` output matrix in one pass,
  lowers language membership to array form, and fuses radius-0 single-coin
  deciders on top, so the derandomization estimators (the success and
  far-acceptance streams, the Claim 3/Theorem 1 amplification runs) need no
  per-trial Python;
* :mod:`repro.engine.parallel` — ``imap``, the submission-ordered
  process-pool fan-out behind the ``process-pool`` backend, and
  :func:`point_seed`, the deterministic per-point sweep seed;
* :mod:`repro.engine.cache` — :class:`ResultCache`, the content-addressed
  JSON result store behind the CLI's default caching (key: experiment id +
  normalized parameters, seed included + package version; see the module
  docstring for the invalidation rule).

Fast path vs. reference path (guide for decider authors)
--------------------------------------------------------
A decider joins the fast path by exposing a **vote program**:
``vote_program(ball) -> VoteExpr``, a Bernoulli circuit over the node's
private tape built from the :mod:`repro.engine.compiler` combinators
(``coin`` / ``const`` / ``all_of`` / ``any_of`` / ``neg`` / ``branch`` /
``majority``).  The contract is that interpreting the program against a
fresh tape (:func:`~repro.engine.compiler.evaluate_vote_expr`) behaves
exactly like ``vote(ball, tape)`` — same result, same draws consumed —
which is what keeps the engine bit-identical to the reference loop.
A single-coin decider returns ``coin(p)`` (``const`` for a vote that
ignores the tape).  Deciders whose coin usage exceeds the IR (more than
:data:`~repro.engine.compiler.MAX_PROGRAM_DRAWS` sequential draws) must
stay on the reference path; ``engine="auto"`` falls back automatically for
deciders without a ``vote_program`` or beyond the IR, and the ambient
recorder counts each such fallback with its reason (``engine.fallback.*``,
see :mod:`repro.engine.adapters`).  An equivalence test in ``tests/engine``
asserts that the engine agrees with the reference loop bit for bit.
"""

from repro.engine.adapters import ENGINE_CHOICES, engine_or_reference, resolve_engine
from repro.engine.cache import ResultCache, default_cache_dir, request_cache_key
from repro.engine.compiler import (
    MAX_PROGRAM_DRAWS,
    CompiledDecision,
    ProgramCompilationError,
    VoteExpr,
    VoteProgram,
    all_of,
    any_of,
    branch,
    coin,
    compile_decision,
    const,
    evaluate_vote_expr,
    is_compilable,
    lower_program,
    majority,
    neg,
)
from repro.engine.construct import (
    MAX_OUTPUT_VALUES,
    CompiledConstruction,
    ConstructionCompilationError,
    OutputExpr,
    bernoulli_output,
    compile_construction,
    compile_fused_decision,
    compile_membership,
    const_output,
    construction_matrix,
    evaluate_output_expr,
    is_construction_compilable,
    resolve_construction_engine,
    uniform_choice,
    uniform_int,
)
from repro.engine.executor import (
    accept_vector,
    exact_single_trial_votes,
    vote_matrix,
)
from repro.engine.parallel import point_seed

__all__ = [
    "ENGINE_CHOICES",
    "MAX_OUTPUT_VALUES",
    "MAX_PROGRAM_DRAWS",
    "CompiledConstruction",
    "CompiledDecision",
    "ConstructionCompilationError",
    "OutputExpr",
    "ProgramCompilationError",
    "ResultCache",
    "VoteExpr",
    "VoteProgram",
    "accept_vector",
    "all_of",
    "any_of",
    "bernoulli_output",
    "branch",
    "coin",
    "compile_construction",
    "compile_decision",
    "compile_fused_decision",
    "compile_membership",
    "const",
    "const_output",
    "construction_matrix",
    "default_cache_dir",
    "engine_or_reference",
    "evaluate_output_expr",
    "evaluate_vote_expr",
    "exact_single_trial_votes",
    "is_compilable",
    "is_construction_compilable",
    "lower_program",
    "majority",
    "neg",
    "point_seed",
    "request_cache_key",
    "resolve_construction_engine",
    "resolve_engine",
    "uniform_choice",
    "uniform_int",
    "vote_matrix",
]
