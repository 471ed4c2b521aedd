"""repro.check — zero-dependency static verification of the repo's contracts.

The load-bearing guarantees of this codebase — bit-identity of the engine
with the reference tapes, the tape-only randomness convention, the span
taxonomy, loop-confinement in the asyncio service — are conventions, and
conventions rot.  This package turns them into machine-checked rules:

* :mod:`repro.check.ir` — structural + semantic verification of compiled
  vote programs and output programs (DAG shape, arities, probability
  ranges, draw caps, closed-form cross-checks).  Runs
  automatically inside ``compile_decision``/``compile_construction`` when
  ``REPRO_CHECK_IR=1`` (on in CI and the test suite, off in hot paths).
* :mod:`repro.check.lint` — an ``ast``-based determinism & invariant
  linter over ``src/repro`` (rules DET001–DET003, OBS001, ERR001) with a
  small, rationale-carrying allowlist (:mod:`repro.check.config`).
* :mod:`repro.check.concurrency` — verifies the ``# guarded-by: <lock>`` /
  ``# loop-confined`` annotation convention on mutable attributes (rules
  CON001–CON003).

``python -m repro check [--format json|text] [--select RULE,...]`` runs the
static analyzers and exits nonzero on any finding; CI gates on it.  See
DESIGN.md "Static analysis" for the rule catalog and the allowlist policy.
"""

from repro.check.findings import Finding, Report
from repro.check.ir import (
    IRVerificationError,
    ir_check_enabled,
    verify_compiled_construction,
    verify_compiled_decision,
    verify_output_program,
    verify_vote_expr,
    verify_vote_program,
)
from repro.check.runner import ALL_RULES, run_checks

__all__ = [
    "Finding",
    "Report",
    "ALL_RULES",
    "run_checks",
    "IRVerificationError",
    "ir_check_enabled",
    "verify_vote_expr",
    "verify_vote_program",
    "verify_output_program",
    "verify_compiled_decision",
    "verify_compiled_construction",
]
