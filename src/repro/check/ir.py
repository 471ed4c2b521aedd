"""Structural + semantic verification of the compiled engine IR.

The executor trusts the arrays the compiler hands it — a malformed program
does not crash, it silently computes the wrong distribution.  This module is
the distrustful reader: it re-checks every structural invariant the
compiler's docstrings promise (and the executor's correctness relies on),
and re-derives the semantic claims (``constant``, ``accept_probability``)
from the closed-form recursion.

Checked invariants, vote programs (:func:`verify_vote_program`):

* array shapes agree and stay under ``MAX_PROGRAM_NODES``;
* every edge goes from a higher index to a **strictly lower** one, which is
  the topological-order invariant and hence a proof of acyclicity;
* a node at depth ``d`` only reaches nodes at depth ``>= d + 1`` (each
  program node consumes exactly the draw at its depth — the property the
  engine's bit-identity stands on);
* thresholds lie in ``[0, 1]``, depths in ``[0, MAX_PROGRAM_DRAWS)``, and
  ``max_draws`` matches the deepest node;
* ``constant`` and ``accept_probability`` agree with the closed-form
  recursions (:func:`repro.engine.compiler._structural_constant` /
  ``_accept_probability``).

Output programs (:func:`verify_output_program`) get the per-opcode arity
checks (``const`` → one code, ``randint`` → one code per integer of
``[low, high]``, ``bernoulli`` → a pair and ``q ∈ [0, 1]``) and the
alphabet-cap check; compiled containers
(:func:`verify_compiled_decision` / :func:`verify_compiled_construction`)
add program-id ranges, probability-table consistency and identity
uniqueness.

All failures raise :class:`repro.errors.IRVerificationError`.  The
verifiers run automatically inside ``compile_decision`` /
``compile_construction`` when :func:`ir_check_enabled` (the
``REPRO_CHECK_IR`` environment variable) is on — CI and the test conftest
set it; hot paths leave it unset and pay only one ``os.environ`` lookup.
"""

from __future__ import annotations

import os
from typing import Set

import numpy as np

from repro.engine.compiler import (
    ACCEPT,
    MAX_PROGRAM_DRAWS,
    MAX_PROGRAM_NODES,
    REJECT,
    AllOf,
    AnyOf,
    Branch,
    Coin,
    CompiledDecision,
    Const,
    Not,
    VoteExpr,
    VoteProgram,
    _accept_probability,
    _structural_constant,
)
from repro.engine.construct import (
    MAX_OUTPUT_VALUES,
    CompiledConstruction,
    OutputProgram,
)
from repro.errors import IRVerificationError

__all__ = [
    "IRVerificationError",
    "ir_check_enabled",
    "verify_vote_expr",
    "verify_vote_program",
    "verify_output_program",
    "verify_compiled_decision",
    "verify_compiled_construction",
]

#: Tolerance for re-derived closed-form probabilities.  The verifier runs the
#: *same* float recursion as the compiler, so agreement is exact in practice;
#: the epsilon only absorbs summation-order differences.
_PROBABILITY_TOLERANCE = 1e-12


def ir_check_enabled() -> bool:
    """Whether compiled programs should be verified automatically
    (``REPRO_CHECK_IR`` set to anything but ``""``/``"0"``)."""
    return os.environ.get("REPRO_CHECK_IR", "") not in ("", "0")


def _fail(message: str, **details: object) -> "IRVerificationError":
    return IRVerificationError(message, **details)


# --------------------------------------------------------------------------- #
# Expression layer
# --------------------------------------------------------------------------- #
def verify_vote_expr(expr: VoteExpr) -> None:
    """Validate a vote expression structurally (types, probability ranges).

    Walks the expression as a DAG (memoized on identity), so shared
    sub-circuits — e.g. ``majority``'s ``(remaining, successes)`` states —
    cost one visit, not exponentially many.
    """
    seen: Set[int] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, Const):
            if not isinstance(node.value, bool):
                raise _fail(f"Const value must be bool, got {node.value!r}")
        elif isinstance(node, Coin):
            p = node.p
            if not isinstance(p, float) or not 0.0 <= p <= 1.0:
                raise _fail(f"Coin probability must be a float in [0, 1], got {p!r}")
        elif isinstance(node, Not):
            stack.append(node.operand)
        elif isinstance(node, (AllOf, AnyOf)):
            if not isinstance(node.operands, tuple) or not node.operands:
                raise _fail(
                    f"{type(node).__name__} needs a non-empty operand tuple, "
                    f"got {node.operands!r}"
                )
            stack.extend(node.operands)
        elif isinstance(node, Branch):
            stack.extend((node.condition, node.on_true, node.on_false))
        else:
            raise _fail(f"not a vote expression: {node!r}")
        if len(seen) > 4 * MAX_PROGRAM_NODES:
            raise _fail("vote expression is unreasonably large (or cyclic)")


# --------------------------------------------------------------------------- #
# Lowered vote programs
# --------------------------------------------------------------------------- #
def _verify_edge(program: VoteProgram, source: int, target: int, label: str) -> None:
    if target in (ACCEPT, REJECT):
        return
    if not 0 <= target < program.n_nodes:
        raise _fail(
            f"node {source}: {label} edge targets {target}, outside "
            f"[0, {program.n_nodes}) and not a terminal"
        )
    if target >= source:
        # Edges must strictly decrease the index — the topological-order
        # invariant; a violation is a cycle (or a forward edge the walker
        # would revisit).
        raise _fail(
            f"node {source}: {label} edge targets {target} >= {source}; "
            "edges must go from higher to strictly lower indices"
        )
    if int(program.depths[target]) < int(program.depths[source]) + 1:
        raise _fail(
            f"node {source} (depth {int(program.depths[source])}): {label} "
            f"edge reaches node {target} at depth {int(program.depths[target])}; "
            "successors must sit at least one draw deeper"
        )


def verify_vote_program(program: VoteProgram) -> None:
    """Verify one lowered vote program against the full IR contract."""
    n = program.n_nodes
    for name in ("on_true", "on_false", "depths"):
        length = len(getattr(program, name))
        if length != n:
            raise _fail(f"{name} has {length} entries for {n} thresholds")
    if n > MAX_PROGRAM_NODES:
        raise _fail(f"program has {n} nodes, above the {MAX_PROGRAM_NODES} cap")

    root = int(program.root)
    if root in (ACCEPT, REJECT):
        if n != 0:
            raise _fail(f"terminal root {root} on a program with {n} nodes")
    elif not 0 <= root < n:
        raise _fail(f"root {root} outside [0, {n}) and not a terminal")

    if n:
        thresholds = np.asarray(program.thresholds, dtype=np.float64)
        if not np.all(np.isfinite(thresholds)):
            raise _fail("thresholds contain non-finite values")
        if thresholds.min() < 0.0 or thresholds.max() > 1.0:
            bad = int(np.argmax((thresholds < 0.0) | (thresholds > 1.0)))
            raise _fail(
                f"node {bad}: threshold {float(thresholds[bad])} outside [0, 1]"
            )
        depths = np.asarray(program.depths)
        if depths.min() < 0 or depths.max() >= MAX_PROGRAM_DRAWS:
            bad = int(np.argmax((depths < 0) | (depths >= MAX_PROGRAM_DRAWS)))
            raise _fail(
                f"node {bad}: draw index {int(depths[bad])} outside "
                f"[0, {MAX_PROGRAM_DRAWS})"
            )
        for source in range(n):
            _verify_edge(program, source, int(program.on_true[source]), "on_true")
            _verify_edge(program, source, int(program.on_false[source]), "on_false")

    expected_draws = int(program.depths.max()) + 1 if n else 0
    if int(program.max_draws) != expected_draws:
        raise _fail(
            f"max_draws claims {program.max_draws}, deepest node implies "
            f"{expected_draws}"
        )

    constant = _structural_constant(
        root, program.thresholds, program.on_true, program.on_false
    )
    if constant != program.constant:
        raise _fail(
            f"constant claims {program.constant!r}, structural walk derives "
            f"{constant!r}"
        )
    if constant is True:
        probability = 1.0
    elif constant is False:
        probability = 0.0
    else:
        probability = _accept_probability(
            root, program.thresholds, program.on_true, program.on_false
        )
    if abs(probability - float(program.accept_probability)) > _PROBABILITY_TOLERANCE:
        raise _fail(
            f"accept_probability claims {program.accept_probability}, "
            f"closed-form recursion derives {probability}"
        )


# --------------------------------------------------------------------------- #
# Output programs
# --------------------------------------------------------------------------- #
def verify_output_program(program: OutputProgram, alphabet_size: int) -> None:
    """Verify one lowered output program against an alphabet of
    ``alphabet_size`` interned values."""
    if not 0 < alphabet_size <= MAX_OUTPUT_VALUES:
        raise _fail(
            f"alphabet size {alphabet_size} outside (0, {MAX_OUTPUT_VALUES}]"
        )
    if program.kind == "const":
        if len(program.codes) != 1:
            raise _fail(
                f"const program must hold exactly one code, got {len(program.codes)}"
            )
    elif program.kind == "randint":
        if program.high < program.low:
            raise _fail(f"randint range [{program.low}, {program.high}] is empty")
        expected = program.high - program.low + 1
        if len(program.codes) != expected:
            raise _fail(
                f"randint over [{program.low}, {program.high}] must hold "
                f"{expected} codes, got {len(program.codes)}"
            )
    elif program.kind == "bernoulli":
        if len(program.codes) != 2:
            raise _fail(
                f"bernoulli program must hold a (false, true) code pair, "
                f"got {len(program.codes)}"
            )
        if not 0.0 <= program.q <= 1.0:
            raise _fail(f"bernoulli probability {program.q} outside [0, 1]")
    else:
        raise _fail(f"unknown output-program kind {program.kind!r}")
    for code in program.codes:
        if not isinstance(code, int) or not 0 <= code < alphabet_size:
            raise _fail(
                f"code {code!r} outside the interned alphabet [0, {alphabet_size})"
            )


# --------------------------------------------------------------------------- #
# Compiled containers
# --------------------------------------------------------------------------- #
def _verify_assignment(
    program_ids: np.ndarray, n_programs: int, identities: np.ndarray, n_nodes: int
) -> None:
    if len(program_ids) != n_nodes:
        raise _fail(f"program_ids has {len(program_ids)} entries for {n_nodes} nodes")
    if len(program_ids) and (program_ids.min() < 0 or program_ids.max() >= n_programs):
        raise _fail(f"program_ids fall outside [0, {n_programs})")
    if len(identities) != n_nodes:
        raise _fail(f"identities has {len(identities)} entries for {n_nodes} nodes")
    if len(np.unique(identities)) != n_nodes:
        raise _fail("node identities are not unique")


def verify_compiled_decision(compiled: CompiledDecision) -> None:
    """Verify a compiled decision end to end (per-program invariants,
    assignment, probability table)."""
    for program in compiled.programs:
        verify_vote_program(program)
    _verify_assignment(
        compiled.program_ids,
        len(compiled.programs),
        compiled.identities,
        compiled.n_nodes,
    )
    if len(compiled.probabilities) != compiled.n_nodes:
        raise _fail(
            f"probabilities has {len(compiled.probabilities)} entries for "
            f"{compiled.n_nodes} nodes"
        )
    for position in range(compiled.n_nodes):
        claimed = float(compiled.probabilities[position])
        derived = float(compiled.program_of(position).accept_probability)
        if abs(claimed - derived) > _PROBABILITY_TOLERANCE:
            raise _fail(
                f"node {position}: probability table claims {claimed}, its "
                f"program's accept_probability is {derived}"
            )


def verify_compiled_construction(compiled: CompiledConstruction) -> None:
    """Verify a compiled construction end to end (alphabet, per-program
    arities, assignment)."""
    alphabet_size = len(compiled.values)
    if alphabet_size > MAX_OUTPUT_VALUES:
        raise _fail(
            f"alphabet holds {alphabet_size} values, above the "
            f"{MAX_OUTPUT_VALUES} cap"
        )
    # Interning dedupes by equality (values reached the alphabet through a
    # dict), so every value is hashable and duplicates mean a broken intern.
    if alphabet_size != len(set(compiled.values)):
        raise _fail("interned alphabet holds duplicate values")
    for program in compiled.programs:
        verify_output_program(program, alphabet_size)
    _verify_assignment(
        compiled.program_ids,
        len(compiled.programs),
        compiled.identities,
        compiled.n_nodes,
    )
