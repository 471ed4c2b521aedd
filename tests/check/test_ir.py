"""The IR verifier accepts every compiler-produced program and rejects each
seeded corruption (cycle, bad arity, out-of-range probability, draw-cap
overflow, inconsistent CSR)."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.check.ir import (
    ir_check_enabled,
    verify_compiled_construction,
    verify_compiled_decision,
    verify_output_program,
    verify_vote_expr,
    verify_vote_program,
)
from repro.core.languages import Configuration
from repro.engine.compiler import (
    MAX_PROGRAM_DRAWS,
    all_of,
    branch,
    coin,
    compile_decision,
    const,
    lower_program,
)
from repro.engine.construct import OutputProgram, compile_construction
from repro.errors import IRVerificationError
from repro.graphs.families import cycle_network


def make_program():
    """A genuinely branching three-coin program."""
    return lower_program(branch(coin(0.5), all_of(coin(0.25), coin(0.75)), const(False)))


def corrupt(program, **overrides):
    return dataclasses.replace(program, **overrides)


# --------------------------------------------------------------------------- #
# Vote programs: the compiler's output passes, each corruption fails
# --------------------------------------------------------------------------- #
def test_compiler_output_passes():
    verify_vote_program(make_program())
    verify_vote_program(lower_program(const(True)))
    verify_vote_program(lower_program(coin(0.3)))


def test_cycle_is_rejected():
    program = make_program()
    on_true = program.on_true.copy()
    # Point a low node back up at the root: a forward edge, i.e. a cycle in
    # the walker's state machine.
    on_true[0] = program.root
    with pytest.raises(IRVerificationError, match="strictly lower"):
        verify_vote_program(corrupt(program, on_true=on_true))


def test_depth_contract_is_rejected():
    program = make_program()
    depths = program.depths.copy()
    # Make a successor share its parent's depth: both would consume the same
    # draw, which breaks exact-mode bit-identity.
    source = int(program.root)
    target = int(program.on_true[source])
    if target < 0:
        target = int(program.on_false[source])
    depths[target] = depths[source]
    with pytest.raises(IRVerificationError, match="deeper"):
        verify_vote_program(corrupt(program, depths=depths))


def test_probability_above_one_is_rejected():
    program = make_program()
    thresholds = program.thresholds.copy()
    thresholds[0] = 1.5
    with pytest.raises(IRVerificationError, match=r"outside \[0, 1\]"):
        verify_vote_program(corrupt(program, thresholds=thresholds))


def test_draw_index_at_cap_is_rejected():
    program = make_program()
    depths = program.depths.copy()
    depths[0] = MAX_PROGRAM_DRAWS
    with pytest.raises(IRVerificationError, match="draw index"):
        verify_vote_program(corrupt(program, depths=depths))


def test_wrong_max_draws_is_rejected():
    program = make_program()
    with pytest.raises(IRVerificationError, match="max_draws"):
        verify_vote_program(corrupt(program, max_draws=program.max_draws + 1))


def test_false_constant_claim_is_rejected():
    program = make_program()
    with pytest.raises(IRVerificationError, match="constant"):
        verify_vote_program(corrupt(program, constant=True))


def test_false_probability_claim_is_rejected():
    program = make_program()
    claimed = program.accept_probability + 0.125
    with pytest.raises(IRVerificationError, match="accept_probability"):
        verify_vote_program(corrupt(program, accept_probability=claimed))


def test_array_length_mismatch_is_rejected():
    program = make_program()
    with pytest.raises(IRVerificationError, match="entries"):
        verify_vote_program(corrupt(program, depths=program.depths[:-1]))


def test_bad_expression_is_rejected():
    with pytest.raises(IRVerificationError, match="not a vote expression"):
        verify_vote_expr(all_of(coin(0.5), "not an expr"))


# --------------------------------------------------------------------------- #
# Output programs: per-opcode arity
# --------------------------------------------------------------------------- #
def test_output_arity_checks():
    verify_output_program(OutputProgram("const", (0,)), alphabet_size=3)
    verify_output_program(OutputProgram("randint", (0, 1, 2), low=1, high=3), 3)
    verify_output_program(OutputProgram("bernoulli", (0, 1), q=0.25), 3)

    with pytest.raises(IRVerificationError, match="randint"):
        # low=1..high=3 spans three integers but only two codes are present.
        verify_output_program(OutputProgram("randint", (0, 1), low=1, high=3), 3)
    with pytest.raises(IRVerificationError, match="bernoulli"):
        verify_output_program(OutputProgram("bernoulli", (0,), q=0.5), 3)
    with pytest.raises(IRVerificationError, match=r"q|probability"):
        verify_output_program(OutputProgram("bernoulli", (0, 1), q=1.5), 3)
    with pytest.raises(IRVerificationError, match="alphabet"):
        verify_output_program(OutputProgram("const", (7,)), alphabet_size=3)
    with pytest.raises(IRVerificationError, match="kind"):
        verify_output_program(OutputProgram("mystery", (0,)), alphabet_size=3)


# --------------------------------------------------------------------------- #
# Compiled containers
# --------------------------------------------------------------------------- #
class _TrivialDecider:
    """Minimal compilable decider: every node flips one fair coin."""

    name = "trivial-coin"
    radius = 1

    def vote_program(self, ball):
        return coin(0.5)


def compile_on_cycle(n=6):
    network = cycle_network(n, ids="consecutive")
    colors = {node: (index % 3) + 1 for index, node in enumerate(network.nodes())}
    return compile_decision(_TrivialDecider(), Configuration(network, colors))


def test_compiled_decision_passes():
    verify_compiled_decision(compile_on_cycle())


def test_probability_table_mismatch_is_rejected():
    compiled = compile_on_cycle()
    compiled.probabilities[0] = 0.75  # table no longer matches the program
    with pytest.raises(IRVerificationError, match="probability table"):
        verify_compiled_decision(compiled)


class _TrivialConstructor:
    """Minimal compilable constructor: every node outputs 1 or 2 uniformly."""

    name = "trivial-uniform"
    radius = 1

    def output_program(self, ball):
        from repro.engine.construct import uniform_int

        return uniform_int(1, 2)


def test_compiled_construction_passes():
    network = cycle_network(5, ids="consecutive")
    compiled = compile_construction(_TrivialConstructor(), network)
    verify_compiled_construction(compiled)


def test_duplicate_identities_are_rejected():
    compiled = compile_on_cycle()
    compiled.identities[1] = compiled.identities[0]
    with pytest.raises(IRVerificationError, match="identities"):
        verify_compiled_decision(compiled)


# --------------------------------------------------------------------------- #
# The REPRO_CHECK_IR compile hook
# --------------------------------------------------------------------------- #
def test_hook_enabled_in_tests(monkeypatch):
    assert ir_check_enabled()  # conftest sets REPRO_CHECK_IR=1
    monkeypatch.setenv("REPRO_CHECK_IR", "0")
    assert not ir_check_enabled()
    monkeypatch.delenv("REPRO_CHECK_IR")
    assert not ir_check_enabled()


def test_compile_hooks_run_under_env(monkeypatch):
    # Compiles succeed with the hook on (the compiler's output verifies)...
    compile_on_cycle()
    network = cycle_network(5, ids="consecutive")
    compile_construction(_TrivialConstructor(), network)
    # ... and wire-format details stay intact: the error raised for seeded
    # corruption is the taxonomy's ir_verification code.
    assert IRVerificationError.code == "ir_verification"
    assert IRVerificationError("x").http_status == 500


def test_wire_code_roundtrip():
    from repro.errors import error_class_for_code

    assert error_class_for_code("ir_verification") is IRVerificationError
    from repro.engine.construct import ConstructionCompilationError

    assert error_class_for_code("construction_compilation") is (
        ConstructionCompilationError
    )
    assert ConstructionCompilationError("x").http_status == 422


def test_identity_array_dtype_preserved():
    compiled = compile_on_cycle()
    assert compiled.identities.dtype == np.int64 or np.issubdtype(
        compiled.identities.dtype, np.integer
    )
