"""Property-based tests (hypothesis) for the engine IR.

Random vote programs (``coin``/``all_of``/``any_of``/``neg``/``branch``/
``majority`` within the 64-draw cap) and random output programs are checked
against three independent implementations of the same semantics:

* the expression interpreters (``evaluate_vote_expr`` /
  ``evaluate_output_expr``) — the reference semantics;
* the lowered decision DAG (``lower_program(...).walk``) and the compiled
  engine executors (exact mode), which must agree draw for draw;
* a recursive closed-form probability computed directly on the expression
  tree, which must match the lowering's ``accept_probability``.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.decision import ProgramDecider  # noqa: E402
from repro.core.languages import Configuration  # noqa: E402
from repro.engine import construct, executor  # noqa: E402
from repro.engine.compiler import (  # noqa: E402
    AllOf,
    AnyOf,
    Branch,
    Coin,
    Const,
    Not,
    all_of,
    any_of,
    branch,
    coin,
    compile_decision,
    const,
    evaluate_vote_expr,
    lower_program,
    majority,
    neg,
)
from repro.engine.construct import (  # noqa: E402
    bernoulli_output,
    compile_construction,
    const_output,
    construction_matrix,
    evaluate_output_expr,
    uniform_choice,
    uniform_int,
)
from repro.engine.executor import accept_vector  # noqa: E402
from repro.graphs.families import cycle_network  # noqa: E402
from repro.local.algorithm import FunctionBallAlgorithm  # noqa: E402
from repro.local.randomness import TapeFactory  # noqa: E402


# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
_probabilities = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)
_open_probabilities = st.floats(min_value=0.01, max_value=0.99, allow_nan=False)

_leaves = st.one_of(
    st.booleans().map(const),
    _probabilities.map(coin),
    st.tuples(st.sampled_from([1, 3, 5]), _open_probabilities).map(
        lambda kp: majority(kp[0], kp[1])
    ),
)


def _extend(children):
    return st.one_of(
        children.map(neg),
        st.lists(children, min_size=2, max_size=3).map(lambda ops: all_of(*ops)),
        st.lists(children, min_size=2, max_size=3).map(lambda ops: any_of(*ops)),
        st.tuples(children, children, children).map(lambda t: branch(*t)),
    )


# Every leaf consumes at most 5 sequential draws and the tree has at most 8
# leaves, so the deepest possible draw chain is 40 — inside the 64-draw cap
# by construction (the cap itself is tested explicitly elsewhere).
vote_exprs = st.recursive(_leaves, _extend, max_leaves=8)

_output_values = st.one_of(st.integers(-3, 9), st.sampled_from(["a", "b", "sel"]))
output_exprs = st.one_of(
    _output_values.map(const_output),
    st.tuples(st.integers(-5, 5), st.integers(0, 6)).map(
        lambda lh: uniform_int(lh[0], lh[0] + lh[1])
    ),
    st.lists(_output_values, min_size=1, max_size=5).map(uniform_choice),
    st.tuples(_probabilities, _output_values, _output_values).map(
        lambda t: bernoulli_output(*t)
    ),
)


class RecordingTape:
    """A tape over a fixed uniform stream that records its consumption."""

    def __init__(self, uniforms):
        self._uniforms = list(uniforms)
        self.consumed = 0

    def _next(self) -> float:
        value = self._uniforms[self.consumed]
        self.consumed += 1
        return value

    def bernoulli(self, p: float) -> bool:
        return self._next() < p

    def randint(self, low: int, high: int) -> int:
        # Same draw-to-value map the engine's exact mode uses for one draw:
        # a fresh Generator's integers() consumes one uniform block; for the
        # agreement test we instead compare against the real RandomTape.
        raise NotImplementedError


def _closed_form(expr, memo=None) -> float:
    """Independent exact acceptance probability, straight off the tree.

    Distinct coins consume distinct draws, hence are independent; a branch's
    arms are conditioned on disjoint events.  This recursion shares nothing
    with the lowering's DAG computation, which makes the comparison a real
    differential test.
    """
    if memo is None:
        memo = {}
    key = id(expr)
    if key in memo:
        return memo[key]
    if isinstance(expr, Const):
        value = 1.0 if expr.value else 0.0
    elif isinstance(expr, Coin):
        value = expr.p
    elif isinstance(expr, Not):
        value = 1.0 - _closed_form(expr.operand, memo)
    elif isinstance(expr, AllOf):
        value = 1.0
        for operand in expr.operands:
            value *= _closed_form(operand, memo)
    elif isinstance(expr, AnyOf):
        value = 1.0
        for operand in expr.operands:
            value *= 1.0 - _closed_form(operand, memo)
        value = 1.0 - value
    elif isinstance(expr, Branch):
        p_condition = _closed_form(expr.condition, memo)
        value = p_condition * _closed_form(expr.on_true, memo) + (
            1.0 - p_condition
        ) * _closed_form(expr.on_false, memo)
    else:  # pragma: no cover - exhaustive over the IR
        raise TypeError(expr)
    memo[key] = value
    return value


# --------------------------------------------------------------------------- #
# Vote-program properties
# --------------------------------------------------------------------------- #
class TestVoteProgramProperties:
    @given(expr=vote_exprs, seed=st.integers(0, 2**32 - 1))
    def test_interpreter_and_lowered_walk_agree_draw_for_draw(self, expr, seed):
        program = lower_program(expr)
        uniforms = np.random.default_rng(seed).random(80)
        tape = RecordingTape(uniforms)
        reference = evaluate_vote_expr(expr, tape)

        walked_consumed = {"count": 0}

        def next_uniform() -> float:
            value = uniforms[walked_consumed["count"]]
            walked_consumed["count"] += 1
            return float(value)

        assert program.walk(next_uniform) == reference
        assert walked_consumed["count"] == tape.consumed

    @given(expr=vote_exprs)
    def test_lowering_matches_the_independent_closed_form(self, expr):
        program = lower_program(expr)
        assert program.accept_probability == pytest.approx(
            _closed_form(expr), abs=1e-9
        )
        assert program.max_draws <= 64

    @given(expr=vote_exprs, seed=st.integers(0, 2**32 - 1))
    def test_structural_constants_are_honest(self, expr, seed):
        program = lower_program(expr)
        if program.constant is None:
            return
        uniforms = np.random.default_rng(seed).random(80)
        assert evaluate_vote_expr(expr, RecordingTape(uniforms)) == program.constant
        assert program.accept_probability == (1.0 if program.constant else 0.0)

    @given(
        expr_even=vote_exprs,
        expr_odd=vote_exprs,
        seed=st.integers(0, 10_000),
        trials=st.integers(1, 6),
    )
    @settings(max_examples=25)
    def test_compiled_exact_mode_matches_the_reference_decide_loop(
        self, expr_even, expr_odd, seed, trials
    ):
        """A decider whose per-node programs are the generated expressions:
        the engine's exact mode must reproduce the interpreted reference
        votes bit for bit, trial by trial."""

        class GeneratedDecider(ProgramDecider):
            radius = 0
            name = "generated-program-decider"

            def vote_program(self, ball):
                return expr_even if ball.center_output() % 2 == 0 else expr_odd

        network = cycle_network(6)
        configuration = Configuration(
            network, {node: index for index, node in enumerate(network.nodes())}
        )
        decider = GeneratedDecider()
        compiled = compile_decision(decider, configuration)
        engine_accepts = accept_vector(compiled, trials, seed=seed, salt=decider.name)
        for trial in range(trials):
            outcome = decider.decide(
                configuration, tape_factory=TapeFactory(seed, salt=decider.name, trial=trial)
            )
            assert outcome.accepted == bool(engine_accepts[trial])

    @given(expr=vote_exprs, seed=st.integers(0, 2**31))
    @settings(max_examples=25)
    def test_engine_is_chunk_invariant(self, expr, seed):
        class GeneratedDecider(ProgramDecider):
            radius = 0
            name = "generated-chunk-decider"

            def vote_program(self, ball):
                return expr

        network = cycle_network(5)
        configuration = Configuration(network, {node: 0 for node in network.nodes()})
        compiled = compile_decision(GeneratedDecider(), configuration)
        default = accept_vector(compiled, 64, seed=seed)
        with mock.patch.object(executor, "EXACT_BLOCK_BYTES", 128):
            tiny = accept_vector(compiled, 64, seed=seed)
        assert np.array_equal(default, tiny)


# --------------------------------------------------------------------------- #
# Output-program properties
# --------------------------------------------------------------------------- #
class TestOutputProgramProperties:
    @given(
        expr_even=output_exprs,
        expr_odd=output_exprs,
        seed=st.integers(0, 10_000),
        trials=st.integers(1, 5),
    )
    @settings(max_examples=40)
    def test_compiled_construction_matches_the_interpreted_reference(
        self, expr_even, expr_odd, seed, trials
    ):
        """The construction engine must equal per-trial
        interpretation of the same output programs against the reference
        tapes — same draw methods, same bounds, same values."""

        def program_of(ball):
            return expr_even if ball.center_id() % 2 == 0 else expr_odd

        algorithm = FunctionBallAlgorithm(
            lambda ball, tape: evaluate_output_expr(program_of(ball), tape),
            radius=0,
            randomized=True,
            name="generated-output-constructor",
            output_program=program_of,
        )
        network = cycle_network(6)
        compiled = compile_construction(algorithm, network)
        codes = construction_matrix(compiled, trials, seed=seed, salt="prop")
        for trial in range(trials):
            factory = TapeFactory(seed, salt="prop", trial=trial)
            expected = {
                node: evaluate_output_expr(
                    program_of(_ball(network, node)),
                    factory.tape_for(network.identity(node)),
                )
                for node in network.nodes()
            }
            assert compiled.decode_row(codes[trial]) == expected

    @given(expr=output_exprs, seed=st.integers(0, 2**31))
    @settings(max_examples=25)
    def test_construction_is_chunk_invariant(self, expr, seed):
        algorithm = FunctionBallAlgorithm(
            lambda ball, tape: evaluate_output_expr(expr, tape),
            radius=0,
            randomized=True,
            name="generated-chunk-constructor",
            output_program=lambda ball: expr,
        )
        compiled = compile_construction(algorithm, cycle_network(5))
        default = construction_matrix(compiled, 64, seed=seed)
        with mock.patch.object(construct, "EXACT_BLOCK_BYTES", 64):
            tiny = construction_matrix(compiled, 64, seed=seed)
        assert np.array_equal(default, tiny)


def _ball(network, node):
    from repro.local.ball import collect_ball

    return collect_ball(network, node, 0)
