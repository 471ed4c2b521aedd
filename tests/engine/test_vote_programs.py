"""Multi-draw vote programs: IR semantics, bit-identity, chunking, limits.

The satellite coverage for the vote-program compiler path:

* multi-draw deciders are **bit-identical** between the engine and the
  reference loop under a fixed seed;
* engine estimates match the closed-form acceptance within Monte-Carlo
  tolerance, and the stream is independent of the chunking;
* a decider whose draw counts exceed what the IR can express fails to
  compile with a clear error, and ``engine="auto"`` then runs the reference
  loop and counts ``engine.fallback.beyond_ir`` instead of misreporting.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decision import (
    AmplifiedAmosDecider,
    AmplifiedResilientDecider,
    ProgramDecider,
    ResilientDecider,
    estimate_guarantee,
    golden_ratio_guarantee,
    majority_success_probability,
    per_draw_probability_for_majority,
)
from repro.core.languages import SELECTED, Amos, Configuration
from repro.core.lcl import ProperColoring
from repro.engine.adapters import engine_or_reference
from repro.engine.construct import ConstructionCompilationError
from repro.engine.compiler import (
    MAX_PROGRAM_DRAWS,
    ProgramCompilationError,
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
from repro.engine import executor
from repro.engine.executor import accept_vector, vote_matrix
from repro.graphs.families import cycle_network
from repro.local.randomness import RandomTape, TapeFactory
from repro.obs import TraceRecorder, use_recorder
from tests.conftest import engine_ran, fallback_counters


def broken_coloring(n, conflicts):
    network = cycle_network(n)
    nodes = network.nodes()
    colors = {node: (index % 3) + 1 for index, node in enumerate(nodes)}
    step = max(3, n // max(conflicts, 1))
    for planted in range(conflicts):
        index = planted * step
        colors[nodes[index]] = colors[nodes[index + 1]]
    return Configuration(network, colors)


def amos_configuration(n, selected_positions):
    network = cycle_network(n)
    nodes = network.nodes()
    return Configuration(
        network,
        {
            node: (SELECTED if index in selected_positions else "")
            for index, node in enumerate(nodes)
        },
    )


def legacy_per_trial_accepts(decider, configuration, trials, seed):
    accepts = []
    for trial in range(trials):
        factory = TapeFactory(seed, salt=decider.name, trial=trial)
        accepts.append(decider.decide(configuration, tape_factory=factory).accepted)
    return np.array(accepts, dtype=bool)


EXPRESSIONS = [
    majority(3, 0.6),
    majority(5, 0.55, threshold=4),
    all_of(coin(0.7), any_of(coin(0.2), neg(coin(0.9))), coin(0.5)),
    branch(coin(0.3), all_of(coin(0.9), coin(0.9)), neg(coin(0.1))),
    any_of(coin(0.05), const(False), coin(0.05)),
]


class TestExpressionLowering:
    @pytest.mark.parametrize("expr", EXPRESSIONS, ids=[str(i) for i in range(len(EXPRESSIONS))])
    def test_lowered_program_matches_interpreter_bit_for_bit(self, expr):
        """Walking the lowered program over a tape's uniform stream must give
        the interpreter's result for every seed (same draws consumed)."""
        program = lower_program(expr)
        for seed in range(300):
            tape = RandomTape(seed)
            reference = evaluate_vote_expr(expr, tape)
            assert program.walk(RandomTape(seed).uniform) is reference

    @pytest.mark.parametrize("expr", EXPRESSIONS, ids=[str(i) for i in range(len(EXPRESSIONS))])
    def test_accept_probability_closed_form(self, expr):
        program = lower_program(expr)
        estimate = float(
            np.mean([evaluate_vote_expr(expr, RandomTape(1000 + s)) for s in range(4000)])
        )
        assert estimate == pytest.approx(program.accept_probability, abs=0.03)

    def test_constant_folding_is_structural(self):
        assert lower_program(const(True)).constant is True
        assert lower_program(all_of(coin(0.5), const(False))).constant is False
        # Both edges of the coin reach ACCEPT, so the vote is structurally
        # constant even though a draw is consumed along the way.
        assert lower_program(any_of(coin(0.5), const(True))).constant is True
        assert lower_program(coin(0.5)).constant is None
        # Degenerate thresholds prune edges: coin() folds them to constants.
        assert lower_program(coin(0.0)).constant is False
        assert lower_program(coin(1.0)).constant is True

    def test_draw_cap_raises_clear_error(self):
        too_deep = all_of(*[coin(0.9) for _ in range(MAX_PROGRAM_DRAWS + 1)])
        with pytest.raises(ProgramCompilationError, match="sequential"):
            lower_program(too_deep)

    def test_exactly_max_draws_still_compiles(self):
        program = lower_program(all_of(*[coin(0.9) for _ in range(MAX_PROGRAM_DRAWS)]))
        assert program.max_draws == MAX_PROGRAM_DRAWS

    def test_far_too_deep_chain_raises_cap_not_recursion_error(self):
        """The draw cap must fire before the lowering recursion can hit the
        interpreter's stack limit (regression: a 1500-coin chain used to
        raise RecursionError, escaping the engine=\"auto\" fallback)."""
        chain = all_of(*[coin(0.5) for _ in range(1500)])
        with pytest.raises(ProgramCompilationError):
            lower_program(chain)

    def test_shared_subexpressions_lower_linearly(self):
        """majority() is a densely shared DAG; lowering must memoize the
        shared states (regression: per-path expansion gave 2^k − 1 nodes and
        overflowed the node cap at k = 13)."""
        for count in (13, 21, 41):
            program = lower_program(majority(count, 0.6))
            assert program.max_draws == count
            assert program.n_nodes <= count * (count + 2)

    def test_majority_consumes_all_draws_eagerly(self):
        """The majority combinator mirrors an eager tally loop: every path
        consumes every draw, even once the outcome is decided."""
        program = lower_program(majority(5, 0.5))
        assert program.max_draws == 5
        for seed in range(50):
            consumed = 0

            def draw():
                nonlocal consumed
                consumed += 1
                return float(np.random.default_rng((seed, consumed)).random())

            program.walk(draw)
            assert consumed == 5


class _TooManyDrawsDecider(ProgramDecider):
    """A decider whose per-node rule needs more draws than the IR allows."""

    name = "too-many-draws"
    radius = 0

    def vote_program(self, ball):
        return all_of(*[coin(0.999) for _ in range(MAX_PROGRAM_DRAWS + 1)])


MULTI_DRAW_CASES = [
    (
        "amplified-resilient",
        AmplifiedResilientDecider(ProperColoring(3), f=2, repetitions=3),
        broken_coloring(21, 2),
    ),
    (
        "amplified-resilient-k5",
        AmplifiedResilientDecider(ProperColoring(3), f=1, repetitions=5),
        broken_coloring(18, 1),
    ),
    (
        "amplified-amos",
        AmplifiedAmosDecider(repetitions=3),
        amos_configuration(20, {0, 9}),
    ),
]


class TestMultiDrawDeciders:
    @pytest.mark.parametrize(
        "label,decider,configuration", MULTI_DRAW_CASES, ids=[c[0] for c in MULTI_DRAW_CASES]
    )
    @pytest.mark.parametrize("seed", [0, 23])
    def test_exact_mode_bit_identical_to_reference(self, label, decider, configuration, seed):
        trials = 60
        reference = legacy_per_trial_accepts(decider, configuration, trials, seed)
        compiled = compile_decision(decider, configuration)
        engine = accept_vector(compiled, trials, seed=seed, salt=decider.name)
        assert np.array_equal(engine, reference)

    @pytest.mark.parametrize(
        "label,decider,configuration", MULTI_DRAW_CASES, ids=[c[0] for c in MULTI_DRAW_CASES]
    )
    def test_acceptance_probability_auto_equals_off(self, label, decider, configuration):
        off = decider.acceptance_probability(configuration, trials=80, seed=5, engine="off")
        with engine_ran():
            auto = decider.acceptance_probability(configuration, trials=80, seed=5, engine="auto")
        assert off == auto

    @pytest.mark.parametrize(
        "label,decider,configuration", MULTI_DRAW_CASES, ids=[c[0] for c in MULTI_DRAW_CASES]
    )
    def test_engine_matches_closed_form(self, label, decider, configuration):
        compiled = compile_decision(decider, configuration)
        accepted = accept_vector(compiled, 8000, seed=2)
        estimate = float(np.count_nonzero(accepted)) / 8000
        assert estimate == pytest.approx(compiled.deterministic_accept_probability, abs=0.03)

    def test_amplification_preserves_the_single_coin_distribution(self):
        """The amplified resilient decider is calibrated so its per-bad-ball
        acceptance equals the single-coin decider's p exactly."""
        language = ProperColoring(3)
        plain = ResilientDecider(language, f=2)
        amplified = AmplifiedResilientDecider(language, f=2, repetitions=3)
        assert amplified.p_bad_ball == pytest.approx(plain.p_bad_ball)
        assert majority_success_probability(
            amplified.per_draw_probability, 3
        ) == pytest.approx(amplified.p_bad_ball, abs=1e-9)
        configuration = broken_coloring(21, 2)
        compiled_plain = compile_decision(plain, configuration)
        compiled_amplified = compile_decision(amplified, configuration)
        assert compiled_amplified.deterministic_accept_probability == pytest.approx(
            compiled_plain.deterministic_accept_probability
        )

    def test_calibration_helpers_roundtrip(self):
        for target in (0.55, golden_ratio_guarantee(), 0.9):
            for repetitions in (1, 3, 5, 7):
                per_draw = per_draw_probability_for_majority(target, repetitions)
                assert majority_success_probability(per_draw, repetitions) == pytest.approx(
                    target, abs=1e-9
                )


class TestChunkedExecution:
    @pytest.mark.parametrize(
        "label,decider,configuration", MULTI_DRAW_CASES, ids=[c[0] for c in MULTI_DRAW_CASES]
    )
    def test_accept_vector_independent_of_block_size(
        self, label, decider, configuration, monkeypatch
    ):
        """Any block size gives the same stream: counter-based draws make
        the engine chunk-invariant."""
        compiled = compile_decision(decider, configuration)
        unchunked = accept_vector(compiled, 500, seed=7)
        for block_bytes in (1, 4_000, 64 * 1024):
            monkeypatch.setattr(executor, "EXACT_BLOCK_BYTES", block_bytes)
            chunked = accept_vector(compiled, 500, seed=7)
            assert np.array_equal(chunked, unchunked), block_bytes

    def test_trial_axis_is_chunked_and_stream_invariant(self, monkeypatch):
        """When a single node column at full trials exceeds the block, the
        trial axis is sliced — and each trial's draws depend only on its own
        keys, so the sliced stream is identical to the unsliced one."""
        decider = AmplifiedResilientDecider(ProperColoring(3), f=2, repetitions=3)
        configuration = broken_coloring(21, 2)
        compiled = compile_decision(decider, configuration)
        trials = 4000  # one 3-draw column = 96 kB at full trials
        monkeypatch.setattr(executor, "EXACT_BLOCK_BYTES", 1 << 30)
        unbounded = accept_vector(compiled, trials, seed=9)
        monkeypatch.setattr(executor, "EXACT_BLOCK_BYTES", 1024)
        tightly_bounded = accept_vector(compiled, trials, seed=9)
        assert np.array_equal(tightly_bounded, unbounded)

    def test_vote_matrix_independent_of_block_size(self, monkeypatch):
        decider = AmplifiedResilientDecider(ProperColoring(3), f=2, repetitions=3)
        configuration = broken_coloring(21, 3)
        compiled = compile_decision(decider, configuration)
        unchunked = vote_matrix(compiled, 200, seed=3)
        monkeypatch.setattr(executor, "EXACT_BLOCK_BYTES", 1)
        chunked = vote_matrix(compiled, 200, seed=3)
        assert np.array_equal(chunked, unchunked)

    def test_max_bytes_is_not_a_parameter(self):
        compiled = compile_decision(AmplifiedAmosDecider(), amos_configuration(9, {0}))
        with pytest.raises(TypeError):
            accept_vector(compiled, 10, max_bytes=1024)

    def test_environment_does_not_size_the_blocks(self, monkeypatch):
        compiled = compile_decision(AmplifiedAmosDecider(), amos_configuration(9, {0, 4}))
        monkeypatch.delenv("REPRO_ENGINE_MAX_BYTES", raising=False)
        baseline = accept_vector(compiled, 300, seed=1)
        monkeypatch.setenv("REPRO_ENGINE_MAX_BYTES", "not-a-number")
        assert np.array_equal(accept_vector(compiled, 300, seed=1), baseline)


class TestInexpressibleDeciders:
    def test_compile_error_is_clear_and_auto_counts_it(self):
        decider = _TooManyDrawsDecider()
        configuration = amos_configuration(9, {0})
        with pytest.raises(ProgramCompilationError) as excinfo:
            compile_decision(decider, configuration)
        message = str(excinfo.value)
        assert "sequential draws" in message and 'engine="off"' in message
        assert decider.name in message
        off = decider.acceptance_probability(configuration, trials=10, engine="off")
        with use_recorder(TraceRecorder()) as recorder:
            auto = decider.acceptance_probability(configuration, trials=10, engine="auto")
        assert auto == off
        assert fallback_counters(recorder.counters) == {"engine.fallback.beyond_ir": 1}

    def test_estimate_guarantee_counts_one_fallback_per_configuration(self):
        decider = _TooManyDrawsDecider()
        configurations = [amos_configuration(9, {0}), amos_configuration(9, {0, 4})]
        off = estimate_guarantee(decider, Amos(), configurations, trials=10, engine="off")
        with use_recorder(TraceRecorder()) as recorder:
            auto = estimate_guarantee(decider, Amos(), configurations, trials=10, engine="auto")
        assert auto.per_configuration == off.per_configuration
        assert fallback_counters(recorder.counters) == {"engine.fallback.beyond_ir": 2}

    def test_reference_path_still_works(self):
        """engine="off" keeps running deciders the IR cannot express."""
        decider = _TooManyDrawsDecider()
        configuration = amos_configuration(9, {0})
        estimate = decider.acceptance_probability(
            configuration, trials=20, seed=0, engine="off"
        )
        assert 0.0 <= estimate <= 1.0

    def test_program_deciders_are_compilable(self):
        assert is_compilable(AmplifiedAmosDecider())
        assert is_compilable(AmplifiedResilientDecider(ProperColoring(3), f=1))


class TestEngineOrReference:
    """The one engine/reference dispatch of the estimators, and the
    ``engine.fallback.*`` counts it records."""

    @staticmethod
    def _dispatch(path, build_engine):
        with use_recorder(TraceRecorder()) as recorder:
            built = engine_or_reference(path, build_engine, lambda: "ref")
        return built, fallback_counters(recorder.counters)

    def test_off_path_never_builds_from_the_engine(self):
        def engine():
            raise AssertionError("the engine must not run on the off path")

        assert self._dispatch("off", engine) == ("ref", {})

    def test_engine_result_is_used_uncounted(self):
        assert self._dispatch("engine", lambda: "eng") == ("eng", {})

    def test_declined_engine_falls_back_and_counts_declined(self):
        assert self._dispatch("engine", lambda: None) == (
            "ref",
            {"engine.fallback.declined": 1},
        )

    @pytest.mark.parametrize("error", [ProgramCompilationError, ConstructionCompilationError])
    def test_compile_errors_fall_back_and_count_beyond_ir(self, error):
        def beyond_the_ir():
            raise error("beyond the IR")

        assert self._dispatch("engine", beyond_the_ir) == (
            "ref",
            {"engine.fallback.beyond_ir": 1},
        )

    def test_other_errors_propagate_uncounted(self):
        def broken():
            raise KeyError("not a compile error")

        with use_recorder(TraceRecorder()) as recorder:
            with pytest.raises(KeyError):
                engine_or_reference("engine", broken, lambda: "ref")
        assert fallback_counters(recorder.counters) == {}

    def test_auto_falls_back_for_an_inexpressible_decider(self):
        """Under ``auto`` a vote program beyond the IR runs the reference
        stream, so every estimate equals ``engine="off"``."""
        decider = _TooManyDrawsDecider()
        configuration = amos_configuration(9, {0, 3})
        for precision in (None, 0.1):
            auto = decider.acceptance_estimate(
                configuration, trials=300, seed=2, precision=precision
            )
            off = decider.acceptance_estimate(
                configuration, trials=300, seed=2, engine="off", precision=precision
            )
            assert auto == off
        auto = estimate_guarantee(decider, Amos(), [configuration], trials=80, seed=2)
        off = estimate_guarantee(decider, Amos(), [configuration], trials=80, seed=2, engine="off")
        assert auto.per_configuration == off.per_configuration
        assert auto.trials_used == off.trials_used
