"""The construction engine: IR semantics, bit-identity, chunking, lowering.

Coverage for :mod:`repro.engine.construct`:

* the output-program IR interprets exactly like the reference tape draws,
  and the compiled construction computes the per-trial
  ``TapeFactory(seed, salt, trial=t)`` streams bit for bit — checked at
  distant and adjacent seeds and under multiple salts;
* the sampled outputs match their closed-form frequencies within
  Monte-Carlo tolerance, and sampling is chunk-invariant: the same
  ``(seed, salt)`` yields the same ``trials × nodes`` matrix for any
  block size;
* membership lowering (radius-0 tables, proper-coloring neighbour checks,
  f-resilient / ε-slack thresholds) agrees with the reference
  ``language.contains`` on every sampled row;
* decider fusion tabulates radius-0 single-coin deciders and refuses
  multi-draw or positive-radius ones;
* the ``engine=`` contract: ``auto`` and ``off`` are the only values, and
  ``auto`` falls back to the reference loop for a constructor it cannot
  compile, counting the fallback with its reason (``engine.fallback.*``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.coloring.random_coloring import RandomColoringConstructor
from repro.core.construction import BallConstructor, estimate_success_probability
from repro.core.decision import AmplifiedResilientDecider
from repro.core.derandomization import choose_anchor, far_acceptance_probability
from repro.core.languages import Configuration
from repro.core.lcl import NotAllEqualLLL, ProperColoring
from repro.core.relaxations import eps_slack, f_resilient
from repro.engine import construct
from repro.engine.construct import (
    MAX_OUTPUT_VALUES,
    ConstructionCompilationError,
    ConstructionStream,
    bernoulli_output,
    compile_construction,
    compile_fused_decision,
    compile_membership,
    const_output,
    construction_matrix,
    evaluate_output_expr,
    far_acceptance_stream,
    is_construction_compilable,
    resolve_construction_engine,
    uniform_choice,
    uniform_int,
)
from repro.graphs.families import cycle_network, path_network
from repro.harness.experiments import (
    _toy_all_zeros_language,
    _toy_faulty_constructor,
    _toy_noisy_decider,
)
from repro.local.algorithm import FunctionBallAlgorithm
from repro.local.randomness import TapeFactory
from repro.obs import TraceRecorder, use_recorder
from tests.conftest import engine_ran, fallback_counters

#: Seeds of the exactness checks: distant ones and an adjacent pair.
SEEDS = (0, 1, 10_000)


def reference_outputs(constructor, network, seed, salt, trial):
    """One reference construction run (the per-trial tape-stream path)."""
    factory = TapeFactory(seed, salt=salt, trial=trial)
    return constructor.construct(network, tape_factory=factory)


# --------------------------------------------------------------------------- #
# IR semantics
# --------------------------------------------------------------------------- #
class TestOutputExprSemantics:
    @pytest.mark.parametrize("seed", [7, 10_007])
    def test_interpreter_matches_tape_methods(self, seed):
        """Interpreting a program consumes the tape exactly like the raw
        draw methods — same values, same number of draws, in sequence."""
        from repro.local.randomness import RandomTape

        tape = RandomTape(seed)
        mirror = RandomTape(seed)
        assert evaluate_output_expr(uniform_int(1, 3), tape) == mirror.randint(1, 3)
        choices = ("a", "b", "c")
        assert evaluate_output_expr(uniform_choice(choices), tape) == mirror.choice(choices)
        assert evaluate_output_expr(bernoulli_output(0.3, 1, 0), tape) == (
            1 if mirror.bernoulli(0.3) else 0
        )
        # Degenerate biases still consume their draw (RandomTape.bernoulli
        # always draws), keeping exact replay aligned.
        assert evaluate_output_expr(bernoulli_output(0.0, 1, 0), tape) == 0
        mirror.uniform()
        assert evaluate_output_expr(const_output("x"), tape) == "x"
        assert tape.draws == mirror.draws == 4

    def test_const_needs_no_tape(self):
        assert evaluate_output_expr(const_output(5), None) == 5
        with pytest.raises(ValueError):
            evaluate_output_expr(uniform_int(0, 1), None)

    def test_invalid_parameters_raise(self):
        with pytest.raises(ValueError):
            uniform_int(3, 1)
        with pytest.raises(ValueError):
            uniform_choice(())
        with pytest.raises(ValueError):
            bernoulli_output(1.5, 1, 0)


# --------------------------------------------------------------------------- #
# Bit-identity with the reference tapes
# --------------------------------------------------------------------------- #
class TestExactBitIdentity:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("salt", ["random-3-coloring/0", "hard/2", "far/construct"])
    def test_coloring_matrix_replays_reference_tapes(self, seed, salt):
        network = cycle_network(18, ids="consecutive")
        constructor = RandomColoringConstructor(3)
        compiled = compile_construction(constructor, network)
        trials = 25
        codes = construction_matrix(compiled, trials, seed=seed, salt=salt)
        for trial in (0, 7, trials - 1):
            expected = reference_outputs(constructor, network, seed, salt, trial)
            assert compiled.decode_row(codes[trial]) == expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bernoulli_matrix_replays_reference_tapes(self, seed):
        network = cycle_network(12)
        constructor = _toy_faulty_constructor(0.3)
        compiled = compile_construction(constructor, network)
        trials = 30
        codes = construction_matrix(compiled, trials, seed=seed, salt="far/construct")
        for trial in range(0, trials, 5):
            expected = reference_outputs(constructor, network, seed, "far/construct", trial)
            assert compiled.decode_row(codes[trial]) == expected

    @pytest.mark.parametrize("seed", SEEDS)
    def test_estimate_success_probability_auto_equals_off(self, seed):
        network = cycle_network(21, ids="consecutive")
        constructor = RandomColoringConstructor(3)
        for language in (
            ProperColoring(3),
            eps_slack(ProperColoring(3), 0.7),
            f_resilient(ProperColoring(3), 2),
        ):
            off = estimate_success_probability(
                constructor, language, [network], trials=60, seed=seed, engine="off"
            )
            with engine_ran():
                auto = estimate_success_probability(
                    constructor, language, [network], trials=60, seed=seed, engine="auto"
                )
            assert off.per_instance == auto.per_instance

    @pytest.mark.parametrize("seed", SEEDS)
    def test_far_acceptance_auto_equals_off(self, seed):
        network = cycle_network(14)
        constructor = _toy_faulty_constructor(0.3)
        decider = _toy_noisy_decider(0.8)
        node = network.nodes()[5]
        off = far_acceptance_probability(
            constructor, decider, network, node, 1, trials=80, seed=seed, engine="off"
        )
        with engine_ran():
            auto = far_acceptance_probability(
                constructor, decider, network, node, 1, trials=80, seed=seed, engine="auto"
            )
        assert off == auto

    @pytest.mark.parametrize("seed", SEEDS)
    def test_choose_anchor_shares_one_matrix_bit_identically(self, seed):
        """The batched anchor choice (one construction pass for all
        candidates) must agree exactly with the per-candidate reference."""
        network = cycle_network(10)
        constructor = _toy_faulty_constructor(0.4)
        decider = _toy_noisy_decider(0.8)
        off = choose_anchor(
            constructor, decider, network, 0, trials=50, seed=seed, engine="off"
        )
        with engine_ran():
            auto = choose_anchor(
                constructor, decider, network, 0, trials=50, seed=seed, engine="auto"
            )
        assert off == auto


# --------------------------------------------------------------------------- #
# Distribution and chunk invariance
# --------------------------------------------------------------------------- #
class TestDistributionAndChunking:
    def test_output_frequencies_match_closed_form(self):
        network = cycle_network(30)
        constructor = RandomColoringConstructor(3)
        compiled = compile_construction(constructor, network)
        trials = 6_000
        codes = construction_matrix(compiled, trials, seed=5)
        # Each color appears with probability 1/3 at every node.
        for code in range(3):
            frequency = float(np.count_nonzero(codes == code)) / codes.size
            assert abs(frequency - 1.0 / 3.0) < 0.02

    def test_bernoulli_frequency_matches_q(self):
        network = cycle_network(20)
        q = 0.3
        constructor = _toy_faulty_constructor(q)
        compiled = compile_construction(constructor, network)
        codes = construction_matrix(compiled, 5_000, seed=3)
        one = compiled.values.index(1)
        frequency = float(np.count_nonzero(codes == one)) / codes.size
        assert abs(frequency - q) < 0.02

    @pytest.mark.parametrize("block_bytes", [64, 4096, 1 << 20])
    def test_matrix_is_chunk_invariant(self, block_bytes, monkeypatch):
        network = cycle_network(24, ids="consecutive")
        constructor = RandomColoringConstructor(3)
        compiled = compile_construction(constructor, network)
        monkeypatch.setattr(construct, "EXACT_BLOCK_BYTES", 1 << 30)
        reference = construction_matrix(compiled, 500, seed=9, salt="chunk")
        monkeypatch.setattr(construct, "EXACT_BLOCK_BYTES", block_bytes)
        chunked = construction_matrix(compiled, 500, seed=9, salt="chunk")
        assert np.array_equal(reference, chunked)

    @pytest.mark.parametrize("offset", [0, 1, 37])
    def test_stream_started_at_an_offset_continues_the_matrix(self, offset, monkeypatch):
        """A stream started at trial ``o`` samples rows ``o, o+1, …`` of the
        stream started at 0, at any block size."""
        network = cycle_network(24, ids="consecutive")
        compiled = compile_construction(RandomColoringConstructor(3), network)
        reference = construction_matrix(compiled, offset + 90, seed=6, salt="window")
        monkeypatch.setattr(construct, "EXACT_BLOCK_BYTES", 64)
        stream = ConstructionStream(compiled, seed=6, salt="window", offset=offset)
        window = np.concatenate([stream.sample(40), stream.sample(50)])
        assert np.array_equal(window, reference[offset:])

    def test_fused_vote_stream_is_chunk_invariant(self):
        """The resumable vote stream over uneven chunks equals one
        ``vote_row_exact`` call on the whole matrix."""
        network = cycle_network(16)
        constructor = _toy_faulty_constructor(0.4)
        decider = _toy_noisy_decider(0.8)
        compiled = compile_construction(constructor, network)
        fused = compile_fused_decision(decider, compiled)
        codes = construction_matrix(compiled, 400, seed=2, salt="s")
        reference = fused.vote_row_exact(codes, 2, "d")
        stream = fused.fast_vote_stream(2, "d")
        chunks = [stream(codes[lo:hi]) for lo, hi in ((0, 1), (1, 65), (65, 66), (66, 400))]
        assert np.array_equal(reference, np.concatenate(chunks))

    def test_acceptance_tracks_closed_form(self):
        """With the all-zeros language and the noisy decider, acceptance is
        ((1-q) + q(1-p))^n exactly (independent nodes, one coin each)."""
        q, p, n = 0.1, 0.8, 12
        network = cycle_network(n)
        from repro.core.derandomization import _estimate_acceptance_and_membership

        with engine_ran():
            acceptance, membership = _estimate_acceptance_and_membership(
                _toy_faulty_constructor(q),
                _toy_noisy_decider(p),
                _toy_all_zeros_language(),
                network,
                6_000,
                seed=4,
                engine="auto",
            )
        closed_acceptance = ((1 - q) + q * (1 - p)) ** n
        closed_membership = (1 - q) ** n
        assert abs(acceptance - closed_acceptance) < 0.02
        assert abs(membership - closed_membership) < 0.02


# --------------------------------------------------------------------------- #
# Membership lowering
# --------------------------------------------------------------------------- #
class TestMembershipLowering:
    @pytest.mark.parametrize(
        "language_factory",
        [
            lambda: ProperColoring(3),
            lambda: ProperColoring(None),
            lambda: eps_slack(ProperColoring(3), 0.6),
            lambda: f_resilient(ProperColoring(3), 2),
        ],
    )
    def test_proper_coloring_family_matches_reference(self, language_factory):
        language = language_factory()
        network = path_network(13, ids="consecutive")
        constructor = RandomColoringConstructor(4)
        compiled = compile_construction(constructor, network)
        membership = compile_membership(language, compiled)
        assert membership is not None
        codes = construction_matrix(compiled, 200, seed=6)
        lowered = membership.member_vector(codes)
        for trial in range(0, 200, 17):
            configuration = Configuration(network, compiled.decode_row(codes[trial]))
            assert bool(lowered[trial]) == language.contains(configuration)

    def test_radius_zero_table_matches_reference(self):
        language = _toy_all_zeros_language()
        network = cycle_network(9)
        constructor = _toy_faulty_constructor(0.5)
        compiled = compile_construction(constructor, network)
        membership = compile_membership(language, compiled)
        assert membership is not None
        codes = construction_matrix(compiled, 100, seed=8)
        lowered = membership.member_vector(codes)
        counts = membership.bad_counts(codes)
        for trial in range(100):
            configuration = Configuration(network, compiled.decode_row(codes[trial]))
            assert bool(lowered[trial]) == language.contains(configuration)
            assert int(counts[trial]) == language.violation_count(configuration)

    def test_inexpressible_language_returns_none_and_falls_back(self):
        """A radius-1 LCL outside the lowered shapes (not-all-equal) has no
        array form; the batched estimators still work through the decoded
        per-trial membership and stay bit-identical to ``off``.  Decoding is
        an engine sub-path, not a reference fallback, so nothing is
        counted."""
        network = cycle_network(9)
        constructor = _toy_faulty_constructor(0.5)
        compiled = compile_construction(constructor, network)
        assert compile_membership(NotAllEqualLLL(), compiled) is None
        for seed in SEEDS:
            off = estimate_success_probability(
                constructor, NotAllEqualLLL(), [network], trials=40, seed=seed,
                engine="off",
            )
            with engine_ran():
                auto = estimate_success_probability(
                    constructor, NotAllEqualLLL(), [network], trials=40, seed=seed,
                    engine="auto",
                )
            assert off.per_instance == auto.per_instance


# --------------------------------------------------------------------------- #
# Decider fusion
# --------------------------------------------------------------------------- #
class TestFusedDecision:
    def test_single_coin_decider_fuses(self):
        network = cycle_network(8)
        compiled = compile_construction(_toy_faulty_constructor(0.2), network)
        fused = compile_fused_decision(_toy_noisy_decider(0.8), compiled)
        assert fused is not None
        # Output 0 accepts surely; output 1 takes one coin of bias 1 - p.
        zero = compiled.values.index(0)
        one = compiled.values.index(1)
        assert np.all(fused.on_true[:, zero]) and np.all(fused.on_false[:, zero])
        assert np.all(fused.on_true[:, one]) and not np.any(fused.on_false[:, one])
        assert np.allclose(fused.thresholds[:, one], 0.2)

    def test_multi_draw_decider_does_not_fuse(self):
        network = cycle_network(9, ids="consecutive")
        compiled = compile_construction(RandomColoringConstructor(3), network)
        # The amplified resilient decider consumes k draws per bad ball and
        # checks radius 1 — fusion must decline on both counts.
        decider = AmplifiedResilientDecider(ProperColoring(3), f=2, repetitions=3)
        assert compile_fused_decision(decider, compiled) is None

    def test_far_acceptance_stream_declines_without_fusion(self):
        network = cycle_network(9, ids="consecutive")
        decider = AmplifiedResilientDecider(ProperColoring(3), f=2, repetitions=3)
        assert (
            far_acceptance_stream(
                RandomColoringConstructor(3),
                decider,
                network,
                [network.nodes()[0]],
                0,
                seed=0,
                construct_salt="c",
                decide_salt="d",
            )
            is None
        )


# --------------------------------------------------------------------------- #
# The engine= contract
# --------------------------------------------------------------------------- #
class TestEngineContract:
    @staticmethod
    def _plain():
        """A randomized constructor without an ``output_program``."""
        return BallConstructor(
            FunctionBallAlgorithm(
                lambda ball, tape: tape.bit(), radius=0, randomized=True, name="plain"
            )
        )

    def test_compilability_probe(self):
        assert is_construction_compilable(RandomColoringConstructor(3))
        assert is_construction_compilable(_toy_faulty_constructor(0.1))
        assert not is_construction_compilable(self._plain())

    def test_auto_counts_no_program_and_removed_values_raise(self):
        plain = self._plain()
        with use_recorder(TraceRecorder()) as recorder:
            assert resolve_construction_engine("auto", plain) == "off"
        assert fallback_counters(recorder.counters) == {"engine.fallback.no_program": 1}
        assert resolve_construction_engine("off", plain) == "off"
        assert resolve_construction_engine("auto", RandomColoringConstructor(3)) == "engine"
        for removed in ("exact", "warp", "fast"):
            with pytest.raises(ValueError):
                resolve_construction_engine(removed, plain)
        network = cycle_network(6)
        language = _toy_all_zeros_language()
        off = estimate_success_probability(
            plain, language, [network], trials=10, seed=0, engine="off"
        )
        with use_recorder(TraceRecorder()) as recorder:
            auto = estimate_success_probability(
                plain, language, [network], trials=10, seed=0, engine="auto"
            )
        assert auto.per_instance == off.per_instance
        assert fallback_counters(recorder.counters) == {"engine.fallback.no_program": 1}
        with pytest.raises(ValueError):
            estimate_success_probability(
                plain, language, [network], trials=10, seed=0, engine="exact"
            )

    def test_find_hard_instances_counts_no_program(self):
        """find_hard_instances has no decider side: a non-compilable
        constructor runs the reference loop under ``auto``, and the fallback
        is counted rather than silent."""
        from repro.core.derandomization import find_hard_instances

        plain = self._plain()
        language = _toy_all_zeros_language()
        kwargs = dict(beta=0.1, count=1, trials=10, seed=0)
        off = find_hard_instances(plain, language, [cycle_network(6)], engine="off", **kwargs)
        with use_recorder(TraceRecorder()) as recorder:
            auto = find_hard_instances(
                plain, language, [cycle_network(6)], engine="auto", **kwargs
            )
        # The instance is genuinely hard on both paths, at the same rate.
        assert [h.estimated_failure for h in auto] == [h.estimated_failure for h in off]
        assert len(auto) == 1
        assert fallback_counters(recorder.counters) == {"engine.fallback.no_program": 1}
        with pytest.raises(ValueError):
            find_hard_instances(plain, language, [cycle_network(6)], engine="exact", **kwargs)

    def test_construction_beyond_ir_falls_back_and_counts(self):
        """An output program the construction engine cannot express (an
        unhashable output) runs the reference loop under ``auto``, counted
        as ``engine.fallback.beyond_ir``."""
        constructor = BallConstructor(
            FunctionBallAlgorithm(
                lambda ball, tape: [1] if tape.bernoulli(0.3) else 0,
                radius=0,
                randomized=True,
                name="unhashable-one",
                output_program=lambda ball: bernoulli_output(0.3, [1], 0),
            )
        )
        language = _toy_all_zeros_language()
        networks = [cycle_network(4), cycle_network(5)]
        off = estimate_success_probability(
            constructor, language, networks, trials=20, seed=1, engine="off"
        )
        with use_recorder(TraceRecorder()) as recorder:
            auto = estimate_success_probability(
                constructor, language, networks, trials=20, seed=1, engine="auto"
            )
        assert auto.per_instance == off.per_instance
        assert 0.0 < off.per_instance[0][0] < 1.0
        assert fallback_counters(recorder.counters) == {"engine.fallback.beyond_ir": 2}

    def test_deterministic_constructor_validates_engine_name_only(self):
        """A deterministic constructor has no coins to batch: ``auto`` and
        ``off`` run the single reference pass without counting a fallback,
        and any other name raises."""
        deterministic = BallConstructor(
            FunctionBallAlgorithm(lambda ball: 0, radius=0, name="zeros")
        )
        network = cycle_network(6)
        language = _toy_all_zeros_language()
        for engine in ("auto", "off"):
            with engine_ran():
                estimate = estimate_success_probability(
                    deterministic, language, [network], trials=10, seed=0, engine=engine
                )
            assert estimate.success_probability == 1.0
        for name in ("bogus", "exact"):
            with pytest.raises(ValueError):
                estimate_success_probability(
                    deterministic, language, [network], trials=10, seed=0, engine=name
                )

    def test_coloring_counter_is_chunk_invariant_under_tiny_budgets(self, monkeypatch):
        network = cycle_network(15, ids="consecutive")
        constructor = RandomColoringConstructor(3)
        compiled = compile_construction(constructor, network)
        codes = construction_matrix(compiled, 300, seed=11)
        reference = compile_membership(ProperColoring(3), compiled).bad_counts(codes)
        monkeypatch.setattr(construct, "WORKING_SET_BYTES", 64)
        tiny = compile_membership(ProperColoring(3), compiled).bad_counts(codes)
        assert np.array_equal(reference, tiny)

    def test_oversized_alphabet_raises_clear_error(self):
        constructor = BallConstructor(
            FunctionBallAlgorithm(
                lambda ball, tape: tape.randint(0, MAX_OUTPUT_VALUES),
                radius=0,
                randomized=True,
                name="huge-alphabet",
                output_program=lambda ball: uniform_int(0, MAX_OUTPUT_VALUES),
            )
        )
        with pytest.raises(ConstructionCompilationError):
            compile_construction(constructor, cycle_network(4))

    def test_unhashable_output_raises_clear_error(self):
        constructor = BallConstructor(
            FunctionBallAlgorithm(
                lambda ball, tape: [1] if tape.bernoulli(0.5) else [0],
                radius=0,
                randomized=True,
                name="unhashable",
                output_program=lambda ball: bernoulli_output(0.5, [1], [0]),
            )
        )
        with pytest.raises(ConstructionCompilationError):
            compile_construction(constructor, cycle_network(4))

    def test_equal_values_share_a_code(self):
        """Interning follows value equality (True == 1), matching the ==
        comparisons of the reference membership predicates."""
        constructor = BallConstructor(
            FunctionBallAlgorithm(
                lambda ball, tape: True if tape.bernoulli(0.5) else 1,
                radius=0,
                randomized=True,
                name="alias",
                output_program=lambda ball: bernoulli_output(0.5, True, 1),
            )
        )
        compiled = compile_construction(constructor, cycle_network(4))
        assert len(compiled.values) == 1
