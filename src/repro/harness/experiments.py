"""The paper's quantitative claims as runnable experiments (E1–E10).

Each function reproduces one entry of DESIGN.md's experiment index and
returns an :class:`~repro.harness.results.ExperimentResult` whose rows are
what the corresponding bench prints and whose ``matches_paper`` verdict
applies the experiment's acceptance criterion.  The functions take their
workload sizes and trial counts as parameters so the same code runs at full
scale from ``benchmarks/`` and at toy scale from the integration tests.

The paper has no numbered tables or figures; the claims reproduced here are
the quantitative statements of the text (guarantees, probability windows,
lower-bound shapes, and the error-amplification bounds of the proof of
Theorem 1).  EXPERIMENTS.md records paper-vs-measured for each.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.coloring.cole_vishkin import (
    ColeVishkinConstructor,
    oriented_cycle_network,
)
from repro.algorithms.coloring.greedy import greedy_coloring_by_identity
from repro.algorithms.coloring.random_coloring import (
    RandomColoringConstructor,
    expected_proper_fraction,
)
from repro.algorithms.coloring.reduction import ColorReductionConstructor
from repro.algorithms.matching.proposal_matching import ProposalMatchingConstructor
from repro.algorithms.mis.luby import LubyMISConstructor
from repro.analysis.logstar import cole_vishkin_round_bound, log_star
from repro.core.classes import amos_separation_report
from repro.core.construction import BallConstructor, estimate_success_probability
from repro.core.decision import (
    AmosDecider,
    AmplifiedResilientDecider,
    LocalCheckerDecider,
    RandomizedDecider,
    ResilientDecider,
    golden_ratio_guarantee,
)
from repro.core.derandomization import (
    amplification_disjoint_union,
    amplification_glued,
    far_acceptance_probability,
    mu_from_guarantee,
    nu_disconnected,
)
from repro.core.languages import SELECTED, Amos, Configuration
from repro.core.lcl import (
    MaximalIndependentSet,
    MaximalMatching,
    PredicateLCL,
    ProperColoring,
)
from repro.core.order_invariant import (
    cycle_ball_patterns,
    enumerate_order_invariant_cycle_algorithms,
    monochromatic_core,
)
from repro.core.relaxations import eps_slack, f_resilient
from repro.engine.compiler import coin
from repro.engine.construct import (
    batched_bad_counts,
    bernoulli_output,
    resolve_construction_engine,
)
from repro.graphs.families import cycle_network, path_network
from repro.graphs.random_graphs import random_regular_network
from repro.harness.results import ExperimentResult
from repro.local.algorithm import FunctionBallAlgorithm
from repro.local.network import Network
from repro.local.randomness import TapeFactory
from repro.stats import PrecisionTarget, ProbabilityEstimate, tri_all, wilson_interval

__all__ = [
    "experiment_e1_amos_decider",
    "experiment_e2_eps_slack_random_coloring",
    "experiment_e3_resilient_lower_bound",
    "experiment_e4_logstar_coloring",
    "experiment_e5_resilient_decider",
    "experiment_e6_error_amplification",
    "experiment_e7_separations",
    "experiment_e8_slack_vs_resilient",
    "experiment_e9_far_acceptance",
    "experiment_e10_baselines",
]


# --------------------------------------------------------------------------- #
# Shared workload helpers
# --------------------------------------------------------------------------- #
def _amos_configuration(network, selected_count: int) -> Configuration:
    nodes = network.nodes()
    spread = max(1, len(nodes) // max(selected_count, 1))
    selected = {nodes[(index * spread) % len(nodes)] for index in range(selected_count)}
    # ``spread`` may collide on tiny graphs; top up deterministically.
    iterator = iter(nodes)
    while len(selected) < selected_count:
        selected.add(next(iterator))
    return Configuration(
        network, {node: (SELECTED if node in selected else "") for node in nodes}
    )


def _planting_error(message: str) -> Exception:
    """The typed error (HTTP 400, never retried) of an unplantable request."""
    from repro.harness.registry import ParameterValueError  # imports this module

    return ParameterValueError(message)


def _cycle_coloring_with_bad_balls(network: Network, bad_balls: int) -> Configuration:
    """A 3-coloring of a cycle ``network`` built by :func:`cycle_network`
    (nodes in cyclic order, n divisible by 3) with exactly ``bad_balls`` bad
    balls, planted as ``bad_balls // 2`` isolated conflicting edges
    (bad_balls must be even and at most 2n/3)."""
    n = len(network)
    if n % 3 != 0 or bad_balls % 2 != 0 or not 0 <= bad_balls <= 2 * n // 3:
        raise _planting_error(
            f"cannot plant {bad_balls} bad balls on a {n}-node cycle: the planted "
            "coloring needs n divisible by 3 and an even number of bad balls, "
            f"at most 2n/3 = {2 * n // 3}"
        )
    nodes = network.nodes()
    colors = {node: (index % 3) + 1 for index, node in enumerate(nodes)}
    conflicts = bad_balls // 2
    if conflicts:
        step = max(3, n // conflicts)
        for planted in range(conflicts):
            index = planted * step
            colors[nodes[index]] = colors[nodes[index + 1]]
    return Configuration(network, colors)


def _cycle_coloring_with_monochromatic_run(network: Network, run_length: int) -> Configuration:
    """A 3-coloring of a cycle ``network`` built by :func:`cycle_network`
    (n divisible by 3) that is proper outside one contiguous monochromatic
    run of ``run_length`` nodes.

    Unlike :func:`_cycle_coloring_with_bad_balls` (isolated conflicting
    edges, at most ``2n/3`` bad balls), the dense run plants ``run_length``
    bad balls for any ``2 ≤ run_length ≤ n − 3`` — enough to push the bad
    fraction above any slack ε < 1.
    """
    n = len(network)
    if n % 3 != 0 or (run_length != 0 and not 2 <= run_length <= n - 3):
        raise _planting_error(
            f"cannot plant a monochromatic run of {run_length} nodes on a {n}-node "
            "cycle: the planted coloring needs n divisible by 3 and a run of 0 "
            f"or 2 to n - 3 = {n - 3} nodes"
        )
    if run_length == 0:
        return _cycle_coloring_with_bad_balls(network, 0)
    nodes = network.nodes()
    colors = {node: (index % 3) + 1 for index, node in enumerate(nodes)}
    # Recolor the window [1, run_length] to a constant color differing from
    # both boundary neighbours, so the bad balls are exactly the window.
    boundary_colors = {colors[nodes[0]], colors[nodes[run_length + 1]]}
    run_color = min({1, 2, 3} - boundary_colors)
    for index in range(1, run_length + 1):
        colors[nodes[index]] = run_color
    return Configuration(network, colors)


# --------------------------------------------------------------------------- #
# Fixed-trial verdict checks
# --------------------------------------------------------------------------- #
#: Standard deviations behind every fixed-trial Monte-Carlo check: a correct
#: decider fails one such check with probability below 5e-4, at any seed and
#: any trial budget.
VERDICT_SIGMAS = 3.5
_VERDICT_CONFIDENCE = math.erf(VERDICT_SIGMAS / math.sqrt(2.0))


#: The outputs of the enumerated order-invariant algorithms (E3, E7, E8).
_COLORS = (1, 2, 3)


def _order_invariant_colorings(
    network: Network, radius: int, language: ProperColoring
) -> Tuple[np.ndarray, np.ndarray]:
    """Every order-invariant ``radius``-round algorithm with outputs
    ``_COLORS`` on the cycle ``network``, evaluated once per ball class.

    Returns the algorithms' outputs as an algorithms × nodes matrix of
    indices into ``_COLORS`` (rows in enumeration order) and each
    algorithm's bad-ball count under ``language``.  Each node's ball is
    extracted once, not once per algorithm; ``run_ball_algorithm`` on every
    algorithm is the specification.
    """
    algorithms = list(enumerate_order_invariant_cycle_algorithms(radius, _COLORS))
    classes: Dict[Tuple[int, ...], int] = {}
    node_class = [
        classes.setdefault(pattern, len(classes))
        for pattern in cycle_ball_patterns(network, radius)
    ]
    code_of = {color: code for code, color in enumerate(_COLORS)}
    class_codes = np.array(
        [[code_of[output] for output in algorithm.outputs_at(classes)] for algorithm in algorithms],
        dtype=np.intp,
    )
    codes = class_codes[:, node_class]
    bad = language.bad_codes(codes, _COLORS, network.neighbor_positions)
    return codes, np.count_nonzero(bad, axis=1)


def _coloring(network: Network, codes: np.ndarray) -> Configuration:
    """The configuration whose outputs are ``_COLORS`` at one row of codes."""
    return Configuration(
        network, {node: _COLORS[code] for node, code in zip(network.nodes(), codes.tolist())}
    )


def _closed_form_tolerance(trials: int, floor: float = 0.0) -> float:
    """How far an estimate over ``trials`` may sit from its closed form:
    :data:`VERDICT_SIGMAS` standard deviations of a worst-case Bernoulli
    estimate, and never less than ``floor`` (the paper-level tolerance that
    governs large budgets)."""
    return max(floor, VERDICT_SIGMAS * math.sqrt(0.25 / trials))


def _decider_row_ok(
    acceptance: float, theoretical: float, member: bool, trials: int, floor: float = 0.0
) -> bool:
    """One fixed-trial decider row: the measured acceptance agrees with its
    closed form within :func:`_closed_form_tolerance` (at least ``floor``),
    and the data are no *evidence* that success (accept on members, reject
    otherwise) has probability at most 1/2 — evidence being a Wilson
    interval at :data:`VERDICT_SIGMAS` entirely at or below 1/2.  A point
    estimate at or just below 1/2 is no evidence when the true value sits
    near 1/2."""
    success = acceptance if member else 1.0 - acceptance
    successes = int(round(success * trials))
    refuted = wilson_interval(successes, trials, confidence=_VERDICT_CONFIDENCE).high <= 0.5
    return abs(acceptance - theoretical) < _closed_form_tolerance(trials, floor) and not refuted


# --------------------------------------------------------------------------- #
# E1 — the amos golden-ratio decider
# --------------------------------------------------------------------------- #
def _precision_target(
    precision: float, confidence: float, trials: int
) -> Optional[PrecisionTarget]:
    """The experiment-level stopping rule: ``precision`` is the CI
    half-width target (0 disables adaptive stopping entirely — the fixed
    trial budget then applies bit-identically to the pre-stats layer), and
    ``trials`` is demoted from a prescription to a cap."""
    if precision == 0.0:
        return None
    return PrecisionTarget(
        half_width=precision,
        confidence=confidence,
        min_trials=min(100, trials),
        max_trials=trials,
    )


def _apply_ci_verdict(result: ExperimentResult, verdicts: Sequence[Optional[bool]]) -> None:
    """Fold per-row tri-state verdicts into the result: any refuted criterion
    fails; otherwise any CI straddling its threshold leaves the experiment
    UNRESOLVED (ask for a tighter ``precision``) instead of flapping.  The
    boolean verdicts of a fixed-trial run fold to their conjunction."""
    combined = tri_all(verdicts)
    result.matches_paper = combined
    result.unresolved = combined is None


def _ci_columns(
    result: ExperimentResult,
    estimate: ProbabilityEstimate,
    target: Optional[PrecisionTarget],
) -> Dict[str, object]:
    """The interval columns of an adaptive row (none for a fixed-trial run).

    An adaptive estimate's provenance also accumulates on the result record:
    total trials consumed and the binding (widest) interval."""
    if target is None:
        return {}
    result.trials_used = (result.trials_used or 0) + estimate.trials
    if result.ci_low is None or estimate.half_width > (result.ci_high - result.ci_low) / 2.0:
        result.ci_low, result.ci_high = estimate.ci_low, estimate.ci_high
    return {"ci_low": estimate.ci_low, "ci_high": estimate.ci_high, "trials_used": estimate.trials}


def experiment_e1_amos_decider(
    sizes: Sequence[int] = (12, 40),
    selected_counts: Sequence[int] = (0, 1, 2, 3),
    trials: int = 3_000,
    seed: int = 0,
    engine: str = "auto",
    precision: float = 0.0,
    confidence: float = 0.99,
) -> ExperimentResult:
    """E1: the zero-round randomized decider for amos has guarantee ≈ 0.618.

    With ``precision > 0`` every acceptance probability is estimated under
    the :class:`~repro.stats.PrecisionTarget` sequential-stopping rule
    (half-width ``precision`` at ``confidence``, ``trials`` as the cap) and
    the per-row criteria become CI-aware: a row whose interval straddles its
    threshold leaves the experiment UNRESOLVED instead of flapping.
    """
    result = ExperimentResult(
        experiment_id="E1",
        title="amos decided in 0 rounds with guarantee p = (√5−1)/2",
        paper_claim=(
            "Section 2.3.1: non-selected nodes accept; selected nodes accept with "
            "probability p = (√5−1)/2 ≈ 0.618; yes-instances accepted w.p. ≥ p, "
            "no-instances rejected w.p. ≥ 1 − p² = p"
        ),
        parameters={
            "sizes": list(sizes),
            "selected_counts": list(selected_counts),
            "trials": trials,
            "engine": engine,
            "precision": precision,
            "confidence": confidence,
        },
    )
    p = golden_ratio_guarantee()
    decider = AmosDecider()
    target = _precision_target(precision, confidence, trials)
    verdicts: List[Optional[bool]] = []
    for kind, factory in (("cycle", cycle_network), ("path", path_network)):
        for n in sizes:
            network = factory(n)
            for selected in selected_counts:
                configuration = _amos_configuration(network, selected)
                member = Amos().contains(configuration)
                estimate = decider.acceptance_estimate(
                    configuration, trials=trials, seed=seed, engine=engine, precision=target
                )
                acceptance = estimate.estimate
                tolerance = _closed_form_tolerance(trials, floor=0.05)
                criterion: Optional[bool]
                if selected == 0:
                    expected, criterion = 1.0, acceptance == 1.0
                elif selected == 1:
                    expected = p
                    if target is None:
                        criterion = abs(acceptance - p) < tolerance
                    else:
                        criterion = estimate.interval.tri_between(p - 0.05, p + 0.05)
                else:
                    expected = p**selected
                    if target is None:
                        criterion = (1 - acceptance) >= p - tolerance
                    else:
                        criterion = estimate.interval.tri_at_most(1.0 - p + 0.05)
                verdicts.append(criterion)
                result.add_row(
                    graph=f"{kind}-{n}",
                    selected=selected,
                    member=member,
                    acceptance=acceptance,
                    expected_acceptance=expected,
                    within_guarantee=criterion,
                    **_ci_columns(result, estimate, target),
                )
    _apply_ci_verdict(result, verdicts)
    result.notes = (
        "acceptance on k≥2 selected nodes is p^k exactly (independent coins), "
        "always below 1 − p as required"
    )
    return result


# --------------------------------------------------------------------------- #
# E2 — ε-slack is solved by the trivial zero-round random coloring
# --------------------------------------------------------------------------- #
def experiment_e2_eps_slack_random_coloring(
    sizes: Sequence[int] = (30, 100, 300, 1000),
    eps_values: Sequence[float] = (0.7, 0.62, 0.58),
    trials: int = 200,
    decider_trials: int = 1200,
    repetitions: int = 3,
    seed: int = 0,
    engine: str = "auto",
) -> ExperimentResult:
    """E2: random 3-coloring solves the ε-slack relaxation with probability → 1,
    and the relaxation itself is decided by the amplified Corollary 1 decider
    (a multi-draw vote program, run through the engine)."""
    result = ExperimentResult(
        experiment_id="E2",
        title="ε-slack 3-coloring solved by the 0-round random coloring",
        paper_claim=(
            "Section 1.1: every node picking a uniformly random color guarantees, "
            "with constant probability, that a 1 − ε fraction of the nodes is "
            "properly colored (expected bad fraction on the cycle = 5/9 ≈ 0.556); "
            "for fixed n the relaxation is the ⌊εn⌋-resilient relaxation, so the "
            "Corollary 1 decider applies to it"
        ),
        parameters={
            "sizes": list(sizes),
            "eps_values": list(eps_values),
            "trials": trials,
            "decider_trials": decider_trials,
            "repetitions": repetitions,
            "engine": engine,
        },
    )
    constructor = RandomColoringConstructor(3)
    base = ProperColoring(3)
    expected_bad = 1 - expected_proper_fraction(3, 2)
    # One cycle per size, shared by the probe, the success estimates and the
    # decider scenarios.
    cycles = {n: cycle_network(n) for n in sizes}
    for n in sizes:
        network = cycles[n]
        # Mean bad fraction over a handful of runs (linearity of expectation check).
        mean_bad = 0.0
        probe_runs = min(trials, 50)
        probe_counts = (
            batched_bad_counts(constructor, base, network, probe_runs, seed=seed, salt="e2-probe")
            if resolve_construction_engine(engine, constructor) != "off"
            else None
        )
        if probe_counts is not None:
            # Engine probe: the engine computes the TapeFactory(seed,
            # "e2-probe", trial=run) streams bit for bit, and the
            # accumulation below mirrors the reference loop's order, so the
            # float is identical too.  Inside a fused sweep the counts come
            # from the shared matrix.
            for count in probe_counts:
                mean_bad += (int(count) / n) / probe_runs
        else:
            for run in range(probe_runs):
                configuration = constructor.configuration(
                    network, tape_factory=TapeFactory(seed, salt="e2-probe", trial=run)
                )
                mean_bad += base.fraction_bad(configuration) / probe_runs
        for eps in eps_values:
            relaxed = eps_slack(base, eps)
            estimate = estimate_success_probability(
                constructor, relaxed, [network], trials=trials, seed=seed, engine=engine
            )
            result.add_row(
                n=n,
                eps=eps,
                success_probability=estimate.success_probability,
                mean_bad_fraction=mean_bad,
                expected_bad_fraction=expected_bad,
            )
    # Verdict: at the largest size, any slack comfortably above the expected
    # bad fraction (5/9) is achieved with probability close to 1, and the
    # measured mean bad fraction matches 5/9.
    largest = max(sizes)
    final_rows = [row for row in result.rows if row["n"] == largest]
    ok = all(
        row["success_probability"] > 0.85
        for row in final_rows
        if row["eps"] >= expected_bad + 0.06
    ) and all(abs(row["mean_bad_fraction"] - expected_bad) < 0.08 for row in final_rows)

    # Decider cross-check (the engine-backed multi-draw path): for fixed n
    # the ε-slack relaxation *is* the f-resilient relaxation with f = ⌊εn⌋,
    # so the amplified Corollary 1 decider decides it — accepting planted
    # yes-instances (bad fraction well below ε) w.p. > 1/2 and rejecting
    # planted no-instances (bad fraction above ε) w.p. > 1/2, matching the
    # closed form p^{|F(G)|} per instance.  The planted no-instances sit
    # close to the threshold (true success ≈ 0.59), so a point estimate of
    # the success probability falls to 1/2 at small budgets even when the
    # acceptance matches its closed form; a row turns red only on evidence
    # (:func:`_decider_row_ok`).
    decider_n = largest if largest % 3 == 0 else 3 * (largest // 3)
    decider_network = cycles[decider_n] if decider_n in cycles else cycle_network(decider_n)
    for eps in eps_values:
        allowed = int(eps * decider_n)
        if allowed < 1 or decider_n < 12:
            continue
        decider = AmplifiedResilientDecider(base, f=allowed, repetitions=repetitions)
        yes_run = max(2, (6 * allowed) // 10)
        no_run = min(decider_n - 3, max(allowed + 2, (13 * allowed) // 10))
        scenarios = [("yes", yes_run)]
        if no_run > allowed:
            # Only plant the no-instance when the cycle can actually hold
            # more than ⌊εn⌋ bad balls; otherwise the row would silently be
            # a second yes-instance.
            scenarios.append(("no", no_run))
        for scenario, run_length in scenarios:
            configuration = _cycle_coloring_with_monochromatic_run(decider_network, run_length)
            actual_bad = base.violation_count(configuration)
            member = actual_bad <= allowed
            acceptance = decider.acceptance_probability(
                configuration, trials=decider_trials, seed=seed, engine=engine
            )
            theoretical = decider.theoretical_acceptance(actual_bad)
            success = acceptance if member else 1.0 - acceptance
            ok = ok and _decider_row_ok(acceptance, theoretical, member, decider_trials)
            result.add_row(
                n=decider_n,
                eps=eps,
                scenario=f"decider/{scenario}",
                allowed_bad=allowed,
                bad_balls=actual_bad,
                member=member,
                decider_acceptance=acceptance,
                theoretical_acceptance=theoretical,
                success_probability=success,
            )
    result.matches_paper = ok
    result.notes = (
        "decider rows run the amplified (multi-draw) Corollary 1 decider with "
        f"f = ⌊εn⌋ and k={repetitions} coins per bad ball through the engine"
    )
    return result


# --------------------------------------------------------------------------- #
# E3 — no order-invariant O(1) algorithm solves f-resilient coloring
# --------------------------------------------------------------------------- #
def experiment_e3_resilient_lower_bound(
    n: int = 24,
    radii: Sequence[int] = (0, 1),
    f_values: Sequence[int] = (1, 2, 4),
    trials: int = 1_200,
    repetitions: int = 3,
    seed: int = 0,
    engine: str = "auto",
) -> ExperimentResult:
    """E3: every order-invariant constant-round algorithm fails f-resilient
    3-coloring on the consecutively-labelled cycle — and the amplified
    Corollary 1 decider (engine-run multi-draw vote programs) certifies the
    failure by rejecting the best achievable output w.p. > 1/2."""
    result = ExperimentResult(
        experiment_id="E3",
        title="f-resilient 3-coloring defeats every order-invariant O(1) algorithm",
        paper_claim=(
            "Section 4: on the cycle with consecutive identities, any order-invariant "
            "t-round algorithm outputs the same color at ≥ n − (2t−1) nodes, hence at "
            "least that many bad balls minus boundary effects — far above any fixed f; "
            "the relaxation stays decidable (Corollary 1) although not constructible"
        ),
        parameters={
            "n": n,
            "radii": list(radii),
            "f_values": list(f_values),
            "trials": trials,
            "repetitions": repetitions,
            "engine": engine,
        },
    )
    network = cycle_network(n, ids="consecutive")
    base = ProperColoring(3)
    ok = True
    for radius in radii:
        codes, bad_counts = _order_invariant_colorings(network, radius, base)
        best = int(np.argmin(bad_counts))  # the first algorithm on ties
        min_bad = int(bad_counts[best])
        best_configuration = _coloring(network, codes[best])
        core = set(monochromatic_core(n, radius))
        core_positions = [
            position
            for position, node in enumerate(network.nodes())
            if network.identity(node) in core
        ]
        min_core_agreement = min(len(set(row)) for row in codes[:, core_positions].tolist())
        solved = {f: min_bad <= f for f in f_values}
        ok = ok and not any(solved.values()) and min_core_agreement == 1
        # The decidable-but-not-constructible cross-check, run through the
        # engine: on the best order-invariant output the amplified Corollary 1
        # decider (k coins per bad ball) accepts w.p. p^{min_bad} < 1/2.
        decider_acceptance: Dict[str, float] = {}
        decider_tolerance = 3.5 * math.sqrt(0.25 / trials)
        for f in f_values:
            decider = AmplifiedResilientDecider(base, f=f, repetitions=repetitions)
            acceptance = decider.acceptance_probability(
                best_configuration,
                trials=trials,
                seed=seed + 101 * radius + f,
                engine=engine,
            )
            theoretical = decider.theoretical_acceptance(int(min_bad))
            ok = ok and abs(acceptance - theoretical) < decider_tolerance and acceptance < 0.5
            decider_acceptance[f"decider_acceptance_f_{f}"] = acceptance
        result.add_row(
            radius=radius,
            algorithms=len(codes),
            core_size=len(core),
            min_bad_balls=int(min_bad),
            monochromatic_core=bool(min_core_agreement == 1),
            **{f"solves_f_{f}": solved[f] for f in f_values},
            **decider_acceptance,
        )
    result.matches_paper = ok
    result.notes = (
        "the exhaustive enumeration realises the finite family of order-invariant "
        "algorithms behind β = 1/N in Claim 2; decider columns measure the "
        f"amplified (k={repetitions}-draw) Corollary 1 decider on the best output "
        "via the engine"
    )
    return result


# --------------------------------------------------------------------------- #
# E4 — Θ(log* n) for 3-coloring the cycle
# --------------------------------------------------------------------------- #
def experiment_e4_logstar_coloring(
    sizes: Sequence[int] = (8, 32, 128, 512, 2048, 8192, 32768),
    seed: int = 0,
) -> ExperimentResult:
    """E4: Cole–Vishkin's measured rounds track log* n (and stay far below n)."""
    result = ExperimentResult(
        experiment_id="E4",
        title="3-coloring the cycle takes Θ(log* n) rounds (Cole–Vishkin upper bound)",
        paper_claim=(
            "Section 1.1/1.3: the n-node cycle cannot be 3-colored in fewer than "
            "Ω(log* n) rounds, even by randomized algorithms; Cole–Vishkin matches it"
        ),
        parameters={"sizes": list(sizes)},
    )
    ok = True
    rounds_by_size: List[int] = []
    for n in sizes:
        network = oriented_cycle_network(n, seed=seed)
        constructor = ColeVishkinConstructor()
        configuration = constructor.configuration(network)
        proper = ProperColoring(3).contains(configuration)
        bound = cole_vishkin_round_bound(network.max_identity())
        rounds_by_size.append(constructor.last_rounds)
        ok = ok and proper and constructor.last_rounds <= bound
        result.add_row(
            n=n,
            rounds=constructor.last_rounds,
            logstar_bound=bound,
            log_star_n=log_star(n),
            proper=proper,
            rounds_over_n=constructor.last_rounds / n,
        )
    # Shape: rounds grow by at most a small additive constant over a 4096x
    # size increase — the log* signature.  The fitted growth shape is also
    # reported; because the measured series moves by only 2–3 rounds overall,
    # the least-squares fit cannot reliably distinguish log* from log (both
    # are reported as slow growth), so the verdict only requires the fit to be
    # no faster than logarithmic, on top of the additive-constant criterion.
    from repro.analysis.growth import classify_growth, grows_no_faster_than

    shape = classify_growth(list(sizes), rounds_by_size) if len(sizes) >= 5 else "n/a"
    ok = ok and (rounds_by_size[-1] - rounds_by_size[0]) <= 3
    if len(sizes) >= 5:
        ok = ok and grows_no_faster_than(list(sizes), rounds_by_size, "log")
    result.parameters["fitted_growth_shape"] = shape
    result.matches_paper = ok
    return result


# --------------------------------------------------------------------------- #
# E5 — the Corollary 1 decider puts L_f in BPLD
# --------------------------------------------------------------------------- #
def experiment_e5_resilient_decider(
    f_values: Sequence[int] = (1, 2, 4, 8),
    n: int = 60,
    trials: int = 2_000,
    seed: int = 0,
    engine: str = "auto",
    precision: float = 0.0,
    confidence: float = 0.99,
) -> ExperimentResult:
    """E5: the resilient decider accepts ≤ f bad balls w.p. > 1/2 and rejects
    ≥ f+1 bad balls w.p. > 1/2, matching p^{|F(G)|} exactly.

    With ``precision > 0`` the acceptance probabilities run under the
    sequential-stopping rule (see E1) and the ±0.05 closed-form check and
    the > 1/2 success check become CI-aware tri-state verdicts.
    """
    result = ExperimentResult(
        experiment_id="E5",
        title="the f-resilient relaxation is in BPLD (Corollary 1 decider)",
        paper_claim=(
            "Corollary 1 proof: with p ∈ (2^{-1/f}, 2^{-1/(f+1)}), yes-instances are "
            "accepted w.p. p^{|F|} ≥ p^f > 1/2 and no-instances rejected w.p. "
            "1 − p^{|F|} ≥ 1 − p^{f+1} > 1/2"
        ),
        parameters={
            "f_values": list(f_values),
            "n": n,
            "trials": trials,
            "engine": engine,
            "precision": precision,
            "confidence": confidence,
        },
    )
    base = ProperColoring(3)
    target = _precision_target(precision, confidence, trials)
    network = cycle_network(n)
    verdicts: List[Optional[bool]] = []
    for f in f_values:
        decider = ResilientDecider(base, f=f)
        relaxed = f_resilient(base, f)
        for bad_balls in sorted({0, 2 * ((f + 1) // 2), 2 * ((f // 2) + 1), 2 * (f + 1)}):
            configuration = _cycle_coloring_with_bad_balls(network, bad_balls)
            actual_bad = base.violation_count(configuration)
            member = relaxed.contains(configuration)
            theoretical = decider.theoretical_acceptance(actual_bad)
            estimate = decider.acceptance_estimate(
                configuration, trials=trials, seed=seed, engine=engine, precision=target
            )
            acceptance = estimate.estimate
            success = acceptance if member else 1 - acceptance
            columns: Dict[str, object] = {}
            verdict: Optional[bool]
            if target is None:
                verdict = _decider_row_ok(acceptance, theoretical, member, trials, floor=0.05)
            else:
                closed_form = estimate.interval.tri_between(theoretical - 0.05, theoretical + 0.05)
                majority_side = (
                    estimate.interval.tri_at_least(0.5)
                    if member
                    else estimate.interval.tri_at_most(0.5)
                )
                verdict = tri_all([closed_form, majority_side])
                columns = dict(within_tolerance=verdict, **_ci_columns(result, estimate, target))
            verdicts.append(verdict)
            result.add_row(
                f=f,
                p_bad_ball=decider.p_bad_ball,
                bad_balls=actual_bad,
                member=member,
                acceptance=acceptance,
                theoretical_acceptance=theoretical,
                success_probability=success,
                **columns,
            )
    _apply_ci_verdict(result, verdicts)
    return result


# --------------------------------------------------------------------------- #
# E6 — error amplification (Claim 3 and the glued construction)
# --------------------------------------------------------------------------- #
def _toy_all_zeros_language() -> PredicateLCL:
    return PredicateLCL(
        is_bad=lambda ball: ball.center_output() != 0, radius=0, name="all-zeros"
    )


def _toy_faulty_constructor(q: float) -> BallConstructor:
    # The rule and its ``output_program`` are the same single bernoulli(q)
    # draw, which makes the constructor compilable by the construction
    # engine (which replays the reference coins bit for bit).
    return BallConstructor(
        FunctionBallAlgorithm(
            lambda ball, tape: 1 if tape.bernoulli(q) else 0,
            radius=0,
            randomized=True,
            name=f"faulty-all-zeros(q={q})",
            output_program=lambda ball: bernoulli_output(q, 1, 0),
        )
    )


def _toy_noisy_decider(p: float) -> RandomizedDecider:
    # The rule is written as a single direct Bernoulli (accept a non-zero
    # output with probability 1 − p) so the matching one-coin
    # ``vote_program`` makes the decider compilable by repro.engine, with the
    # engine reproducing the reference coins bit for bit.
    return RandomizedDecider(
        rule=lambda ball, tape: True
        if ball.center_output() == 0
        else tape.bernoulli(1.0 - p),
        radius=0,
        guarantee=p,
        name=f"noisy-all-zeros-decider(p={p})",
        vote_program=lambda ball: coin(1.0 if ball.center_output() == 0 else 1.0 - p),
    )


def experiment_e6_error_amplification(
    q: float = 0.05,
    p: float = 0.8,
    instance_size: int = 12,
    nu_values: Sequence[int] = (1, 2, 4, 8, 12),
    trials: int = 400,
    seed: int = 0,
    engine: str = "auto",
) -> ExperimentResult:
    """E6: combining ν hard instances drives Pr[D accepts C(G)] below (1−βp)^ν."""
    result = ExperimentResult(
        experiment_id="E6",
        title="error amplification over ν hard instances (Claim 3 / Theorem 1)",
        paper_claim=(
            "Pr[D accepts C(G)] ≤ (1 − βp)^ν on the disjoint union, and "
            "≤ (1 − β(1−p)/μ)^{ν'} on the connected glued instance; for ν of Eq. (3) "
            "this contradicts a success probability r"
        ),
        parameters={
            "q": q,
            "p": p,
            "instance_size": instance_size,
            "nu_values": list(nu_values),
            "trials": trials,
            "engine": engine,
        },
    )
    language = _toy_all_zeros_language()
    constructor = _toy_faulty_constructor(q)
    decider = _toy_noisy_decider(p)
    beta = 1.0 - (1.0 - q) ** instance_size
    mu = mu_from_guarantee(p)
    ok = True
    previous_acceptance = 1.1
    # The union acceptance sits just below its bound, so the slack above the
    # bound must cover the Monte-Carlo noise of the estimate.
    slack = _closed_form_tolerance(trials, floor=0.07)
    for nu in nu_values:
        instances = [
            cycle_network(instance_size, id_start=1 + 10_000 * index) for index in range(nu)
        ]
        union_report = amplification_disjoint_union(
            constructor,
            decider,
            language,
            instances,
            beta=beta,
            p=p,
            trials=trials,
            seed=seed,
            engine=engine,
        )
        rows: Dict[str, object] = {
            "nu": nu,
            "beta": beta,
            "union_acceptance": union_report.acceptance_estimate,
            "union_bound": union_report.theoretical_bound,
            "union_membership": union_report.membership_estimate,
        }
        ok = ok and union_report.acceptance_estimate <= union_report.theoretical_bound + slack
        ok = ok and union_report.acceptance_estimate <= previous_acceptance + 0.05
        previous_acceptance = union_report.acceptance_estimate
        if nu >= 2:
            glued_report = amplification_glued(
                constructor,
                decider,
                language,
                instances,
                beta=beta,
                p=p,
                t=0,
                t_prime=0,
                anchors=[instance.nodes()[0] for instance in instances],
                trials=trials,
                seed=seed + nu,
                engine=engine,
            )
            rows["glued_acceptance"] = glued_report.acceptance_estimate
            rows["glued_bound"] = glued_report.theoretical_bound
            ok = ok and glued_report.acceptance_estimate <= glued_report.theoretical_bound + slack
        result.add_row(**rows)
    # The Eq. (3) prescription: for a claimed success probability r, using
    # nu_disconnected(r, p, beta) instances pushes the membership probability
    # below r.
    r = 0.5
    nu_star = nu_disconnected(r, p, beta)
    instances = [
        cycle_network(instance_size, id_start=1 + 10_000 * index) for index in range(nu_star)
    ]
    final = amplification_disjoint_union(
        constructor,
        decider,
        language,
        instances,
        beta=beta,
        p=p,
        trials=trials,
        seed=seed + 99,
        engine=engine,
    )
    ok = ok and final.membership_estimate < r
    result.add_row(
        nu=nu_star,
        beta=beta,
        union_acceptance=final.acceptance_estimate,
        union_bound=final.theoretical_bound,
        union_membership=final.membership_estimate,
        note=f"nu from Eq.(3) targeting r={r}",
    )
    result.parameters["mu"] = mu
    result.matches_paper = ok
    return result


# --------------------------------------------------------------------------- #
# E7 — the separations of Section 2.2.2 / 2.3
# --------------------------------------------------------------------------- #
def experiment_e7_separations(
    n: int = 24,
    deterministic_radius: int = 2,
    trials: int = 2_000,
    seed: int = 0,
    engine: str = "auto",
    amplified_repetitions: int = 3,
) -> ExperimentResult:
    """E7: the constructibility/decidability separations the paper cites."""
    result = ExperimentResult(
        experiment_id="E7",
        title="constant-time constructibility vs decidability separations",
        paper_claim=(
            "Section 2.2.2: coloring is decidable but not constructible in O(1); "
            "majority is constructible but not decidable in O(1); some languages are "
            "both (weak coloring in the paper; here the color-reduction-under-promise "
            "task, see the documented substitution); amos separates LD from BPLD"
        ),
        parameters={
            "n": n,
            "deterministic_radius": deterministic_radius,
            "trials": trials,
            "engine": engine,
            "amplified_repetitions": amplified_repetitions,
        },
    )
    ok = True

    # Row 1: coloring — decidable in 1 round (perfect local checker), but not
    # constructible in O(1) rounds (every order-invariant radius-1 algorithm
    # leaves many conflicts on the consecutive cycle; Claim 1 makes this a
    # statement about all algorithms).
    network = cycle_network(n, ids="consecutive")
    base = ProperColoring(3)
    checker = LocalCheckerDecider(base)
    good = _cycle_coloring_with_bad_balls(network, 0)
    bad = _cycle_coloring_with_bad_balls(network, 2)
    decidable = checker.decide(good).accepted and checker.decide(bad).rejected
    min_bad = int(_order_invariant_colorings(network, 1, base)[1].min())
    constructible = min_bad == 0
    ok = ok and decidable and not constructible
    result.add_row(
        language="3-coloring",
        constructible_in_O1=constructible,
        decidable_in_O1=decidable,
        evidence=f"min bad balls over order-invariant radius-1 algorithms = {min_bad}",
    )

    # Row 2: majority — constructible in 0 rounds (every node selects itself),
    # not locally checkable (membership depends on a global count; the natural
    # radius-r decider is fooled by locally-balanced instances).
    from repro.core.languages import Majority

    network_path = path_network(n, ids="consecutive")
    all_selected = Configuration(network_path, {node: SELECTED for node in network_path.nodes()})
    constructible_majority = Majority().contains(all_selected)
    # A no-instance that looks locally like a yes-instance: select a prefix
    # containing just under half of the nodes — every ball of radius r at the
    # boundary sees a locally plausible mix, and balls deep inside either side
    # are monochromatic, exactly like in genuine yes-instances.
    nodes = network_path.nodes()
    minority = Configuration(
        network_path,
        {node: (SELECTED if index < (n // 2) - 1 else "") for index, node in enumerate(nodes)},
    )
    # The natural local rule "accept iff my ball contains at least as many
    # selected as unselected nodes or I see the global pattern" cannot exist;
    # we record non-decidability as a structural fact (not measurable by a
    # single decider) and verify the chosen no-instance is indeed a no-instance.
    ok = ok and constructible_majority and not Majority().contains(minority)
    result.add_row(
        language="majority",
        constructible_in_O1=constructible_majority,
        decidable_in_O1=False,
        evidence="membership requires counting n/2 selections — not locally checkable",
    )

    # Row 3: the both-constant cell — (Δ+1)-coloring under a k-coloring
    # promise: constructible in k − Δ − 1 rounds and decidable in 1 round.
    regular_size = max(10, n)
    regular_size += regular_size % 2  # a 3-regular graph needs an even order
    regular = random_regular_network(regular_size, 3, seed=seed)
    base_colors = greedy_coloring_by_identity(regular)
    wasteful = {node: base_colors[node] + 4 for node in regular.nodes()}
    promise_instance = regular.with_inputs(wasteful)
    reducer = ColorReductionConstructor(initial_palette=8, target_palette=4)
    reduced = reducer.configuration(promise_instance)
    both_ok = ProperColoring(4).contains(reduced) and reducer.last_rounds == 4
    ok = ok and both_ok
    result.add_row(
        language="(Δ+1)-coloring under k-coloring promise",
        constructible_in_O1=both_ok,
        decidable_in_O1=True,
        evidence=f"reduced 8→4 colors in {reducer.last_rounds} rounds; checker radius 1",
    )

    # Row 4: amos — randomly decidable in 0 rounds with guarantee ≈ 0.618,
    # not deterministically decidable below D/2 − 1 rounds.  The Monte-Carlo
    # guarantees are measured through the engine (``engine=``), for both the
    # single-coin golden-ratio decider and its multi-draw majority
    # amplification (calibrated to the same p, hence the same guarantee).
    separation = amos_separation_report(
        radius=deterministic_radius,
        trials=trials,
        seed=seed,
        engine=engine,
        amplified_repetitions=amplified_repetitions,
    )
    # The true guarantee is exactly p, and the measured one is a minimum of
    # estimates, so the margin must cover their Monte-Carlo noise.
    margin = _closed_form_tolerance(trials, floor=0.05)
    amos_ok = (
        separation.deterministic_fooled
        and separation.randomized_guarantee >= golden_ratio_guarantee() - margin
    )
    ok = ok and amos_ok
    result.add_row(
        language="amos",
        constructible_in_O1=True,
        decidable_in_O1=False,
        evidence=(
            f"0-round randomized guarantee {separation.randomized_guarantee:.3f}; "
            f"radius-{deterministic_radius} deterministic decider fooled on diameter "
            f"{separation.witness_diameter}"
        ),
    )

    # Row 5: the same separation witnessed by a multi-draw decider — each
    # selected node takes a k-coin majority vote instead of one coin, and the
    # measured guarantee stays at the golden ratio.
    amplified_ok = separation.amplified_guarantee >= golden_ratio_guarantee() - margin
    ok = ok and amplified_ok
    result.add_row(
        language=f"amos (amplified, k={separation.amplified_repetitions} draws/node)",
        constructible_in_O1=True,
        decidable_in_O1=False,
        evidence=(
            f"0-round amplified-majority guarantee {separation.amplified_guarantee:.3f} "
            f"(calibrated to (√5−1)/2 ≈ {golden_ratio_guarantee():.3f})"
        ),
    )
    result.matches_paper = ok
    result.notes = (
        "substitution: the paper's 'weak coloring' example of a both-constructible-and-"
        "decidable task is replaced by color reduction under a coloring promise "
        "(see EXPERIMENTS.md)"
    )
    return result


# --------------------------------------------------------------------------- #
# E8 — randomization helps for ε-slack, not for f-resilient
# --------------------------------------------------------------------------- #
def experiment_e8_slack_vs_resilient(
    n: int = 24,
    eps: float = 0.7,
    f_values: Sequence[int] = (1, 2, 4),
    trials: int = 400,
    seed: int = 0,
    engine: str = "auto",
) -> ExperimentResult:
    """E8: the headline contrast — the same 0-round randomized coloring solves
    the ε-slack relaxation but no constant-round algorithm (randomized or not,
    via Theorem 1 + Claim 1) solves the f-resilient relaxation.

    As a cross-check of the other side of the contrast, each f-resilient row
    also reports (via the ``engine=`` path) the Corollary 1 decider's
    acceptance probability on the best order-invariant algorithm's output:
    the relaxation stays *decidable* even though it is not constructible.

    Every row also carries the smallest bad-ball fraction over the
    order-invariant radius-1 algorithms on the consecutive cycle.  It must
    exceed ε: that is Section 5's counterexample, where the ε-slack
    relaxation has a 0-round Monte-Carlo constructor but no order-invariant
    radius-1 one (so, via Claim 1, Theorem 1 does not extend to nodes that
    know n).
    """
    result = ExperimentResult(
        experiment_id="E8",
        title="randomization helps for ε-slack but not for f-resilient relaxations",
        paper_claim=(
            "Sections 1.1 and 4: the ε-slack relaxation of 3-coloring is solvable by a "
            "0-round Monte-Carlo algorithm with constant success probability, while the "
            "f-resilient relaxation admits no constant-time algorithm at all"
        ),
        parameters={
            "n": n,
            "eps": eps,
            "f_values": list(f_values),
            "trials": trials,
            "engine": engine,
        },
    )
    base = ProperColoring(3)
    network = cycle_network(n, ids="consecutive")
    constructor = RandomColoringConstructor(3)

    codes, bad_counts = _order_invariant_colorings(network, 1, base)
    best = int(np.argmin(bad_counts))  # the first algorithm on ties
    min_bad = int(bad_counts[best])
    best_output = _coloring(network, codes[best])
    min_bad_fraction = min_bad / n

    slack_language = eps_slack(base, eps)
    slack_estimate = estimate_success_probability(
        constructor, slack_language, [network], trials=trials, seed=seed, engine=engine
    )
    # The decider column only applies to the f-resilient rows; it must still
    # appear in this first row because the table renderer derives its columns
    # from the first row's keys.
    result.add_row(
        relaxation=f"eps-slack(eps={eps})",
        algorithm="random 3-coloring (0 rounds, randomized)",
        success_probability=slack_estimate.success_probability,
        solvable_in_O1=slack_estimate.success_probability > 0.5,
        decider_acceptance_on_best_output="n/a",
        min_order_invariant_bad_fraction=min_bad_fraction,
    )

    ok = slack_estimate.success_probability > 0.5 and min_bad_fraction > eps
    for f in f_values:
        resilient_language = f_resilient(base, f)
        deterministic_solvable = min_bad <= f
        randomized_estimate = estimate_success_probability(
            constructor, resilient_language, [network], trials=trials, seed=seed + f, engine=engine
        )
        # The Corollary 1 decider on the best order-invariant output: since
        # that output still has > f bad balls, it accepts w.p. p^{bad} < 1/2
        # — decidable-but-not-constructible, measured through the engine.
        decider_acceptance = ResilientDecider(base, f=f).acceptance_probability(
            best_output, trials=trials, seed=seed + f, engine=engine
        )
        ok = ok and not deterministic_solvable and randomized_estimate.success_probability < 0.5
        result.add_row(
            relaxation=f"f-resilient(f={f})",
            algorithm="best order-invariant radius-1 algorithm / random coloring",
            success_probability=randomized_estimate.success_probability,
            solvable_in_O1=deterministic_solvable,
            decider_acceptance_on_best_output=decider_acceptance,
            min_order_invariant_bad_fraction=min_bad_fraction,
        )
    result.matches_paper = ok
    result.notes = (
        f"min bad balls over all {len(codes)} order-invariant radius-1 algorithms "
        f"on the consecutive cycle: {min_bad}"
    )
    return result


# --------------------------------------------------------------------------- #
# E9 — far-acceptance probabilities and anchor choice (Claims 4 and 5)
# --------------------------------------------------------------------------- #
def experiment_e9_far_acceptance(
    q: float = 0.3,
    p: float = 0.8,
    instance_size: int = 20,
    trials: int = 400,
    seed: int = 0,
    engine: str = "auto",
) -> ExperimentResult:
    """E9: in a hard instance some node's far-acceptance probability is at
    most 1 − β(1−p)/μ, the quantity Claim 5 needs for the gluing."""
    result = ExperimentResult(
        experiment_id="E9",
        title="far-acceptance probabilities and the Claim 5 anchor",
        paper_claim=(
            "Claim 5: every hard instance contains a node u with "
            "Pr[D accepts C(H) far from u] ≤ 1 − β(1−p)/μ, μ = ⌈1/(2p−1)⌉"
        ),
        parameters={
            "q": q,
            "p": p,
            "instance_size": instance_size,
            "trials": trials,
            "engine": engine,
        },
    )
    language = _toy_all_zeros_language()
    constructor = _toy_faulty_constructor(q)
    decider = _toy_noisy_decider(p)
    network = cycle_network(instance_size)
    beta = 1.0 - (1.0 - q) ** instance_size
    mu = mu_from_guarantee(p)
    threshold = 1.0 - beta * (1.0 - p) / mu
    probabilities = []
    for node in network.nodes()[: min(8, instance_size)]:
        probability = far_acceptance_probability(
            constructor,
            decider,
            network,
            node,
            distance=0,
            trials=trials,
            seed=seed,
            engine=engine,
        )
        probabilities.append(probability)
        result.add_row(
            node_identity=network.identity(node),
            far_acceptance=probability,
            claim5_threshold=threshold,
            satisfies_claim5=probability <= threshold + 0.05,
        )
    result.parameters.update({"beta": beta, "mu": mu})
    result.matches_paper = min(probabilities) <= threshold + 0.05
    return result


# --------------------------------------------------------------------------- #
# E10 — substrate validation: classic LOCAL baselines
# --------------------------------------------------------------------------- #
def experiment_e10_baselines(
    sizes: Sequence[int] = (20, 60, 160, 400),
    degree: int = 3,
    runs: int = 5,
    seed: int = 0,
) -> ExperimentResult:
    """E10: Luby MIS and the proposal matching produce valid outputs with
    round counts growing slowly with n (validates the LOCAL substrate)."""
    result = ExperimentResult(
        experiment_id="E10",
        title="baseline LOCAL algorithms: validity and round growth",
        paper_claim=(
            "Substrate validation (no direct paper claim): Luby's MIS finishes in "
            "O(log n) phases w.h.p.; maximal matching and MIS outputs satisfy their "
            "LCL specifications on every run"
        ),
        parameters={"sizes": list(sizes), "degree": degree, "runs": runs},
    )
    ok = True
    for n in sizes:
        network = random_regular_network(n, degree, seed=seed + n)
        mis_language = MaximalIndependentSet()
        matching_language = MaximalMatching()
        mis_rounds = []
        mis_valid = True
        for run in range(runs):
            constructor = LubyMISConstructor()
            configuration = constructor.configuration(
                network, tape_factory=TapeFactory(seed, salt=f"e10-{n}", trial=run)
            )
            mis_valid = mis_valid and mis_language.contains(configuration)
            mis_rounds.append(constructor.last_rounds)
        matcher = ProposalMatchingConstructor()
        matching_valid = matching_language.contains(matcher.configuration(network))
        max_rounds = max(mis_rounds)
        ok = ok and mis_valid and matching_valid and max_rounds <= 8 * math.log2(n) + 8
        result.add_row(
            n=n,
            luby_valid=mis_valid,
            luby_max_rounds=max_rounds,
            log2_n=math.log2(n),
            matching_valid=matching_valid,
            matching_rounds=matcher.last_rounds,
        )
    result.matches_paper = ok
    return result

