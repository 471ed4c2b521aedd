"""Drop-in engine counterparts of the legacy decision entry points.

These helpers are what :mod:`repro.core.decision` and
:mod:`repro.core.derandomization` dispatch to when a decider is compilable
(see :func:`repro.engine.compiler.is_compilable`).  Each takes the same
``(seed, salt)`` stream the reference function it replaces draws from —
trial ``t`` of node ``v`` reads the tape with key
``(seed, salt, t, identity(v))``, whose draw ``k`` is the counter-based
``U(key, k)`` of :mod:`repro.local.randomness` — so the engine returns
bit-for-bit the accept/reject stream of the reference loop, computed as one
``trials × coin-nodes × draws`` array operation.  Callers choose between

* ``engine="auto"`` — run the engine when the decider compiles, the
  reference loop otherwise (the default everywhere);
* ``engine="exact"`` — run the engine, and raise when the decider does not
  compile;
* ``engine="off"`` — never used here; callers fall back to the reference
  loop themselves.

A decider is compilable when it exposes ``vote_program(ball)``; see
:mod:`repro.engine.compiler`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable

import numpy as np

from repro.engine.compiler import compile_decision, is_compilable
from repro.engine.executor import (
    AcceptStream,
    accept_vector,
    acceptance_probability,
    adaptive_acceptance,
    deterministic_accept_value,
    exact_single_trial_votes,
)
from repro.stats import PrecisionTarget, ProbabilityEstimate, sequential_estimate

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.decision import Decider
    from repro.core.languages import Configuration

__all__ = [
    "ENGINE_CHOICES",
    "resolve_engine",
    "engine_acceptance_probability",
    "engine_adaptive_acceptance",
    "engine_success_counts",
    "engine_adaptive_success",
    "engine_single_trial_votes",
]

#: Accepted values of the ``engine=`` parameter threaded through the stack.
ENGINE_CHOICES = ("auto", "exact", "off")


def resolve_engine(engine: str, decider: object) -> str:
    """Map an ``engine=`` parameter value to an execution path.

    Returns ``"off"`` (reference path) or ``"exact"`` (the engine).
    ``auto`` selects the engine when the decider is compilable, otherwise
    the reference path; explicitly requesting ``exact`` on a
    non-compilable decider raises, because silently falling back would
    misreport what was measured.
    """
    if engine not in ENGINE_CHOICES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINE_CHOICES}")
    if engine == "off":
        return "off"
    compilable = is_compilable(decider)
    if engine == "auto":
        return "exact" if compilable else "off"
    if not compilable:
        raise TypeError(
            f"engine={engine!r} requested but decider "
            f"{getattr(decider, 'name', decider)!r} is not compilable"
        )
    return "exact"


def engine_acceptance_probability(
    decider: "Decider",
    configuration: "Configuration",
    trials: int,
    seed: int,
) -> float:
    """Engine counterpart of :meth:`Decider.acceptance_probability`.

    Draws trial ``t`` from ``TapeFactory(seed, decider.name, trial=t)``,
    like the reference loop, and therefore returns the identical estimate.
    """
    compiled = compile_decision(decider, configuration)
    return acceptance_probability(compiled, trials, seed=seed, salt=decider.name)


def engine_adaptive_acceptance(
    decider: "Decider",
    configuration: "Configuration",
    target: PrecisionTarget,
    seed: int,
) -> ProbabilityEstimate:
    """Adaptive counterpart of :func:`engine_acceptance_probability`.

    Same stream, but trials arrive in chunks until ``target`` is met —
    stopping after ``k`` trials reports exactly the fixed ``k``-trial
    estimate, because the streams are chunk-invariant.
    """
    compiled = compile_decision(decider, configuration)
    return adaptive_acceptance(compiled, target, seed=seed, salt=decider.name)


def engine_adaptive_success(
    decider: "Decider",
    configuration: "Configuration",
    member: bool,
    target: PrecisionTarget,
    seed: int,
    index: int,
) -> ProbabilityEstimate:
    """Adaptive counterpart of :func:`engine_success_counts` (success =
    accepted on members, rejected on non-members), on the same stream
    ``TapeFactory(seed, f"{name}/{index}", trial=t)``.
    """
    compiled = compile_decision(decider, configuration)
    constant = deterministic_accept_value(compiled)
    if constant is not None:
        return ProbabilityEstimate.exact(
            constant if member else not constant, confidence=target.confidence
        )
    stream = AcceptStream(compiled, seed=seed, salt=f"{decider.name}/{index}")

    def draw(count: int) -> int:
        accepted = int(np.count_nonzero(stream.sample(count)))
        return accepted if member else count - accepted

    return sequential_estimate(target, draw)


def engine_success_counts(
    decider: "Decider",
    configuration: "Configuration",
    member: bool,
    trials: int,
    seed: int,
    index: int,
) -> int:
    """Engine counterpart of one configuration's inner loop in
    :func:`repro.core.decision.estimate_guarantee`.

    Success means "accepted" on members and "rejected" on non-members; trial
    ``t`` draws from ``TapeFactory(seed, f"{decider.name}/{index}",
    trial=t)``, like the reference loop.
    """
    compiled = compile_decision(decider, configuration)
    accepted = accept_vector(compiled, trials, seed=seed, salt=f"{decider.name}/{index}")
    successes = accepted if member else ~accepted
    return int(np.count_nonzero(successes))


def engine_single_trial_votes(
    decider: "Decider",
    configuration: "Configuration",
    master_seed: int,
    salt: object,
    trial: int = 0,
) -> Dict[Hashable, bool]:
    """One decide() execution evaluated through the engine.

    Bit-for-bit identical to ``decider.decide(configuration,
    tape_factory=TapeFactory(master_seed, salt, trial)).votes`` for
    compilable deciders; used by the derandomization loops, whose
    configurations change every trial (fresh constructor coins) but whose
    decision step still skips the per-node Python voting.
    """
    compiled = compile_decision(decider, configuration)
    votes = exact_single_trial_votes(compiled, master_seed, salt, trial)
    return {node: bool(votes[position]) for position, node in enumerate(compiled.nodes)}
