"""Construction tasks (Section 2.2.1).

The construction task for a language ``L`` asks every node, given the input
configuration ``(G, x)`` and the identity assignment, to produce an output
``y(v)`` such that ``(G, (x, y)) ∈ L``.  A randomized Monte-Carlo
construction algorithm has *success probability* ``r`` if on every instance
the produced configuration belongs to ``L`` with probability at least ``r``
(Eq. (2) of the paper).

Two concrete constructor shapes are provided:

* :class:`BallConstructor` — a constant-time constructor presented as a ball
  algorithm (radius = number of rounds), the object the derandomization
  theorem speaks about;
* :class:`MessagePassingConstructor` — a wrapper around a full
  message-passing :class:`~repro.local.algorithm.LocalAlgorithm`, used for
  the non-constant-time baselines (Cole–Vishkin, Luby, ...) that the
  benchmark harness compares against.

:func:`estimate_success_probability` measures the empirical ``r`` of a
constructor against a language over a set of instances.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

from repro.core.languages import Configuration, DistributedLanguage
from repro.engine.construct import (
    ConstructionCompilationError,
    adaptive_success_estimate,
    batched_success_counts,
    resolve_construction_engine,
)
from repro.stats import (
    PrecisionTarget,
    ProbabilityEstimate,
    sequential_estimate,
    wilson_half_width,
)
from repro.local.algorithm import BallAlgorithm, LocalAlgorithm
from repro.local.network import Network
from repro.local.randomness import TapeFactory
from repro.local.simulator import Simulator, run_ball_algorithm

__all__ = [
    "Constructor",
    "BallConstructor",
    "MessagePassingConstructor",
    "SuccessEstimate",
    "estimate_success_probability",
]


class Constructor(ABC):
    """Base class for construction algorithms."""

    name: str = "constructor"
    #: Whether the constructor uses private randomness (Monte-Carlo).
    randomized: bool = False

    @abstractmethod
    def construct(
        self,
        network: Network,
        tape_factory: Optional[TapeFactory] = None,
    ) -> Dict[Hashable, object]:
        """Produce the output assignment ``y`` for the given instance."""

    def configuration(
        self,
        network: Network,
        tape_factory: Optional[TapeFactory] = None,
    ) -> Configuration:
        """Run the constructor and wrap the result as a configuration."""
        return Configuration(network, self.construct(network, tape_factory))

    def rounds(self) -> Optional[int]:
        """The constructor's round complexity when it is fixed and known;
        ``None`` for adaptive algorithms."""
        return None


class BallConstructor(Constructor):
    """A constant-time constructor given as a ball algorithm.

    This is the object Theorem 1 quantifies over: a ``t``-round (Monte-Carlo)
    construction algorithm, i.e. a map from radius-``t`` balls (and private
    coins) to outputs.
    """

    def __init__(self, algorithm: BallAlgorithm, name: Optional[str] = None) -> None:
        self.algorithm = algorithm
        self.randomized = bool(algorithm.randomized)
        self.name = name if name is not None else f"ball-constructor({algorithm.name})"

    @property
    def radius(self) -> int:
        return self.algorithm.radius

    def rounds(self) -> Optional[int]:
        return self.algorithm.radius

    def construct(
        self,
        network: Network,
        tape_factory: Optional[TapeFactory] = None,
    ) -> Dict[Hashable, object]:
        return run_ball_algorithm(network, self.algorithm, tape_factory=tape_factory)


class MessagePassingConstructor(Constructor):
    """A constructor given as a message-passing LOCAL algorithm.

    Parameters
    ----------
    algorithm_factory:
        A zero-argument callable returning a fresh
        :class:`~repro.local.algorithm.LocalAlgorithm` instance (algorithms
        may keep per-run configuration, so a factory avoids aliasing).
    randomized:
        Whether the produced algorithms consume randomness.
    rounds:
        Fixed round budget, or ``None`` to run until the algorithm reports
        completion.
    max_rounds:
        Safety bound for adaptive algorithms.
    """

    def __init__(
        self,
        algorithm_factory: Callable[[], LocalAlgorithm],
        randomized: bool = False,
        rounds: Optional[int] = None,
        max_rounds: int = 10_000,
        name: str = "message-passing-constructor",
    ) -> None:
        self._factory = algorithm_factory
        self.randomized = bool(randomized)
        self._rounds = rounds
        self._max_rounds = max_rounds
        self.name = name
        #: Rounds executed by the most recent :meth:`construct` call.
        self.last_rounds: Optional[int] = None

    def rounds(self) -> Optional[int]:
        return self._rounds

    def construct(
        self,
        network: Network,
        tape_factory: Optional[TapeFactory] = None,
    ) -> Dict[Hashable, object]:
        simulator = Simulator(network, tape_factory=tape_factory)
        result = simulator.run(
            self._factory(), rounds=self._rounds, max_rounds=self._max_rounds
        )
        self.last_rounds = result.rounds
        return result.outputs


# --------------------------------------------------------------------------- #
# Success-probability estimation
# --------------------------------------------------------------------------- #
@dataclass
class SuccessEstimate:
    """Empirical success probability of a constructor for a language.

    ``per_instance`` maps the instance index to ``(success_rate,
    half_width)``.  ``success_probability`` — the empirical counterpart of
    the paper's ``r`` — is the minimum rate over the instances, because the
    definition quantifies over *every* instance.  ``trials_used`` records
    how many trials each instance consumed (the fixed budget without a
    precision target; possibly fewer with one).
    """

    per_instance: Dict[int, Tuple[float, float]] = field(default_factory=dict)
    trials_used: Dict[int, int] = field(default_factory=dict)

    @property
    def success_probability(self) -> float:
        if not self.per_instance:
            return float("nan")
        return min(rate for (rate, _hw) in self.per_instance.values())

    @property
    def mean_rate(self) -> float:
        if not self.per_instance:
            return float("nan")
        return sum(rate for (rate, _hw) in self.per_instance.values()) / len(
            self.per_instance
        )


def estimate_success_probability(
    constructor: Constructor,
    language: DistributedLanguage,
    networks: Sequence[Network],
    trials: int = 200,
    seed: int = 0,
    engine: str = "auto",
    precision: Optional[object] = None,
) -> SuccessEstimate:
    """Estimate Pr[(G, (x, y)) ∈ L] for every instance.

    Deterministic constructors are executed once per instance; Monte-Carlo
    constructors are executed ``trials`` times with independent coins.

    Trial ``t`` of instance ``index`` draws its coins from
    ``TapeFactory(seed, salt=f"{constructor.name}/{index}", trial=t)``; the
    trial is part of every tape key, so distinct seeds give independent
    runs.

    Compilable constructors (those exposing ``output_program(ball)``)
    dispatch their trials to :mod:`repro.engine.construct`:
    ``engine="auto"``/``"exact"`` compute the same tape streams as one array
    operation (bit-identical), ``engine="off"`` forces the reference loop.

    ``precision`` (a :class:`~repro.stats.PrecisionTarget` or a bare
    half-width) runs each instance's trials sequentially until the CI
    half-width target is met, with ``trials`` as the per-instance cap; the
    streams are chunk-invariant, so an instance stopping at ``k`` trials
    reports exactly its fixed ``k``-trial rate, and ``precision=None`` is
    bit-identical to the historical behaviour.
    """
    target = PrecisionTarget.coerce(precision, default_cap=trials)
    mode = resolve_construction_engine(engine, constructor)
    estimate = SuccessEstimate()
    for index, network in enumerate(networks):
        runs = trials if constructor.randomized else 1
        if target is not None and constructor.randomized:
            adaptive: Optional[ProbabilityEstimate] = None
            if mode != "off":
                try:
                    adaptive = adaptive_success_estimate(
                        constructor,
                        language,
                        network,
                        target,
                        seed=seed,
                        salt=f"{constructor.name}/{index}",
                    )
                except ConstructionCompilationError:
                    if engine != "auto":
                        raise
            if adaptive is None:
                adaptive = _reference_adaptive_success(
                    constructor, language, network, target, seed, index
                )
            estimate.per_instance[index] = (adaptive.estimate, adaptive.half_width)
            estimate.trials_used[index] = adaptive.trials
            continue
        successes = None
        if mode != "off":
            try:
                successes = batched_success_counts(
                    constructor,
                    language,
                    network,
                    runs,
                    seed=seed,
                    salt=f"{constructor.name}/{index}",
                )
            except ConstructionCompilationError:
                # ``auto`` stays a safe default: a construction beyond the
                # engine's shape degrades to the reference loop, while an
                # explicit engine request surfaces the error.
                if engine != "auto":
                    raise
        if successes is None:
            successes = 0
            for trial in range(runs):
                factory = TapeFactory(seed, salt=f"{constructor.name}/{index}", trial=trial)
                configuration = constructor.configuration(network, tape_factory=factory)
                successes += int(language.contains(configuration))
        estimate.per_instance[index] = (
            successes / runs,
            wilson_half_width(successes, runs),
        )
        estimate.trials_used[index] = runs
    return estimate


def _reference_adaptive_success(
    constructor: Constructor,
    language: DistributedLanguage,
    network: Network,
    target: PrecisionTarget,
    seed: int,
    index: int,
) -> ProbabilityEstimate:
    """Sequential stopping on the reference per-trial construction loop
    (the non-compilable fallback); trial ``t`` draws from
    ``TapeFactory(seed, f"{name}/{index}", trial=t)`` exactly like the
    fixed-trial loop."""
    state = {"offset": 0}

    def draw(count: int) -> int:
        successes = 0
        for trial in range(state["offset"], state["offset"] + count):
            factory = TapeFactory(seed, salt=f"{constructor.name}/{index}", trial=trial)
            configuration = constructor.configuration(network, tape_factory=factory)
            successes += int(language.contains(configuration))
        state["offset"] += count
        return successes

    return sequential_estimate(target, draw)
