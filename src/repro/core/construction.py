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
constructor against a language over a set of instances.  Each instance is
one success stream (``_success_stream``, which
:func:`~repro.core.derandomization.find_hard_instances` reads too), built
by the construction engine when the constructor compiles and by the
reference per-trial loop otherwise; :func:`repro.stats.run_estimate` runs
it for a fixed trial count or to a ``precision=`` target.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Optional, Sequence, Tuple

from repro.core.languages import Configuration, DistributedLanguage
from repro.engine.adapters import engine_or_reference
from repro.engine.construct import (
    ConstructionCompilationError,
    resolve_construction_engine,
    success_stream,
)
from repro.stats import PrecisionTarget, run_estimate, wilson_half_width
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
    half-width target is met, with ``trials`` as the per-instance cap.  A
    fixed run is the first draw of the same stream, so an instance stopping
    at ``k`` trials reports exactly its fixed ``k``-trial rate.  Fixed rows
    report :func:`~repro.stats.wilson_half_width`; adaptive rows the
    half-width of the target's interval.
    """
    target = PrecisionTarget.coerce(precision, default_cap=trials)
    path = resolve_construction_engine(engine, constructor)
    if not constructor.randomized:
        trials, target = 1, None
    estimate = SuccessEstimate()
    for index, network in enumerate(networks):
        draw, constant = _success_stream(
            constructor, language, network, seed, f"{constructor.name}/{index}", engine, path
        )
        result = run_estimate(draw, trials, target, constant)
        fixed_width = wilson_half_width(result.successes, result.trials)
        half_width = result.half_width if target is not None else fixed_width
        estimate.per_instance[index] = (result.estimate, half_width)
        estimate.trials_used[index] = result.trials
    return estimate


def _success_stream(
    constructor: Constructor,
    language: DistributedLanguage,
    network: Network,
    seed: int,
    salt: str,
    engine: str,
    path: str,
) -> Tuple[Callable[[int], int], Optional[bool]]:
    """The success stream of ``constructor`` on one instance.

    Returns ``(draw, constant)``: ``draw(count)`` runs the next ``count``
    trials — trial ``t`` draws from ``TapeFactory(seed, salt, trial=t)`` —
    and counts those whose configuration belongs to ``language``.
    ``constant`` is the membership of an engine-compiled construction with
    no random outputs, ``None`` otherwise.  The construction engine builds
    the stream on the engine ``path``, the reference loop otherwise (see
    :func:`~repro.engine.adapters.engine_or_reference`).
    """

    def from_reference() -> Tuple[Callable[[int], int], Optional[bool]]:
        offset = 0

        def draw(count: int) -> int:
            nonlocal offset
            successes = 0
            for trial in range(offset, offset + count):
                factory = TapeFactory(seed, salt=salt, trial=trial)
                configuration = constructor.configuration(network, tape_factory=factory)
                successes += int(language.contains(configuration))
            offset += count
            return successes

        return draw, None

    return engine_or_reference(
        engine,
        path,
        lambda: success_stream(constructor, language, network, seed=seed, salt=salt),
        from_reference,
        ConstructionCompilationError,
    )
