"""The ``engine=`` dispatch between the engine and the reference loops.

:mod:`repro.core.decision`, :mod:`repro.core.construction` and
:mod:`repro.core.derandomization` build every Monte-Carlo estimate as one
success stream, either from the engine (when the decider or constructor
compiles, see :func:`repro.engine.compiler.is_compilable`) or from the
reference per-trial loop.  The engine reads the same ``(seed, salt)``
stream as the reference loop it replaces — trial ``t`` of node ``v`` reads
the tape with key ``(seed, salt, t, identity(v))``, whose draw ``k`` is the
counter-based ``U(key, k)`` of :mod:`repro.local.randomness` — so both
builders yield bit-for-bit the same stream.  Callers choose between

* ``engine="auto"`` — build from the engine when the decider compiles, from
  the reference loop otherwise (the default everywhere);
* ``engine="exact"`` — build from the engine, and raise when the decider
  does not compile;
* ``engine="off"`` — always build from the reference loop.

:func:`resolve_engine` maps the value to a path and
:func:`engine_or_reference` is the one place that builds from the chosen
side, including the ``auto`` fallback.  A decider is compilable when it
exposes ``vote_program(ball)``; see :mod:`repro.engine.compiler`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Hashable, Optional, Type, TypeVar

from repro.engine.compiler import compile_decision, is_compilable
from repro.engine.executor import exact_single_trial_votes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.decision import Decider
    from repro.core.languages import Configuration

__all__ = [
    "ENGINE_CHOICES",
    "resolve_engine",
    "engine_or_reference",
    "engine_single_trial_votes",
]

#: Accepted values of the ``engine=`` parameter threaded through the stack.
ENGINE_CHOICES = ("auto", "exact", "off")

T = TypeVar("T")


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


def engine_or_reference(
    engine: str,
    path: str,
    build_engine: Callable[[], Optional[T]],
    build_reference: Callable[[], T],
    error: Type[Exception],
) -> T:
    """Build from the engine on the engine ``path``, from the reference
    loop otherwise.

    ``path`` is what :func:`resolve_engine` (or its construction-side
    counterpart) made of ``engine``.  ``build_engine`` returns ``None`` when
    the engine declines (fusion unavailable) and raises ``error`` for a
    program beyond the IR; either way the reference loop takes over, except
    that an explicit ``engine="exact"`` re-raises the error instead of
    silently measuring something else.
    """
    if path != "off":
        try:
            built = build_engine()
        except error:
            if engine != "auto":
                raise
            built = None
        if built is not None:
            return built
    return build_reference()


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
