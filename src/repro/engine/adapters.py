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

* ``engine="auto"`` — build from the engine when it can, from the
  reference loop otherwise (the default everywhere);
* ``engine="off"`` — always build from the reference loop.

:func:`resolve_engine` (and, for constructors,
:func:`repro.engine.construct.resolve_construction_engine`) maps the value
to a path, ``"engine"`` or ``"off"``, and :func:`engine_or_reference` is the
one place that builds from the chosen side.  A deterministic decider or
constructor has no coins to batch and resolves to ``"off"``.  Every other
time ``auto`` lands on the reference loop, the ambient recorder
(:func:`repro.obs.get_recorder`) counts it under its reason:

* ``engine.fallback.no_program`` — a randomized decider or constructor
  exposes no vote or output program (counted by the resolvers);
* ``engine.fallback.beyond_ir`` — the engine build raised a compile error;
* ``engine.fallback.declined`` — the engine build returned ``None`` (e.g.
  a decider that does not fuse onto a construction).
"""

from __future__ import annotations

from typing import Callable, Optional, TypeVar

from repro.engine.compiler import ProgramCompilationError, is_compilable
from repro.engine.construct import ConstructionCompilationError
from repro.obs import get_recorder

__all__ = [
    "ENGINE_CHOICES",
    "resolve_engine",
    "engine_or_reference",
]

#: Accepted values of the ``engine=`` parameter threaded through the stack.
ENGINE_CHOICES = ("auto", "off")

T = TypeVar("T")


def _resolve(engine: str, randomized: bool, has_program: bool) -> str:
    """The path of an ``engine=`` value for a decider or constructor:
    ``"engine"`` when ``auto`` meets a randomized one with a program,
    ``"off"`` otherwise (counting ``engine.fallback.no_program`` when a
    randomized one has no program)."""
    if engine not in ENGINE_CHOICES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINE_CHOICES}")
    if engine == "off" or not randomized:
        return "off"
    if not has_program:
        get_recorder().counter("engine.fallback.no_program")
        return "off"
    return "engine"


def resolve_engine(engine: str, decider: object) -> str:
    """Map an ``engine=`` parameter value to the decider's execution path:
    ``"engine"`` or ``"off"`` (the reference loop).  Raises ``ValueError``
    for a value outside :data:`ENGINE_CHOICES`, for deterministic deciders
    too."""
    return _resolve(engine, getattr(decider, "randomized", False), is_compilable(decider))


def engine_or_reference(
    path: str,
    build_engine: Callable[[], Optional[T]],
    build_reference: Callable[[], T],
) -> T:
    """Build from the engine on the ``"engine"`` path, from the reference
    loop otherwise.

    ``path`` is what a resolver made of the ``engine=`` value.
    ``build_engine`` returns ``None`` when the engine declines and raises
    :class:`~repro.engine.compiler.ProgramCompilationError` or
    :class:`~repro.engine.construct.ConstructionCompilationError` for a
    program beyond the IR; either way the reference loop takes over and the
    fallback is counted.
    """
    if path == "off":
        return build_reference()
    try:
        built = build_engine()
    except (ProgramCompilationError, ConstructionCompilationError):
        get_recorder().counter("engine.fallback.beyond_ir")
        return build_reference()
    if built is None:
        get_recorder().counter("engine.fallback.declined")
        return build_reference()
    return built
