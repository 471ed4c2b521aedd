"""Relaxations of LCL languages: f-resilient and ε-slack (Sections 1.1 and 4).

Given an LCL language ``L`` defined by excluding a set of bad radius-``t``
balls:

* the **f-resilient relaxation** ``L_f`` (Definition 1) contains every
  configuration with **at most f** bad balls.  It is generally *not* locally
  checkable (counting up to ``f`` is global), but Corollary 1 shows it lies
  in BPLD and therefore inherits the derandomization theorem: randomization
  does not help to construct it;
* the **ε-slack relaxation** tolerates a **fraction ε of the nodes** having
  bad balls.  Randomization *does* help for it (the trivial zero-round random
  coloring solves ε-slack coloring with constant probability) — the paper's
  Section 5 notes the corresponding languages are only in BPLD#node, outside
  the reach of Theorem 1.

Both relaxations are themselves :class:`~repro.core.languages.DistributedLanguage`
objects, so deciders, constructors, and the guarantee/success estimators
apply to them unchanged.
"""

from __future__ import annotations

from repro.core.languages import Configuration, DistributedLanguage
from repro.core.lcl import LCLLanguage

__all__ = [
    "FResilientLanguage",
    "EpsSlackLanguage",
    "f_resilient",
    "eps_slack",
]


class FResilientLanguage(DistributedLanguage):
    """The f-resilient relaxation ``L_f`` of an LCL language ``L``.

    A configuration belongs to ``L_f`` iff it contains at most ``f`` balls of
    ``Bad(L)`` (Definition 1 of the paper).  ``L_0`` coincides with ``L``.
    """

    def __init__(self, base: LCLLanguage, f: int) -> None:
        if f < 0:
            raise ValueError("the resilience budget f must be non-negative")
        self.base = base
        self.f = int(f)
        self.name = f"{base.name}[f-resilient, f={f}]"

    @property
    def radius(self) -> int:
        """Checking radius of the underlying LCL language."""
        return self.base.radius

    def contains(self, configuration: Configuration) -> bool:
        # Early-exit count: stop as soon as the budget is exceeded.
        budget = self.f
        for node in configuration.nodes():
            if self.base.is_bad_ball(configuration.ball(node, self.base.radius)):
                budget -= 1
                if budget < 0:
                    return False
        return True

    def violation_count(self, configuration: Configuration) -> int:
        """Number of bad balls *beyond* the tolerated budget."""
        return max(0, self.base.violation_count(configuration) - self.f)

    def bad_ball_count(self, configuration: Configuration) -> int:
        """Raw number of bad balls (``|F(G)|`` of the base language)."""
        return self.base.violation_count(configuration)


class EpsSlackLanguage(DistributedLanguage):
    """The ε-slack relaxation of an LCL language ``L``.

    A configuration on ``n`` nodes belongs to the relaxation iff at most
    ``ε·n`` of its nodes have bad balls.  Following the paper's discussion
    (Sections 1.1 and 5), the tolerated number of violations scales with the
    instance size — which is exactly why the language escapes BPLD (it is
    only in BPLD#node) and why randomization helps for it.
    """

    def __init__(self, base: LCLLanguage, eps: float) -> None:
        if not 0.0 <= eps <= 1.0:
            raise ValueError("the slack fraction ε must lie in [0, 1]")
        self.base = base
        self.eps = float(eps)
        self.name = f"{base.name}[eps-slack, eps={eps}]"

    @property
    def radius(self) -> int:
        return self.base.radius

    def allowed_bad(self, n: int) -> int:
        """The number of bad balls tolerated on an ``n``-node instance."""
        return int(self.eps * n)

    def contains(self, configuration: Configuration) -> bool:
        budget = self.allowed_bad(len(configuration))
        for node in configuration.nodes():
            if self.base.is_bad_ball(configuration.ball(node, self.base.radius)):
                budget -= 1
                if budget < 0:
                    return False
        return True

    def violation_count(self, configuration: Configuration) -> int:
        return max(
            0,
            self.base.violation_count(configuration)
            - self.allowed_bad(len(configuration)),
        )

    def bad_ball_count(self, configuration: Configuration) -> int:
        return self.base.violation_count(configuration)


def f_resilient(base: LCLLanguage, f: int) -> FResilientLanguage:
    """Build the f-resilient relaxation ``L_f`` of an LCL language."""
    return FResilientLanguage(base, f)


def eps_slack(base: LCLLanguage, eps: float) -> EpsSlackLanguage:
    """Build the ε-slack relaxation of an LCL language."""
    return EpsSlackLanguage(base, eps)
