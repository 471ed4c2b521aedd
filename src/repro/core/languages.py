"""Distributed languages and input-output configurations (Section 2.2.1).

A *configuration* pairs a network ``(G, x)`` (graph, identities, inputs) with
an output assignment ``y``; a *distributed language* is a set of
configurations ``(G, (x, y))`` such that every input configuration admits at
least one accepted output.  A language defines two tasks:

* the *construction task*: given ``(G, x, id)``, produce ``y`` with
  ``(G, (x, y)) ∈ L`` — see :mod:`repro.core.construction`;
* the *decision task*: given ``(G, (x, y), id)``, have every node output a
  boolean so that the configuration is accepted (all true) iff it belongs to
  ``L`` — see :mod:`repro.core.decision`.

This module provides the global (possibly non-local) languages used in the
paper — ``amos`` ("at most one selected", the canonical BPLD \\ LD witness)
and ``majority`` (constructible in zero rounds but not locally decidable) —
plus the generic :class:`PredicateLanguage`.  Locally checkable languages
(coloring and friends) live in :mod:`repro.core.lcl`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Hashable, Mapping, Optional

from repro.local.ball import BallView, collect_ball
from repro.local.network import Network

__all__ = [
    "SELECTED",
    "Configuration",
    "DistributedLanguage",
    "PredicateLanguage",
    "Amos",
    "Majority",
]

#: The distinguished "selected" output mark (the paper's ``*``) used by the
#: amos and majority languages.
SELECTED = "*"


@dataclass(frozen=True)
class Configuration:
    """An input-output configuration ``(G, (x, y))`` with identities.

    Attributes
    ----------
    network:
        The network, carrying the graph ``G``, the identities ``id`` and the
        inputs ``x``.
    outputs:
        The output assignment ``y``: one value per node of the network.
    """

    network: Network
    outputs: Mapping[Hashable, object]

    def __post_init__(self) -> None:
        missing = set(self.network.nodes()) - set(self.outputs)
        if missing:
            raise ValueError(
                f"outputs missing for {len(missing)} node(s), e.g. "
                f"{sorted(map(repr, missing))[:3]}"
            )
        # Freeze the mapping so configurations are safely shareable.
        object.__setattr__(self, "outputs", dict(self.outputs))

    # ------------------------------------------------------------------ #
    def output_of(self, node: Hashable) -> object:
        return self.outputs[node]

    def ball(self, node: Hashable, radius: int) -> BallView:
        """The radius-``radius`` ball around ``node``, outputs included."""
        return collect_ball(self.network, node, radius, outputs=self.outputs)

    def nodes(self) -> list:
        return self.network.nodes()

    def selected_nodes(self) -> list:
        """Nodes whose output is the distinguished mark :data:`SELECTED`."""
        return [node for node in self.network.nodes() if self.outputs[node] == SELECTED]

    def with_outputs(self, outputs: Mapping[Hashable, object]) -> "Configuration":
        """A configuration on the same network with (some) outputs replaced."""
        merged = dict(self.outputs)
        merged.update(outputs)
        return Configuration(self.network, merged)

    def __len__(self) -> int:
        return len(self.network)


class DistributedLanguage(ABC):
    """A distributed language: a set of input-output configurations."""

    #: Human-readable name used in reports and benchmarks.
    name: str = "language"

    @abstractmethod
    def contains(self, configuration: Configuration) -> bool:
        """Whether ``(G, (x, y))`` belongs to the language."""

    def __contains__(self, configuration: Configuration) -> bool:
        return self.contains(configuration)

    def violation_count(self, configuration: Configuration) -> int:
        """A non-negative integer that is zero iff the configuration is in
        the language.  Subclasses with a natural violation structure (e.g.
        LCL languages counting bad balls) override this; the default is the
        0/1 indicator."""
        return 0 if self.contains(configuration) else 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"


class PredicateLanguage(DistributedLanguage):
    """A language defined by an arbitrary global predicate on configurations.

    Useful for building toy languages in tests and in the derandomization
    experiments (where we need languages with controlled hardness).
    """

    def __init__(
        self,
        predicate: Callable[[Configuration], bool],
        name: str = "predicate-language",
        violation_counter: Optional[Callable[[Configuration], int]] = None,
    ) -> None:
        self._predicate = predicate
        self.name = name
        self._violation_counter = violation_counter

    def contains(self, configuration: Configuration) -> bool:
        return bool(self._predicate(configuration))

    def violation_count(self, configuration: Configuration) -> int:
        if self._violation_counter is not None:
            return int(self._violation_counter(configuration))
        return super().violation_count(configuration)


class Amos(DistributedLanguage):
    """``amos`` — *at most one selected* (Section 2.3.1).

    A configuration belongs to amos iff at most one node outputs the
    distinguished mark :data:`SELECTED`.  The language is the canonical
    witness that BPLD strictly contains LD: it cannot be decided
    deterministically in fewer than ``D/2 − 1`` rounds on graphs of diameter
    ``D`` (no node can see two selected nodes that are far apart), yet it is
    randomly decidable in zero rounds with guarantee ``p = (√5 − 1)/2``.
    """

    name = "amos"

    def contains(self, configuration: Configuration) -> bool:
        return len(configuration.selected_nodes()) <= 1

    def violation_count(self, configuration: Configuration) -> int:
        return max(0, len(configuration.selected_nodes()) - 1)


class Majority(DistributedLanguage):
    """``majority`` — at least half of the nodes output :data:`SELECTED`.

    Mentioned in Section 2.2.2 as a typical language that is constructible in
    constant time (every node simply selects itself) but *not* decidable in
    constant time: counting is global.
    """

    name = "majority"

    #: Strictness of the threshold: the paper's phrasing "a majority of nodes
    #: output ``*``" is implemented as ``#selected >= n/2``.
    def contains(self, configuration: Configuration) -> bool:
        n = len(configuration)
        if n == 0:
            return True
        return 2 * len(configuration.selected_nodes()) >= n

    def violation_count(self, configuration: Configuration) -> int:
        n = len(configuration)
        needed = (n + 1) // 2
        return max(0, needed - len(configuration.selected_nodes()))
