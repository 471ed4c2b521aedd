"""Solution-quality metrics for configurations.

These are the quantities reported in the benchmark tables: the fraction of
bad nodes of a configuration under an LCL language (the ε of the ε-slack
relaxation), the number of conflicting edges of a coloring, the sizes of
independent sets / matchings / dominating sets, and the number of distinct
colors used.
"""

from __future__ import annotations

from repro.core.languages import Configuration
from repro.core.lcl import LCLLanguage

__all__ = [
    "fraction_bad_nodes",
    "conflicting_edges",
    "color_count",
    "independent_set_size",
    "matching_size",
    "dominating_set_size",
]


def fraction_bad_nodes(language: LCLLanguage, configuration: Configuration) -> float:
    """Fraction of nodes whose radius-``t`` ball is bad under the language."""
    return language.fraction_bad(configuration)


def conflicting_edges(configuration: Configuration) -> int:
    """Number of edges whose endpoints carry equal outputs (coloring view)."""
    network = configuration.network
    return sum(
        1
        for u, v in network.edges()
        if configuration.output_of(u) == configuration.output_of(v)
    )


def color_count(configuration: Configuration) -> int:
    """Number of distinct output values used."""
    return len(set(configuration.outputs.values()))


def independent_set_size(configuration: Configuration) -> int:
    """Number of nodes with a truthy output (membership encoding)."""
    return sum(1 for value in configuration.outputs.values() if bool(value))


def matching_size(configuration: Configuration) -> int:
    """Number of matched *pairs* in a partner-identity encoding.

    Counts pairs ``(u, v)`` such that ``y(u) = id(v)`` and ``y(v) = id(u)``;
    inconsistent declarations are not counted.
    """
    network = configuration.network
    pairs = 0
    for u, v in network.edges():
        if (
            configuration.output_of(u) == network.identity(v)
            and configuration.output_of(v) == network.identity(u)
        ):
            pairs += 1
    return pairs


def dominating_set_size(configuration: Configuration) -> int:
    """Number of nodes with a truthy output (same encoding as independent sets)."""
    return independent_set_size(configuration)
