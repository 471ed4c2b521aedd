"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping

import pytest

# Run every engine compile under the IR verifier (repro.check.ir).  Opt-out
# (REPRO_CHECK_IR=0) stays possible for timing comparisons; production runs
# never pay — the hook is off unless the variable is set.
os.environ.setdefault("REPRO_CHECK_IR", "1")

try:  # Hypothesis is a test-only extra; the property suite skips without it.
    from hypothesis import HealthCheck, settings

    # ``ci`` is the reproducible profile the workflow pins via
    # $HYPOTHESIS_PROFILE: derandomized (fixed example seed), no deadline
    # (shared CI runners stall unpredictably), bounded example count.
    settings.register_profile(
        "ci",
        derandomize=True,
        deadline=None,
        max_examples=50,
        suppress_health_check=[HealthCheck.too_slow],
    )
    settings.register_profile("dev", deadline=None)
    settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))
except ImportError:  # pragma: no cover - hypothesis not installed
    pass

from repro.core.languages import Configuration
from repro.core.lcl import ProperColoring
from repro.graphs.families import cycle_network, grid_network, path_network, star_network
from repro.graphs.random_graphs import random_regular_network
from repro.local.randomness import TapeFactory
from repro.obs import TraceRecorder, use_recorder


def fallback_counters(counters: Mapping[str, int]) -> Dict[str, int]:
    """The ``engine.fallback.*`` entries of a recorder's counters."""
    return {name: value for name, value in counters.items() if name.startswith("engine.fallback.")}


@contextmanager
def engine_ran() -> Iterator[TraceRecorder]:
    """Run the block under a fresh ambient :class:`TraceRecorder` and assert
    that ``engine="auto"`` never fell back to the reference loop in it.

    An ``auto``-vs-``off`` comparison checks the engine against the
    reference loop only if ``auto`` really ran the engine; without this
    check a silent fallback would compare ``off`` with ``off``.  A
    :class:`~repro.api.Session` installs its own recorder, so pass it the
    yielded one (``Session(telemetry=recorder)``).
    """
    recorder = TraceRecorder()
    with use_recorder(recorder):
        yield recorder
    assert fallback_counters(recorder.counters) == {}, "auto fell back to the reference loop"


@pytest.fixture
def small_cycle():
    """A 9-node cycle with consecutive identities (the paper's hard family)."""
    return cycle_network(9, ids="consecutive")


@pytest.fixture
def small_path():
    """A 7-node path with consecutive identities."""
    return path_network(7, ids="consecutive")


@pytest.fixture
def small_grid():
    """A 4x4 grid (maximum degree 4)."""
    return grid_network(4, 4)


@pytest.fixture
def small_star():
    """A star with 5 leaves."""
    return star_network(5)


@pytest.fixture
def cubic_graph():
    """A connected random 3-regular graph on 20 nodes (fixed seed)."""
    return random_regular_network(20, 3, seed=7)


@pytest.fixture
def proper_three_coloring(small_cycle):
    """A valid 3-coloring configuration of the 9-node cycle."""
    colors = {node: (index % 3) + 1 for index, node in enumerate(small_cycle.nodes())}
    return Configuration(small_cycle, colors)


@pytest.fixture
def broken_three_coloring(small_cycle):
    """A 3-coloring of the 9-node cycle with exactly one conflicting edge."""
    nodes = small_cycle.nodes()
    colors = {node: (index % 3) + 1 for index, node in enumerate(nodes)}
    # Copy a neighbour's color onto node 0, creating a conflict.
    colors[nodes[0]] = colors[nodes[1]]
    return Configuration(small_cycle, colors)


@pytest.fixture
def coloring_language():
    return ProperColoring(3)


@pytest.fixture
def tapes():
    """A deterministic tape factory for randomized algorithms."""
    return TapeFactory(12345)
