"""F(G) computed once: array proper-coloring checks against the per-ball spec.

``LCLLanguage.is_bad_ball`` is the specification of an LCL language.
:meth:`repro.core.lcl.ProperColoring.bad_mask` computes the same flags as
array operations over :attr:`repro.local.network.Network.neighbor_positions`,
and the two Corollary 1 deciders compile from those flags without a ball.
The properties below pin both against the per-ball definitions on cycles,
paths, grids, random-regular graphs and disjoint unions with isolated nodes
and relabelled identities, with outputs that mix in-palette and
out-of-palette values of every type the membership check may meet.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.decision import AmplifiedResilientDecider, ResilientDecider
from repro.core.languages import Configuration
from repro.core.lcl import LCLLanguage, ProperColoring
from repro.engine.compiler import compile_decision
from repro.graphs.families import cycle_network, grid_network, path_network
from repro.graphs.operations import disjoint_union
from repro.graphs.random_graphs import random_regular_network
from repro.harness.experiments import _cycle_coloring_with_bad_balls
from tests.conftest import engine_ran


class EqualToEverything:
    """An output whose ``__eq__`` disagrees with its (identity) hash."""

    def __eq__(self, other: object) -> bool:
        return True

    def __hash__(self) -> int:
        return id(self)


NAN = float("nan")
#: Outputs whose interning could change an ``==`` outcome.
SPEC_ONLY = (NAN, [1], EqualToEverything())
#: Ints in and out of the palette, ``True`` and ``1.0`` (both ``== 1``),
#: strings and ``None``.
ORDINARY = (1, 2, 3, 0, 4, -1, True, False, 1.0, "1", "a", None)


@st.composite
def networks(draw):
    kind = draw(st.sampled_from(["cycle", "path", "grid", "regular", "union"]))
    if kind == "cycle":
        return cycle_network(draw(st.integers(3, 12)))
    if kind == "path":
        return path_network(draw(st.integers(1, 10)))
    if kind == "grid":
        return grid_network(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    if kind == "regular":
        degree = draw(st.integers(1, 3))
        n = 2 * draw(st.integers(2, 5))
        seed = draw(st.integers(0, 99))
        return random_regular_network(n, degree, seed=seed, require_connected=False)
    # A union with isolated nodes, then identities relabelled so that
    # identity order differs from node order.
    parts = [cycle_network(draw(st.integers(3, 6))), path_network(1), path_network(1)]
    if draw(st.booleans()):
        parts.append(grid_network(2, draw(st.integers(1, 3))))
    union = disjoint_union(draw(st.permutations(parts)))
    nodes = union.nodes()
    identities = draw(
        st.lists(st.integers(1, 10**6), min_size=len(nodes), max_size=len(nodes), unique=True)
    )
    return union.with_ids(dict(zip(nodes, identities)))


@st.composite
def configurations(draw, pool=ORDINARY + SPEC_ONLY):
    network = draw(networks())
    values = draw(st.lists(st.sampled_from(pool), min_size=len(network), max_size=len(network)))
    return Configuration(network, dict(zip(network.nodes(), values)))


def spec_flags(language: LCLLanguage, configuration: Configuration) -> list:
    """The per-ball specification: ``is_bad_ball`` on every node's ball."""
    return [
        bool(language.is_bad_ball(configuration.ball(node, language.radius)))
        for node in configuration.nodes()
    ]


class TestProperColoringMaskMatchesSpec:
    @given(configuration=configurations(), k=st.sampled_from([None, 1, 2, 3]))
    def test_every_membership_query_equals_the_spec_loop(self, configuration, k):
        language = ProperColoring(k)
        expected = spec_flags(language, configuration)
        spec = mock.patch.object(
            LCLLanguage, "bad_mask", autospec=True, side_effect=LCLLanguage.bad_mask
        )
        with spec as spec_loop:
            mask = language.bad_mask(configuration)
        assert mask.dtype == bool and mask.tolist() == expected
        assert language.bad_nodes(configuration) == [
            node for node, bad in zip(configuration.nodes(), expected) if bad
        ]
        assert language.violation_count(configuration) == sum(expected)
        assert language.contains(configuration) == (not any(expected))
        outputs = list(configuration.outputs.values())
        if any(value is special for value in outputs for special in SPEC_ONLY):
            assert spec_loop.call_count == 1
        elif all(type(value) in (int, bool, str, type(None)) for value in outputs):
            assert spec_loop.call_count == 0

    def test_one_nan_object_is_not_a_conflict(self):
        # Interning maps one NaN object to one code, but ``nan == nan`` is
        # False, so two neighbours holding it are no conflict.
        network = path_network(2)
        configuration = Configuration(network, {node: NAN for node in network.nodes()})
        assert ProperColoring().bad_mask(configuration).tolist() == [False, False]
        assert ProperColoring().contains(configuration)


class _PerBall:
    """A decider without ``vote_programs``: ``compile_decision`` then runs
    its per-ball loop over the wrapped decider's ``vote_program``."""

    def __init__(self, decider) -> None:
        self.vote_program = decider.vote_program
        self.radius = decider.radius
        self.name = decider.name


def _corollary_one_deciders(f: int):
    return [
        ResilientDecider(ProperColoring(3), f=f),
        AmplifiedResilientDecider(ProperColoring(3), f=f, repetitions=3),
    ]


class TestMaskBuiltCompile:
    @given(
        configuration=configurations(pool=(1, 2, 3, 0, 4)),
        f=st.integers(1, 4),
    )
    def test_compile_equals_the_per_ball_compile(self, configuration, f):
        for decider in _corollary_one_deciders(f):
            compiled = compile_decision(decider, configuration)
            reference = compile_decision(_PerBall(decider), configuration)
            for name in ("nodes", "decider_name", "radius"):
                assert getattr(compiled, name) == getattr(reference, name)
            for name in ("identities", "probabilities", "program_ids"):
                np.testing.assert_array_equal(getattr(compiled, name), getattr(reference, name))
            assert len(compiled.programs) == len(reference.programs)
            for program, expected in zip(compiled.programs, reference.programs):
                for name in ("thresholds", "on_true", "on_false", "depths"):
                    np.testing.assert_array_equal(getattr(program, name), getattr(expected, name))
                for name in ("root", "accept_probability", "constant", "max_draws"):
                    assert getattr(program, name) == getattr(expected, name)

    @pytest.mark.parametrize("seed", [0, 10_000])
    @pytest.mark.parametrize("bad_balls", [0, 2, 6])
    def test_acceptance_auto_equals_off(self, seed, bad_balls):
        configuration = _cycle_coloring_with_bad_balls(cycle_network(24), bad_balls)
        for decider in _corollary_one_deciders(2):
            with engine_ran():
                auto = decider.acceptance_probability(
                    configuration, trials=300, seed=seed, engine="auto"
                )
            off = decider.acceptance_probability(
                configuration, trials=300, seed=seed, engine="off"
            )
            assert auto == off
