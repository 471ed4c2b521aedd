"""Engine RNG sites: ``derive_generator`` streams for fast mode, and the
counter-based reference tapes for exact mode.

``derive_generator`` is bit-identical to the inline
``np.random.default_rng(derive_seed(...))`` spelling at every fast-mode call
shape.  The exact-mode sites draw no generator at all: they compute the
reference tapes ``TapeFactory(seed, salt, trial).tape_for(identity)``
through the block form of the counter-based stream.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.local.randomness import (
    TapeFactory,
    counter_uniforms,
    derive_generator,
    derive_seed,
    node_keys,
)

# The component tuples of every fast-mode engine RNG site (executor fast,
# construct fast-decide / fast-output), with representative values.
SITES = [
    ("executor-fast", ("engine-fast", "salt-a", "decider-name", 17)),
    ("construct-fast-decide", ("construct-fast-decide", "s", "decider", 23)),
    ("construct-fast-output", ("construct-fast", "s", "constructor", 23)),
]

#: The ``(salt, identity)`` of every exact-mode site (executor votes,
#: fused decide votes, construction outputs).
EXACT_SITES = [
    ("executor-exact", ("salt-a", 17)),
    ("construct-exact-decide", ("s", 23)),
    ("construct-exact-output", ("s", 23)),
]


@pytest.mark.parametrize("seed", [0, 10_000])
@pytest.mark.parametrize("label,components", SITES, ids=[s[0] for s in SITES])
def test_bit_identity_with_inline_spelling(seed, label, components):
    old = np.random.default_rng(derive_seed(seed, *components))
    new = derive_generator(seed, *components)
    assert np.array_equal(old.random(256), new.random(256))
    assert np.array_equal(old.integers(0, 1 << 30, 64), new.integers(0, 1 << 30, 64))


@pytest.mark.parametrize("seed", [0, 1, 10_000])
@pytest.mark.parametrize("label,site", EXACT_SITES, ids=[s[0] for s in EXACT_SITES])
def test_exact_sites_compute_the_reference_tapes(seed, label, site):
    salt, identity = site
    keys = node_keys(derive_seed(seed, salt), np.arange(6), np.array([identity]))
    block = counter_uniforms(keys, 8)
    for trial in range(6):
        tape = TapeFactory(seed, salt, trial=trial).tape_for(identity)
        assert [tape.uniform() for _ in range(8)] == block[trial, 0].tolist()


def test_distinct_components_give_distinct_streams():
    a = derive_generator(0, "salt", 1)
    b = derive_generator(0, "salt", 2)
    assert not np.array_equal(a.random(32), b.random(32))


def test_distant_seeds_give_distinct_streams():
    a = derive_generator(0, "salt", 1)
    b = derive_generator(10_000, "salt", 1)
    assert not np.array_equal(a.random(32), b.random(32))
