"""Private per-node randomness for Monte-Carlo LOCAL algorithms.

In the paper, a randomized Monte-Carlo algorithm gives every node access to a
private source of independent random bits (Section 2.1.2).  The collection of
random bit-strings generated by all nodes during one execution can be viewed
as one large random string indexed by node identities; the derandomization
proof fixes such strings (``C_sigma``) and re-runs the algorithm
deterministically.

We model this with :class:`RandomTape` — a deterministic, replayable stream of
random values owned by one node — and :class:`TapeFactory`, which derives one
tape per node identity from a master seed.  Fixing the master seed therefore
fixes the whole random string ``sigma`` in the sense of the paper, which is
exactly what the hard-instance search in
:mod:`repro.core.derandomization` needs.

Counter-based streams
---------------------
A tape is *counter-based* (Salmon et al., "Parallel Random Numbers: As Easy
as 1, 2, 3", SC'11): its draw ``k`` is a pure function ``U(key, k)`` of the
tape's 64-bit key and the draw index, not the state of a sequential
generator.  The key of node ``v`` in trial ``t`` is

* ``base = derive_seed(seed, salt)`` — SHA-256, once per factory;
* ``key = mix64(mix64(base + t·γ) + identity(v)·γ)``;

and draw ``k`` is the SplitMix64 output
``U(key, k) = (mix64(key + (k+1)·γ) >> 11) · 2⁻⁵³``, where ``mix64`` is the
SplitMix64 finalizer and ``γ = 0x9E3779B97F4A7C15`` (all arithmetic modulo
2⁶⁴).  So the stream identity is the tuple ``(seed, salt, trial, identity)``:
different seeds, salts, trials or identities give unrelated streams, with no
arithmetic coupling between adjacent seeds or trials.  Every tape method is
a function of successive uniforms: ``bernoulli(p)`` is ``u < p``, ``bit`` is
``u < 1/2``, ``randint(lo, hi)`` is ``lo + ⌊u·n⌋`` with ``n = hi − lo + 1``
(each value's probability is off by at most ``n·2⁻⁵³``), ``choice`` indexes
through ``randint``, and ``permutation`` is Fisher–Yates over successive
draws.

The definition is written twice: as pure-int scalar code (:func:`mix64`,
:func:`node_key`, :func:`counter_uniform`), which the reference tapes use
without numpy's per-call overhead, and as ``uint64`` array code
(:func:`node_keys`, :func:`counter_uniforms`), which the engine uses to draw
a whole ``trials × nodes × draws`` block in one array operation.  The two
are pinned bit-equal by the tests, so the engine reproduces the reference
loops by construction.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "RandomTape",
    "TapeFactory",
    "derive_seed",
    "mix64",
    "node_key",
    "counter_uniform",
    "node_keys",
    "counter_uniforms",
]

MASK64 = (1 << 64) - 1
#: The SplitMix64 increment (the golden-ratio constant ``⌊2⁶⁴/φ⌋``, odd).
GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
#: One unit in the last place of a 53-bit uniform.
UNIT = 2.0**-53


def derive_seed(master_seed: int, *components: object) -> int:
    """Derive a 64-bit child seed from a master seed and arbitrary components.

    The derivation is stable across processes and Python versions (it uses
    SHA-256 of the textual representation), so executions are reproducible.

    Parameters
    ----------
    master_seed:
        The master seed of the execution.
    components:
        Extra values (typically a salt naming the stream, and possibly a
        label) that individualise the child seed.

    Returns
    -------
    int
        A non-negative 64-bit integer seed.
    """
    h = hashlib.sha256()
    h.update(repr(int(master_seed)).encode("utf8"))
    for comp in components:
        h.update(b"|")
        h.update(repr(comp).encode("utf8"))
    return int.from_bytes(h.digest()[:8], "big")


# --------------------------------------------------------------------------- #
# The counter-based stream, scalar form (pure Python ints)
# --------------------------------------------------------------------------- #
def mix64(z: int) -> int:
    """The SplitMix64 finalizer: a bijection of 64-bit words with full
    avalanche."""
    z = ((z ^ (z >> 30)) * _MIX1) & MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & MASK64
    return z ^ (z >> 31)


def node_key(base: int, trial: int, identity: int) -> int:
    """The tape key of node ``identity`` in trial ``trial`` of the stream
    whose SHA-256 base is ``base`` (see the module docstring)."""
    trial_key = mix64((base + trial * GAMMA) & MASK64)
    return mix64((trial_key + identity * GAMMA) & MASK64)


def counter_uniform(key: int, k: int) -> float:
    """Draw ``k`` of the tape with key ``key``: a multiple of ``2⁻⁵³`` in
    ``[0, 1)``."""
    return (mix64((key + (k + 1) * GAMMA) & MASK64) >> 11) * UNIT


# --------------------------------------------------------------------------- #
# The counter-based stream, block form (numpy uint64, bit-equal to the above)
# --------------------------------------------------------------------------- #
_GAMMA_U64 = np.uint64(GAMMA)
_MIX1_U64 = np.uint64(_MIX1)
_MIX2_U64 = np.uint64(_MIX2)


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """:func:`mix64` over a ``uint64`` array, in place (wrapping products)."""
    z ^= z >> np.uint64(30)
    z *= _MIX1_U64
    z ^= z >> np.uint64(27)
    z *= _MIX2_U64
    z ^= z >> np.uint64(31)
    return z


def node_keys(base: int, trials: np.ndarray, identities: np.ndarray) -> np.ndarray:
    """The ``len(trials) × len(identities)`` matrix of :func:`node_key`
    values, as ``uint64``."""
    trials = np.asarray(trials).astype(np.uint64)
    identities = np.asarray(identities).astype(np.uint64)
    trial_keys = _mix64_inplace(trials * _GAMMA_U64 + np.uint64(base))
    return _mix64_inplace(trial_keys[:, None] + identities[None, :] * _GAMMA_U64)


def counter_uniforms(keys: np.ndarray, draws: int) -> np.ndarray:
    """Draws ``0 .. draws-1`` of every key: an array of shape
    ``keys.shape + (draws,)`` equal to :func:`counter_uniform` elementwise."""
    counters = np.arange(1, draws + 1, dtype=np.uint64) * _GAMMA_U64
    z = _mix64_inplace(keys[..., None] + counters)
    return (z >> np.uint64(11)).astype(np.float64) * UNIT


# --------------------------------------------------------------------------- #
# Tapes and factories
# --------------------------------------------------------------------------- #
@dataclass
class RandomTape:
    """A replayable private random source for a single node.

    Draw ``k`` of the tape is :func:`counter_uniform` of its key and ``k``;
    the tape only counts how many values have been drawn, so it can be reset
    and replayed — this is how we "fix the random string sigma" when
    emulating the deterministic algorithm ``C_sigma`` from the proof of
    Theorem 1.

    Parameters
    ----------
    seed:
        The tape's 64-bit key (taken modulo 2⁶⁴).  Two tapes with the same
        key produce identical streams.
    """

    seed: int
    _draws: int = field(default=0, init=False, repr=False)

    def __post_init__(self) -> None:
        self._key = int(self.seed) & MASK64

    def _next(self) -> float:
        value = counter_uniform(self._key, self._draws)
        self._draws += 1
        return value

    # ------------------------------------------------------------------ #
    # Basic draws
    # ------------------------------------------------------------------ #
    def bit(self) -> int:
        """Draw a single uniformly random bit (0 or 1)."""
        return int(self._next() < 0.5)

    def bits(self, n: int) -> list[int]:
        """Draw ``n`` independent uniform bits."""
        if n < 0:
            raise ValueError("number of bits must be non-negative")
        return [self.bit() for _ in range(n)]

    def uniform(self) -> float:
        """Draw a uniform float in [0, 1) (a multiple of 2⁻⁵³)."""
        return self._next()

    def randint(self, low: int, high: int) -> int:
        """Draw a uniform integer in the inclusive range [low, high]
        (``low + ⌊u·n⌋``; each value's probability is within ``n·2⁻⁵³`` of
        ``1/n``)."""
        if high < low:
            raise ValueError("empty range for randint")
        return low + int(self._next() * (high - low + 1))

    def choice(self, items: Sequence) -> object:
        """Draw a uniformly random element of a non-empty sequence."""
        if len(items) == 0:
            raise ValueError("cannot choose from an empty sequence")
        return items[self.randint(0, len(items) - 1)]

    def bernoulli(self, p: float) -> bool:
        """Return True with probability ``p``."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability must be in [0,1], got {p}")
        return self._next() < p

    def permutation(self, n: int) -> list[int]:
        """Draw a uniformly random permutation of range(n) (Fisher–Yates,
        one ``randint`` per position from the last down to the second)."""
        values = list(range(n))
        for last in range(n - 1, 0, -1):
            other = self.randint(0, last)
            values[last], values[other] = values[other], values[last]
        return values

    # ------------------------------------------------------------------ #
    # Introspection and control
    # ------------------------------------------------------------------ #
    @property
    def draws(self) -> int:
        """Number of elementary draws made so far."""
        return self._draws

    def reset(self) -> None:
        """Rewind the tape to its initial state (same key, zero draws)."""
        self._draws = 0

    def fork(self, label: object) -> "RandomTape":
        """Create an independent child tape whose key is a fresh SHA-256
        derivation from this tape's key and ``label``."""
        return RandomTape(derive_seed(self.seed, "fork", label))


class TapeFactory:
    """Derives one :class:`RandomTape` per node identity from a master seed.

    The factory realises the paper's view of the global random string as a
    multi-set of per-node strings *indexed by node identities*: the tape of a
    node depends only on ``(master_seed, salt, trial)`` and on the node's
    identity, not on the graph, so the same node identity embedded in two
    different networks receives the same private randomness.  This property
    is needed by the gluing argument (a node "cannot distinguish an instance
    on H_i from an instance on G", including its own coin flips).

    ``trial`` numbers the independent executions of one Monte-Carlo
    estimate: trial ``t`` of seed ``s`` is ``TapeFactory(s, salt, trial=t)``,
    never a shifted master seed.
    """

    def __init__(self, master_seed: int = 0, salt: object = "", trial: int = 0) -> None:
        self.master_seed = int(master_seed)
        self.salt = salt
        self.trial = int(trial)
        self._base = derive_seed(self.master_seed, salt)
        self._cache: dict[int, RandomTape] = {}

    def tape_for(self, identity: int) -> RandomTape:
        """Return the tape for a node identity (cached per factory)."""
        identity = int(identity)
        tape = self._cache.get(identity)
        if tape is None:
            tape = self._cache[identity] = RandomTape(
                node_key(self._base, self.trial, identity)
            )
        return tape

    def fresh(self) -> "TapeFactory":
        """Return a factory with the same seed but empty cache (all tapes
        rewound)."""
        return TapeFactory(self.master_seed, self.salt, self.trial)

    def reseeded(self, new_seed: int) -> "TapeFactory":
        """Return a factory with a different master seed (fresh randomness)."""
        return TapeFactory(new_seed, self.salt, self.trial)

    def __iter__(self) -> Iterator[tuple[int, RandomTape]]:
        return iter(self._cache.items())
