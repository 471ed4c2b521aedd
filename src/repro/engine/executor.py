"""Batched trial evaluation of compiled decisions.

One Monte-Carlo trial of a compiled decider runs every node's vote program
(a small Bernoulli circuit, see :mod:`repro.engine.compiler`) and takes the
global AND; ``trials`` trials are evaluated as stacked ``trials × coins``
comparisons against the program thresholds.

Sampling is bit-for-bit the reference path, by construction.  The reference
loop's trial ``t`` draws node ``v``'s coins from the tape
``TapeFactory(seed, salt, trial=t).tape_for(identity(v))``, whose key is
``(seed, salt, t, identity(v))`` and whose draw ``k`` is the counter-based
``U(key, k)`` of :mod:`repro.local.randomness`.  A program node at depth
``d`` consumes draw ``d``, so the executor computes the whole ``trials ×
coin-nodes × draws`` block of ``U`` values in one array operation
(:func:`~repro.local.randomness.counter_uniforms`) and runs each program as
a vectorized state machine over it — no per-trial or per-node Python.
Draws a program never reads are computed and ignored; and since each node's
draws depend on nothing but its own key, the reference loop's early return
at the first rejecting node cannot change any other node's coins either.

Chunked execution
-----------------
No entry point materialises one giant ``trials × coins`` matrix of
uniforms: the executor walks trial blocks of at most
:data:`EXACT_BLOCK_BYTES` of uniforms (or ``max_bytes``, if smaller; at
least one trial per block), and :func:`accept_vector` stops once every
trial has rejected.  Draws are pure functions of ``(trial, identity,
draw)``, so every blocking, every ``max_bytes`` and every resumption offset
yields the same values.  ``max_bytes`` defaults to :data:`DEFAULT_MAX_BYTES`
and can be overridden per call or via ``$REPRO_ENGINE_MAX_BYTES``.

:class:`AcceptStream` is the resumable form: ``sample(count)`` evaluates
the next ``count`` trials, so a fixed estimate is one ``sample(trials)``
and an adaptive one continues the same stream (:func:`accept_vector` is
the one-shot call).
"""

from __future__ import annotations

import os
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.engine.compiler import ACCEPT, CompiledDecision, VoteProgram
from repro.local.randomness import counter_uniforms, derive_seed, node_keys
from repro.obs import get_recorder

__all__ = [
    "DEFAULT_MAX_BYTES",
    "EXACT_BLOCK_BYTES",
    "accept_vector",
    "vote_matrix",
    "exact_single_trial_votes",
    "deterministic_accept_value",
    "AcceptStream",
]

#: Default ``max_bytes``: the bound on fusion retention and membership
#: gathers, in bytes (the uniform blocks are capped lower still).
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Bound on one block of uniforms, in bytes.  Small and fixed:
#: counter-based draws gain nothing from larger batches once the per-block
#: numpy overhead is amortized, and a small block keeps peak memory flat.
EXACT_BLOCK_BYTES = 128 * 1024


def _resolve_max_bytes(max_bytes: Optional[int]) -> int:
    if max_bytes is None:
        raw = os.environ.get("REPRO_ENGINE_MAX_BYTES", "")
        try:
            max_bytes = int(raw) if raw else DEFAULT_MAX_BYTES
        except ValueError:
            raise ValueError(
                f"$REPRO_ENGINE_MAX_BYTES must be a plain byte count, got {raw!r}"
            ) from None
    if max_bytes < 1:
        raise ValueError("max_bytes must be positive")
    return max_bytes


def _resolve_salt(compiled: CompiledDecision, salt: Optional[object]) -> object:
    return compiled.decider_name if salt is None else salt


def _evaluate_program_block(program: VoteProgram, uniforms: np.ndarray) -> np.ndarray:
    """Evaluate one program on a ``trials × nodes × draws`` uniform block.

    Runs the lowered decision DAG as a vectorized state machine: program
    nodes are processed in decreasing index order (every edge goes from a
    higher index to a lower one), each moving the trials currently at that
    node along its true/false edge.
    """
    shape = uniforms.shape[:2]
    if program.root < 0:
        return np.full(shape, program.root == ACCEPT, dtype=bool)
    state = np.full(shape, program.root, dtype=np.int32)
    for node in range(program.root, -1, -1):
        at_node = state == node
        if not at_node.any():
            continue
        takes_true = uniforms[..., program.depths[node]] < program.thresholds[node]
        state[at_node] = np.where(
            takes_true[at_node], program.on_true[node], program.on_false[node]
        )
    return state == ACCEPT


# --------------------------------------------------------------------------- #
# Counter-based uniform blocks
# --------------------------------------------------------------------------- #
def _exact_blocks(
    compiled: CompiledDecision,
    positions: np.ndarray,
    base: int,
    offset: int,
    count: int,
    max_bytes: int,
) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
    """Vote blocks of trials ``offset .. offset+count-1`` at the listed coin
    positions.

    Yields ``(lo, hi, columns, votes)``: ``votes`` is the
    ``(hi-lo) × len(columns)`` vote block of trials ``offset+lo ..
    offset+hi-1`` at ``positions[columns]``.  Positions are grouped by
    program, and each block holds at most ``min(max_bytes,
    EXACT_BLOCK_BYTES)`` bytes of uniforms (at least one trial).
    """
    recorder = get_recorder()
    budget = min(max_bytes, EXACT_BLOCK_BYTES) // 8
    program_ids = compiled.program_ids[positions]
    for program_id in np.unique(program_ids):
        program = compiled.programs[int(program_id)]
        draws = max(program.max_draws, 1)
        columns = np.flatnonzero(program_ids == program_id)
        identities = compiled.identities[positions[columns]]
        rows = max(1, budget // (len(columns) * draws))
        for lo in range(0, count, rows):
            hi = min(count, lo + rows)
            recorder.counter("engine.chunks")
            keys = node_keys(base, np.arange(offset + lo, offset + hi), identities)
            yield lo, hi, columns, _evaluate_program_block(program, counter_uniforms(keys, draws))


def _exact_accept_vector(
    compiled: CompiledDecision, base: int, offset: int, count: int, max_bytes: int
) -> np.ndarray:
    """Per-trial global acceptance of trials ``offset .. offset+count-1``."""
    accepted = np.ones(count, dtype=bool)
    for lo, hi, _columns, votes in _exact_blocks(
        compiled, compiled.random_index, base, offset, count, max_bytes
    ):
        accepted[lo:hi] &= votes.all(axis=1)
        if not accepted.any():  # pure draws: skipping the rest changes nothing
            break
    return accepted


def _exact_vote_matrix(
    compiled: CompiledDecision, base: int, offset: int, count: int, max_bytes: int
) -> np.ndarray:
    """The ``count × nodes`` vote matrix of trials ``offset ..
    offset+count-1`` (every node evaluated in every trial)."""
    votes = np.broadcast_to(compiled.probabilities >= 1.0, (count, compiled.n_nodes)).copy()
    random_positions = compiled.random_index
    for lo, hi, columns, block in _exact_blocks(
        compiled, random_positions, base, offset, count, max_bytes
    ):
        votes[lo:hi, random_positions[columns]] = block
    return votes


# --------------------------------------------------------------------------- #
# Public entry points
# --------------------------------------------------------------------------- #
def accept_vector(
    compiled: CompiledDecision,
    trials: int,
    seed: int = 0,
    salt: Optional[object] = None,
    max_bytes: Optional[int] = None,
) -> np.ndarray:
    """Per-trial global acceptance (``all`` over the node votes).

    Returns a boolean vector of length ``trials``.  Only the coin-flipping
    nodes are sampled; a deterministic reject anywhere short-circuits the
    whole vector to ``False``.  ``max_bytes`` bounds the uniform working set
    (see the module docstring).  This is the one-shot form of
    :class:`AcceptStream` (a single ``sample(trials)`` on a fresh stream),
    so one-shot and resumable sampling share one implementation.
    """
    return AcceptStream(compiled, seed=seed, salt=salt, max_bytes=max_bytes).sample(trials)


def vote_matrix(
    compiled: CompiledDecision,
    trials: int,
    seed: int = 0,
    salt: Optional[object] = None,
    max_bytes: Optional[int] = None,
) -> np.ndarray:
    """The full ``trials × nodes`` boolean vote matrix.

    Use :func:`accept_vector` when only global acceptance is needed — it
    avoids materialising the deterministic columns and short-circuits.  This
    entry point serves callers that reduce over *subsets* of the node votes
    (the single-trial case is :func:`exact_single_trial_votes`, which the
    derandomization loops use for the Claim 4 far-acceptance events).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    salt = _resolve_salt(compiled, salt)
    max_bytes = _resolve_max_bytes(max_bytes)
    random_positions = compiled.random_index
    if len(random_positions) == 0:
        return np.broadcast_to(compiled.probabilities >= 1.0, (trials, compiled.n_nodes)).copy()
    with get_recorder().span(
        "engine.execute",
        op="vote_matrix",
        trials=trials,
        nodes=compiled.n_nodes,
        random_nodes=len(random_positions),
        max_bytes=max_bytes,
    ):
        return _exact_vote_matrix(compiled, derive_seed(seed, salt), 0, trials, max_bytes)


def deterministic_accept_value(compiled: CompiledDecision) -> Optional[bool]:
    """The global accept value when it is structurally determined.

    ``False`` when some node's program is constantly rejecting, ``True``
    when every program is constantly accepting, ``None`` when acceptance
    genuinely depends on draws.  Adaptive estimates use this to report
    exact degenerate estimates instead of sampling a constant.
    """
    if compiled.always_rejects:
        return False
    if len(compiled.random_index) == 0:
        return True
    return None


class AcceptStream:
    """A resumable per-trial acceptance stream over a compiled decision.

    ``sample(count)`` returns the accept vector of the **next** ``count``
    trials; the concatenation of successive samples is bit-identical to one
    :func:`accept_vector` call with the total trial count, because trial
    ``t`` is drawn from its own counter-based keys: a batch starting at
    offset ``o`` simply evaluates trials ``o .. o+count-1``.

    Every decision estimate samples through this stream: a fixed run is one
    ``sample(trials)``, and a sequential-stopping rule decides *after* each
    chunk whether to continue, without perturbing a single sampled value.
    """

    def __init__(
        self,
        compiled: CompiledDecision,
        seed: int = 0,
        salt: Optional[object] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.compiled = compiled
        self._base = derive_seed(seed, _resolve_salt(compiled, salt))
        self._max_bytes = _resolve_max_bytes(max_bytes)
        self._offset = 0
        self._constant = deterministic_accept_value(compiled)

    @property
    def trials_sampled(self) -> int:
        return self._offset

    def sample(self, count: int) -> np.ndarray:
        """The accept vector of the next ``count`` trials."""
        if count < 1:
            raise ValueError("count must be positive")
        start = self._offset
        self._offset += count
        if self._constant is not None:
            return np.full(count, self._constant, dtype=bool)
        compiled = self.compiled
        with get_recorder().span(
            "engine.execute",
            op="stream",
            trials=count,
            offset=start,
            nodes=compiled.n_nodes,
            random_nodes=len(compiled.random_index),
            max_bytes=self._max_bytes,
        ):
            return _exact_accept_vector(compiled, self._base, start, count, self._max_bytes)


def exact_single_trial_votes(
    compiled: CompiledDecision,
    master_seed: int,
    salt: object,
    trial: int = 0,
) -> np.ndarray:
    """One trial's per-node votes under the reference tape streams.

    Equivalent to ``decider.decide(configuration,
    tape_factory=TapeFactory(master_seed, salt, trial))`` restricted to the
    vote booleans, and bit-for-bit identical to it for compilable deciders.
    """
    return _exact_vote_matrix(
        compiled, derive_seed(master_seed, salt), int(trial), 1, EXACT_BLOCK_BYTES
    )[0]
