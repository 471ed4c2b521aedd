"""Batched trial evaluation of compiled decisions.

One Monte-Carlo trial of a compiled decider runs every node's vote program
(a small Bernoulli circuit, see :mod:`repro.engine.compiler`) and takes the
global AND; ``trials`` trials are evaluated as stacked ``trials × coins``
comparisons against the program thresholds.  Two sampling modes are
provided:

``exact`` (what ``engine="auto"`` runs)
    Bit-for-bit the reference path, by construction.  The reference loop's
    trial ``t`` draws node ``v``'s coins from the tape
    ``TapeFactory(seed, salt, trial=t).tape_for(identity(v))``, whose key is
    ``(seed, salt, t, identity(v))`` and whose draw ``k`` is the
    counter-based ``U(key, k)`` of :mod:`repro.local.randomness`.  A program
    node at depth ``d`` consumes draw ``d``, so the executor computes the
    whole ``trials × coin-nodes × draws`` block of ``U`` values in one array
    operation (:func:`~repro.local.randomness.counter_uniforms`) and runs
    each program as a vectorized state machine over it — no per-trial or
    per-node Python.  Draws a program never reads are computed and ignored;
    and since each node's draws depend on nothing but its own key, the
    reference loop's early return at the first rejecting node cannot change
    any other node's coins either.

``fast``
    Each coin-flipping node draws its uniform block from its own
    deterministically-derived :class:`numpy.random.Generator`.  The
    per-trial accept/reject stream differs from the reference path, but its
    distribution is identical — the equivalence test in ``tests/engine``
    checks this statistically and via the exact per-trial product
    :attr:`CompiledDecision.deterministic_accept_probability`.

Chunked execution
-----------------
Neither mode materialises one giant ``trials × coins`` matrix.  The fast
mode processes the coin-flipping nodes in **column blocks** whose uniform
working set stays below ``max_bytes`` (default :data:`DEFAULT_MAX_BYTES`,
overridable per call or via ``$REPRO_ENGINE_MAX_BYTES``), carrying the
per-trial accept vector across blocks and short-circuiting the remaining
columns once every trial has rejected; per-node generators consumed in
``(trial, draw)`` order make its stream independent of the blocking.  The
exact mode walks trial blocks of at most :data:`EXACT_BLOCK_BYTES` of
uniforms (or ``max_bytes``, if smaller; at least one trial per block):
its draws are pure functions of ``(trial, identity, draw)``, so every
blocking, every ``max_bytes`` and every resumption offset yields the same
values.
"""

from __future__ import annotations

import os
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.engine.compiler import ACCEPT, CompiledDecision, VoteProgram
from repro.local.randomness import counter_uniforms, derive_generator, derive_seed, node_keys
from repro.obs import get_recorder
from repro.stats import PrecisionTarget, ProbabilityEstimate, sequential_estimate

__all__ = [
    "DEFAULT_MAX_BYTES",
    "EXACT_BLOCK_BYTES",
    "accept_vector",
    "vote_matrix",
    "acceptance_probability",
    "exact_single_trial_votes",
    "deterministic_accept_value",
    "AcceptStream",
    "adaptive_acceptance",
]

_MODES = ("fast", "exact")

#: Default bound on the fast mode's uniform working set, in bytes.
DEFAULT_MAX_BYTES = 64 * 1024 * 1024

#: Bound on one exact-mode block of uniforms, in bytes.  Small and fixed:
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


def _resolve_salt(compiled: CompiledDecision, mode: str, salt: Optional[object]) -> object:
    if mode not in _MODES:
        raise ValueError(f"unknown engine mode {mode!r}; expected one of {_MODES}")
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
# Exact mode: counter-based uniform blocks
# --------------------------------------------------------------------------- #
def _exact_blocks(
    compiled: CompiledDecision,
    positions: np.ndarray,
    base: int,
    offset: int,
    count: int,
    max_bytes: int,
) -> Iterator[Tuple[int, int, np.ndarray, np.ndarray]]:
    """Exact-mode vote blocks of trials ``offset .. offset+count-1`` at the
    listed coin positions.

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
# Fast mode: vectorized program evaluation over column blocks
# --------------------------------------------------------------------------- #
def _fast_node_generator(
    compiled: CompiledDecision, position: int, seed: int, salt: object
) -> np.random.Generator:
    """One coin-flipping node's fast-mode generator, derived from the node
    identity — so the stream a node sees is independent of which block (and
    which ``max_bytes``) it lands in."""
    return derive_generator(
        int(seed),
        "engine-fast",
        salt,
        compiled.decider_name,
        int(compiled.identities[position]),
    )


def _fast_column_blocks(
    compiled: CompiledDecision,
    positions: np.ndarray,
    trials: int,
    max_bytes: int,
) -> Iterator[Tuple[VoteProgram, List[int]]]:
    """Group the coin-flipping node positions into per-program column blocks
    whose uniform working set stays below ``max_bytes``.

    Positions are grouped by program (not by adjacency in node order), so
    configurations with interleaved ball classes still evaluate each program
    in a handful of vectorized passes.  The resulting streams are
    block-independent anyway: every node draws from its own generator.
    """
    budget_draws = max(1, max_bytes // (8 * max(trials, 1)))
    by_program: "dict[int, List[int]]" = {}
    for position in positions:
        by_program.setdefault(int(compiled.program_ids[position]), []).append(int(position))
    for program_id, group in by_program.items():
        program = compiled.programs[program_id]
        width = max(1, budget_draws // max(program.max_draws, 1))
        for start in range(0, len(group), width):
            yield program, group[start : start + width]


def _fast_votes_for(
    compiled: CompiledDecision,
    program: VoteProgram,
    positions: List[int],
    trials: int,
    seed: int,
    salt: object,
    max_bytes: int,
) -> np.ndarray:
    """One program group's ``trials × len(positions)`` fast-mode votes.

    The trial axis is sliced so the uniform working set also honours
    ``max_bytes`` when a *single* node column at full ``trials`` would
    already exceed it (the high-trial regime the bound exists for).  Each
    node's generator is created once and consumed sequentially across
    slices, so the values equal the unsliced generation exactly
    (``Generator.random`` fills C-order): chunk-invariance holds on both
    axes.
    """
    recorder = get_recorder()
    draws = max(program.max_draws, 1)
    generators = [
        _fast_node_generator(compiled, position, seed, salt) for position in positions
    ]
    votes = np.empty((trials, len(positions)), dtype=bool)
    trial_block = max(1, max_bytes // (8 * len(positions) * draws))
    # Telemetry is observation only: the span times the block, the chunk
    # counter tallies it — neither touches a generator, so the sampled
    # stream (and hence every estimate) is identical with telemetry on/off.
    with recorder.span(
        "engine.chunk",
        mode="fast",
        trials=trials,
        columns=len(positions),
        draws=draws,
        working_set_bytes=min(trials, trial_block) * len(positions) * draws * 8,
    ):
        for start in range(0, trials, trial_block):
            stop = min(trials, start + trial_block)
            recorder.counter("engine.chunks")
            uniforms = np.empty((stop - start, len(positions), draws), dtype=np.float64)
            for column, generator in enumerate(generators):
                uniforms[:, column, :] = generator.random((stop - start, draws))
            votes[start:stop] = _evaluate_program_block(program, uniforms)
    return votes


# --------------------------------------------------------------------------- #
# Public entry points
# --------------------------------------------------------------------------- #
def accept_vector(
    compiled: CompiledDecision,
    trials: int,
    seed: int = 0,
    mode: str = "fast",
    salt: Optional[object] = None,
    max_bytes: Optional[int] = None,
) -> np.ndarray:
    """Per-trial global acceptance (``all`` over the node votes).

    Returns a boolean vector of length ``trials``.  Only the coin-flipping
    nodes are sampled; a deterministic reject anywhere short-circuits the
    whole matrix to ``False``.  ``max_bytes`` bounds the uniform working set
    (see the module docstring).
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    salt = _resolve_salt(compiled, mode, salt)
    max_bytes = _resolve_max_bytes(max_bytes)
    if compiled.always_rejects:
        return np.zeros(trials, dtype=bool)
    random_positions = compiled.random_index
    if len(random_positions) == 0:
        return np.ones(trials, dtype=bool)
    recorder = get_recorder()
    with recorder.span(
        "engine.execute",
        op="accept_vector",
        mode=mode,
        trials=trials,
        nodes=compiled.n_nodes,
        random_nodes=len(random_positions),
        max_bytes=max_bytes,
    ) as span:
        if mode == "exact":
            return _exact_accept_vector(compiled, derive_seed(seed, salt), 0, trials, max_bytes)
        accepted = np.ones(trials, dtype=bool)
        blocks = 0
        for program, positions in _fast_column_blocks(
            compiled, random_positions, trials, max_bytes
        ):
            if not accepted.any():  # short-circuit carry: everything rejected
                span.annotate(short_circuited=True)
                break
            votes = _fast_votes_for(
                compiled, program, positions, trials, seed, salt, max_bytes
            )
            accepted &= votes.all(axis=1)
            blocks += 1
        span.annotate(column_blocks=blocks)
    return accepted


def vote_matrix(
    compiled: CompiledDecision,
    trials: int,
    seed: int = 0,
    mode: str = "fast",
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
    salt = _resolve_salt(compiled, mode, salt)
    max_bytes = _resolve_max_bytes(max_bytes)
    random_positions = compiled.random_index
    if len(random_positions) == 0:
        return np.broadcast_to(compiled.probabilities >= 1.0, (trials, compiled.n_nodes)).copy()
    recorder = get_recorder()
    with recorder.span(
        "engine.execute",
        op="vote_matrix",
        mode=mode,
        trials=trials,
        nodes=compiled.n_nodes,
        random_nodes=len(random_positions),
        max_bytes=max_bytes,
    ):
        if mode == "exact":
            return _exact_vote_matrix(compiled, derive_seed(seed, salt), 0, trials, max_bytes)
        votes = np.broadcast_to(compiled.probabilities >= 1.0, (trials, compiled.n_nodes)).copy()
        for program, positions in _fast_column_blocks(
            compiled, random_positions, trials, max_bytes
        ):
            votes[:, positions] = _fast_votes_for(
                compiled, program, positions, trials, seed, salt, max_bytes
            )
    return votes


def acceptance_probability(
    compiled: CompiledDecision,
    trials: int,
    seed: int = 0,
    mode: str = "fast",
    salt: Optional[object] = None,
    max_bytes: Optional[int] = None,
) -> float:
    """Monte-Carlo Pr[all nodes accept] over ``trials`` batched trials."""
    accepted = accept_vector(
        compiled, trials, seed=seed, mode=mode, salt=salt, max_bytes=max_bytes
    )
    return float(np.count_nonzero(accepted)) / trials


def deterministic_accept_value(compiled: CompiledDecision) -> Optional[bool]:
    """The global accept value when it is structurally determined.

    ``False`` when some node's program is constantly rejecting, ``True``
    when every program is constantly accepting, ``None`` when acceptance
    genuinely depends on draws.  The adaptive estimators use this to report
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
    :func:`accept_vector` call with the total trial count, in both modes:

    * exact mode draws trial ``t`` from its own counter-based keys, so a
      batch starting at offset ``o`` simply evaluates trials
      ``o .. o+count-1``;
    * fast mode holds every coin-flipping node's generator open across
      batches — each node's uniforms arrive in ``(trial, draw)`` order
      regardless of batching, exactly the chunk-invariance the fixed-trial
      path already guarantees for ``max_bytes`` slicing.

    This is what lets a sequential-stopping rule decide *after* a chunk
    whether to continue, without perturbing a single sampled value.
    """

    def __init__(
        self,
        compiled: CompiledDecision,
        seed: int = 0,
        mode: str = "fast",
        salt: Optional[object] = None,
        max_bytes: Optional[int] = None,
    ) -> None:
        self.compiled = compiled
        self.mode = mode
        self._salt = _resolve_salt(compiled, mode, salt)
        self._base = derive_seed(seed, self._salt)
        self._max_bytes = _resolve_max_bytes(max_bytes)
        self._offset = 0
        self._constant = deterministic_accept_value(compiled)
        self._groups: List[Tuple[VoteProgram, List[int]]] = []
        self._generators: Dict[int, np.random.Generator] = {}
        if self._constant is None and mode == "fast":
            by_program: "Dict[int, List[int]]" = {}
            for position in compiled.random_index:
                by_program.setdefault(
                    int(compiled.program_ids[position]), []
                ).append(int(position))
            self._groups = [
                (compiled.programs[program_id], group)
                for program_id, group in by_program.items()
            ]
            self._generators = {
                position: _fast_node_generator(compiled, position, seed, self._salt)
                for _, group in self._groups
                for position in group
            }

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
        recorder = get_recorder()
        with recorder.span(
            "engine.stream_sample", mode=self.mode, trials=count, offset=start
        ):
            if self.mode == "exact":
                return _exact_accept_vector(
                    self.compiled, self._base, start, count, self._max_bytes
                )
            accepted = np.ones(count, dtype=bool)
            for program, positions in self._groups:
                draws = max(program.max_draws, 1)
                votes = np.empty((count, len(positions)), dtype=bool)
                trial_block = max(1, self._max_bytes // (8 * len(positions) * draws))
                for lo in range(0, count, trial_block):
                    hi = min(count, lo + trial_block)
                    recorder.counter("engine.chunks")
                    uniforms = np.empty((hi - lo, len(positions), draws), dtype=np.float64)
                    for column, position in enumerate(positions):
                        uniforms[:, column, :] = self._generators[position].random(
                            (hi - lo, draws)
                        )
                    votes[lo:hi] = _evaluate_program_block(program, uniforms)
                # No cross-group short-circuit: every node's generator must
                # advance exactly ``count`` trials per batch, or the next batch
                # would read a shifted stream and break chunk invariance.
                accepted &= votes.all(axis=1)
            return accepted


def adaptive_acceptance(
    compiled: CompiledDecision,
    target: PrecisionTarget,
    seed: int = 0,
    mode: str = "fast",
    salt: Optional[object] = None,
    max_bytes: Optional[int] = None,
) -> ProbabilityEstimate:
    """Estimate Pr[all accept] until ``target`` is met (sequential stopping).

    The trial stream is the same chunk-invariant stream the fixed-trial
    :func:`acceptance_probability` consumes, so stopping after ``k`` trials
    reports exactly the ``k``-trial fixed estimate.  Structurally constant
    decisions return the exact degenerate estimate without sampling.
    """
    constant = deterministic_accept_value(compiled)
    if constant is not None:
        return ProbabilityEstimate.exact(constant, confidence=target.confidence)
    stream = AcceptStream(compiled, seed=seed, mode=mode, salt=salt, max_bytes=max_bytes)
    return sequential_estimate(
        target, lambda count: int(np.count_nonzero(stream.sample(count)))
    )


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
