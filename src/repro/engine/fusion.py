"""Whole-sweep fusion: share construction-engine work across a sweep's points.

Grid sweeps over decider parameters (E2's ε grid, E8's f grid) re-run the
same randomized construction once per point: every point compiles the same
``(constructor, network)`` pair and samples the same ``trials × nodes`` code
matrix before lowering its *own* membership / decision program against it.
This module factors that sharing out:

* :class:`FusionContext` — a per-group memo of compiled constructions
  (keyed by ``(constructor, network)`` under ordinary equality),
  construction matrices and base-language bad-count vectors, the last two
  keyed by **content** (``CompiledConstruction.content_key`` plus seed and
  salt — exactly the inputs
  :func:`~repro.engine.construct.construction_matrix` is a deterministic
  function of), never by object identity.  Matrices grow via a
  retained :class:`~repro.engine.construct.ConstructionStream`, so a point
  needing more trials than a previous one extends the cached matrix and a
  point needing fewer is served a prefix — both bit-identical to a fresh
  one-shot matrix by the stream's chunk-invariance contract.  Retained bytes
  are bounded by :data:`~repro.engine.executor.WORKING_SET_BYTES` (LRU
  eviction; requests whose matrix alone would bust the bound bypass
  retention entirely and fall back to the per-point path).
* :func:`fusion_scope` / :func:`active_fusion` — the ambient context,
  carried in a :class:`contextvars.ContextVar` like the telemetry recorder:
  the batched estimators in :mod:`repro.engine.construct` consult
  :func:`active_fusion` and fall back to their stand-alone path when no
  context is installed, so nothing changes outside a fused sweep.
* :class:`FusedSweepPlan` — groups a sweep's requests by the coarse
  construction cache key ``(experiment, preset, engine, seed)``.  Grouping
  is a *sharing heuristic*, not a correctness boundary: the memo keys above
  enforce actual equality, so an over-broad group degrades to per-point work
  rather than to wrong answers.  Points whose experiment declares no engine
  selector, runs with ``engine="off"``, or derives a per-point seed land in
  singleton groups — the "fusion is inexpressible" fallback.

Exactness contract: a fused sweep is **bit-identical** to the per-point
path.  Every served matrix equals the one-shot ``construction_matrix`` call
it replaces (same compiled content, seed, salt; prefix/extension
equality by chunk invariance), and every shared bad-count vector equals the
point's own ``MembershipProgram.bad_counts`` on that matrix (the counter is
a deterministic function of the base language, the network, and the codes —
the memo key carries all three, using the content-based ``Network``
equality).  Only work is shared, never randomness: points with different
seeds never share an entry.
"""

from __future__ import annotations

from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import TYPE_CHECKING, Callable, Dict, Hashable, Iterator, List, Optional, Tuple

import numpy as np

from repro.engine.construct import (
    CompiledConstruction,
    ConstructionStream,
    compile_membership,
)
from repro.engine.executor import WORKING_SET_BYTES
from repro.obs import get_recorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.languages import DistributedLanguage
    from repro.harness.registry import ExperimentSpec
    from repro.local.network import Network

__all__ = [
    "FusionContext",
    "FusedSweepPlan",
    "active_fusion",
    "fusion_scope",
    "fusion_group_key",
]


class _MatrixEntry:
    """One retained construction matrix plus its derived bad-count vectors.

    ``codes`` holds the trials sampled so far; ``stream`` resumes sampling
    exactly where the matrix ends, so growth preserves the prefix.  Count
    vectors are keyed by ``(base-language fingerprint, network)`` and grown
    in lockstep (counting only the freshly appended rows)."""

    __slots__ = ("stream", "codes", "counts")

    def __init__(self, stream: ConstructionStream) -> None:
        self.stream = stream
        self.codes: Optional[np.ndarray] = None
        self.counts: Dict[Hashable, np.ndarray] = {}

    @property
    def trials(self) -> int:
        return 0 if self.codes is None else int(self.codes.shape[0])

    @property
    def nbytes(self) -> int:
        total = 0 if self.codes is None else int(self.codes.nbytes)
        return total + sum(int(vector.nbytes) for vector in self.counts.values())


class FusionContext:
    """The per-group construction memo of a fused sweep.

    A context is confined to one fusion group's execution (one thread in the
    inline backend, one worker process in the pool backend) — it is never
    shared live across threads or processes, mirroring the recorder's
    discipline."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[Hashable, _MatrixEntry]" = OrderedDict()  # loop-confined
        self._compiled: Dict[Hashable, CompiledConstruction] = {}
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------ #
    @property
    def retained_bytes(self) -> int:
        return sum(entry.nbytes for entry in self._entries.values())

    def _hit(self) -> None:
        self.hits += 1
        get_recorder().counter("engine.fuse_hits")

    def _miss(self) -> None:
        self.misses += 1
        get_recorder().counter("engine.fuse_misses")

    # ------------------------------------------------------------------ #
    def compiled_construction(
        self, constructor: object, network: "Network", build: Callable
    ) -> CompiledConstruction:
        """``build(constructor, network)``, once per group for pairs equal
        under ordinary equality (a constructor without value equality
        matches only itself); an unhashable pair builds every time."""
        key = (constructor, network)
        try:
            compiled = self._compiled.get(key)
        except TypeError:
            return build(constructor, network)
        if compiled is None:
            compiled = self._compiled[key] = build(constructor, network)
        return compiled

    def _entry(
        self,
        compiled: CompiledConstruction,
        trials: int,
        seed_base: int,
        salt: object,
    ) -> Optional[_MatrixEntry]:
        """The retained entry for one matrix request, or ``None`` when the
        request cannot (hashability) or should not (size) be retained."""
        if trials < 1:
            return None
        # A matrix that alone busts the byte bound is never retained: the
        # caller falls back to the one-shot path, whose transient working
        # set is chunk-bounded exactly like before fusion existed.
        if trials * max(compiled.n_nodes, 1) * 4 > WORKING_SET_BYTES:
            return None
        try:
            key = (compiled.content_key, int(seed_base), salt)
            hash(key)
        except TypeError:
            return None
        entry = self._entries.get(key)
        if entry is None:
            entry = self._entries[key] = _MatrixEntry(
                ConstructionStream(compiled, seed=int(seed_base), salt=salt)
            )
        self._entries.move_to_end(key)
        return entry

    def _grow(self, entry: _MatrixEntry, trials: int) -> np.ndarray:
        """The first ``trials`` rows of the entry's matrix, sampling the
        missing suffix (chunk-invariant, so prefixes and extensions are both
        bit-identical to a one-shot matrix)."""
        have = entry.trials
        if trials > have:
            fresh = entry.stream.sample(trials - have)
            entry.codes = fresh if entry.codes is None else np.concatenate([entry.codes, fresh])
            self._miss()
            self._evict()
        else:
            self._hit()
        assert entry.codes is not None
        return entry.codes[:trials]

    def _evict(self) -> None:
        """Drop least-recently-used entries until the retained bytes fit."""
        while len(self._entries) > 1 and self.retained_bytes > WORKING_SET_BYTES:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------ #
    def codes_for(
        self,
        compiled: CompiledConstruction,
        trials: int,
        seed_base: int,
        salt: object,
    ) -> Optional[np.ndarray]:
        """The shared ``trials × nodes`` code matrix, or ``None`` when this
        request bypasses fusion (caller falls back to the one-shot path).

        Bit-identical to ``construction_matrix(compiled, trials,
        seed=seed_base, salt=salt)`` — ``seed_base`` is the stream's master
        seed, exactly what every batched estimator passes.  The returned
        array is a read-only view of the retained matrix."""
        entry = self._entry(compiled, trials, seed_base, salt)
        if entry is None:
            return None
        codes = self._grow(entry, trials)
        codes.flags.writeable = False
        return codes

    def _count_key(
        self, language: "DistributedLanguage", compiled: CompiledConstruction
    ) -> Optional[Hashable]:
        """The sharing key of a base language's bad counts, or ``None`` for
        languages without a safe structural fingerprint (those still share
        the matrix; only the counts stay per-point)."""
        from repro.core.lcl import ProperColoring
        from repro.core.relaxations import EpsSlackLanguage, FResilientLanguage

        base = language
        if isinstance(language, (FResilientLanguage, EpsSlackLanguage)):
            base = language.base
        if type(base) is ProperColoring:
            # Content-based Network equality/hash makes the object itself a
            # sound key component across per-point network rebuilds.
            return (("proper-coloring", base.num_colors), compiled.network)
        return None

    def bad_counts_for(
        self,
        compiled: CompiledConstruction,
        language: "DistributedLanguage",
        trials: int,
        seed_base: int,
        salt: object,
    ) -> Optional[np.ndarray]:
        """Per-trial bad-ball counts of ``language``'s base over the shared
        matrix, or ``None`` when fusion/lowering is unavailable.

        Equal to ``compile_membership(language, compiled).bad_counts(codes)``
        on the matching one-shot matrix: the counter is a deterministic
        function of (base, network, codes), all of which the memo key pins."""
        entry = self._entry(compiled, trials, seed_base, salt)
        if entry is None:
            return None
        key = self._count_key(language, compiled)
        vector = None if key is None else entry.counts.get(key)
        have = 0 if vector is None else len(vector)
        if vector is not None and trials <= have:
            # A hit needs no membership program: the stored vector was
            # counted by one for this very (base, network, codes).  The
            # matrix is still served, and tallied, as on a miss.
            self._grow(entry, trials)
            self._hit()
            return vector[:trials]
        membership = compile_membership(language, compiled)
        if membership is None:
            return None
        codes = self._grow(entry, trials)
        if key is None:
            return membership.bad_counts(codes)
        fresh = membership.bad_counts(codes[have:trials])
        vector = fresh if vector is None else np.concatenate([vector, fresh])
        entry.counts[key] = vector
        self._miss()
        return vector[:trials]

    def member_vector_for(
        self,
        compiled: CompiledConstruction,
        language: "DistributedLanguage",
        trials: int,
        seed_base: int,
        salt: object,
    ) -> Optional[np.ndarray]:
        """Per-trial membership over the shared matrix, or ``None`` when the
        matrix itself bypasses fusion.  Languages the engine cannot lower
        still share the matrix and run the decoded per-row fallback on it —
        bit-identical either way (membership is a deterministic function of
        the outputs)."""
        entry = self._entry(compiled, trials, seed_base, salt)
        if entry is None:
            return None
        membership = compile_membership(language, compiled)
        if membership is None:
            from repro.engine.construct import _member_vector

            return _member_vector(language, compiled, self._grow(entry, trials))
        counts = self.bad_counts_for(compiled, language, trials, seed_base, salt)
        assert counts is not None  # the entry above exists and lowering succeeded
        return counts <= membership.budget


# --------------------------------------------------------------------------- #
# The ambient context
# --------------------------------------------------------------------------- #
_ACTIVE: ContextVar[Optional[FusionContext]] = ContextVar("repro-engine-fusion", default=None)


def active_fusion() -> Optional[FusionContext]:
    """The ambient fusion context, or ``None`` outside a fused group."""
    return _ACTIVE.get()


@contextmanager
def fusion_scope(
    context: Optional[FusionContext] = None, **attributes: object
) -> Iterator[FusionContext]:
    """Install a fusion context for one group's execution.

    Emits the ``engine.fuse_group`` span around the block and annotates it
    with the context's hit/miss/byte tallies on the way out."""
    if context is None:
        context = FusionContext()
    recorder = get_recorder()
    token = _ACTIVE.set(context)
    try:
        with recorder.span("engine.fuse_group", **attributes) as span:
            yield context
            span.annotate(
                fuse_hits=context.hits,
                fuse_misses=context.misses,
                retained_bytes=context.retained_bytes,
            )
    finally:
        _ACTIVE.reset(token)


# --------------------------------------------------------------------------- #
# Sweep planning
# --------------------------------------------------------------------------- #
def fusion_group_key(spec: "ExperimentSpec", kwargs: Dict[str, object]) -> Optional[Hashable]:
    """The coarse sharing key of one resolved request, or ``None`` when
    fusion is inexpressible for it (no engine selector in the schema, or the
    engine explicitly off — the construction then runs through the reference
    per-trial path, which fusion never touches)."""
    if not spec.accepts_engine:
        return None
    engine = kwargs.get("engine")
    if engine in (None, "off"):
        return None
    seed = kwargs.get("seed") if spec.accepts_seed else None
    try:
        hash(seed)
    except TypeError:
        return None
    return (spec.id, engine, seed)


class FusedSweepPlan:
    """The grouping of one sweep's requests into fusion groups.

    ``groups`` holds request indices, in first-occurrence order, grouped by
    :func:`fusion_group_key`; unfusible requests get singleton groups.  The
    backends shard across groups and fuse within them."""

    def __init__(self, groups: Tuple[Tuple[int, ...], ...]) -> None:
        self.groups = groups

    @classmethod
    def build(cls, spec: "ExperimentSpec", requests) -> "FusedSweepPlan":
        """Group ``requests`` (``RunRequest`` objects for ``spec``) by their
        fusion key; the preset is constant across one sweep, so it does not
        enter the key."""
        groups: List[List[int]] = []
        by_key: Dict[Hashable, List[int]] = {}
        for index, request in enumerate(requests):
            key = fusion_group_key(spec, request.kwargs)
            if key in by_key:
                by_key[key].append(index)
                continue
            groups.append([index])
            if key is not None:
                by_key[key] = groups[-1]
        return cls(tuple(tuple(members) for members in groups))

    @property
    def fused_points(self) -> int:
        """Points that actually share a group with at least one other."""
        return sum(len(members) for members in self.groups if len(members) > 1)

    @property
    def has_fusion(self) -> bool:
        return any(len(members) > 1 for members in self.groups)
