"""The construction memo: share construction-engine work within a group.

Every group a backend runs — one ``Session`` request, or the points of a
fused sweep (E2's ε grid, E8's f grid) — runs under one memo, and the
estimators of :mod:`repro.engine.construct` take every compile, code
window, bad count and membership vector from it.  A request's own estimates
share it (E2's bad-fraction probe and its ε rows compile and sample one
construction per size), and a sweep's points share it across the group:

* :class:`FusionContext` — the memo of compiled constructions (keyed by
  ``(constructor, network)`` under ordinary equality), construction
  matrices and base-language bad-count vectors, the last two keyed by
  **content** (``CompiledConstruction.content_key`` plus seed and salt —
  exactly the inputs :func:`~repro.engine.construct.construction_matrix`
  is a deterministic function of), never by object identity.  Matrices
  grow via a retained :class:`~repro.engine.construct.ConstructionStream`,
  so a request needing more trials than a previous one extends the cached
  matrix and a request needing fewer is served a prefix — both
  bit-identical to a fresh one-shot matrix by the stream's
  chunk-invariance contract.  Retained bytes are bounded by
  :data:`~repro.engine.executor.WORKING_SET_BYTES` (LRU eviction).  A
  request whose matrix alone would bust the bound, or whose salt is
  unhashable, is sampled one-shot inside the context and not retained.
* :func:`fusion_scope` / :func:`active_fusion` — the installed context,
  carried in a :class:`contextvars.ContextVar` like the telemetry recorder.
  :func:`repro.api.backends.execute_group_payload` installs one per group;
  an estimator called outside any scope (a library call, or a service job
  through :func:`~repro.api.backends.execute_payload`) takes a fresh
  context of its own, so there is one path either way.
* :class:`FusedSweepPlan` — groups a sweep's requests by the coarse
  construction cache key ``(experiment, preset, engine, seed)``.  Grouping
  is a *sharing heuristic*, not a correctness boundary: the memo keys above
  enforce actual equality, so an over-broad group degrades to per-point work
  rather than to wrong answers.  Points whose experiment declares no engine
  selector, runs with ``engine="off"``, or derives a per-point seed land in
  singleton groups — the "fusion is inexpressible" fallback.

Exactness contract: a memo-served estimate is **bit-identical** to a fresh
one.  Every served matrix equals the one-shot ``construction_matrix`` call
it replaces (same compiled content, seed, salt; prefix/extension
equality by chunk invariance), and every shared bad-count vector equals the
request's own ``MembershipProgram.bad_counts`` on that matrix (the counter
is a deterministic function of the base language, the network, and the
codes — the memo key carries all three, using the content-based ``Network``
equality).  Only work is shared, never randomness: requests with different
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
    MembershipProgram,
    compile_membership,
    construction_matrix,
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
    """The construction memo of one group's execution.

    A context is confined to one group's execution (one thread in the
    inline backend, one worker process in the pool backend), or to the one
    estimator that made it outside any scope — it is never shared live
    across threads or processes, mirroring the recorder's discipline.
    ``retained_bytes`` is the running total of the retained matrices and
    count vectors."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[Hashable, _MatrixEntry]" = OrderedDict()  # loop-confined
        self._compiled: List[Tuple[object, "Network", CompiledConstruction]] = []
        self.hits = 0
        self.misses = 0
        self.retained_bytes = 0

    # ------------------------------------------------------------------ #
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
        """``build(constructor, network)``, once per context for pairs equal
        under ordinary equality (a constructor without value equality
        matches only itself).  A scan, not a hash lookup: the first compile
        of a fresh context hashes no network content."""
        for known, known_network, compiled in self._compiled:
            if known == constructor and known_network == network:
                return compiled
        compiled = build(constructor, network)
        self._compiled.append((constructor, network, compiled))
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
        # A matrix that alone busts the byte bound is never retained: it is
        # sampled one-shot, whose transient working set is chunk-bounded.
        if trials < 1 or trials * max(compiled.n_nodes, 1) * 4 > WORKING_SET_BYTES:
            return None
        try:
            key = (compiled.content_key, int(seed_base), salt)
            entry = self._entries.get(key)
        except TypeError:
            return None
        if entry is None:
            entry = self._entries[key] = _MatrixEntry(
                ConstructionStream(compiled, seed=int(seed_base), salt=salt)
            )
        self._entries.move_to_end(key)
        return entry

    def _codes(
        self,
        entry: Optional[_MatrixEntry],
        compiled: CompiledConstruction,
        trials: int,
        seed_base: int,
        salt: object,
    ) -> np.ndarray:
        """The first ``trials`` rows of the entry's matrix, sampling the
        missing suffix (chunk-invariant, so prefixes and extensions are both
        bit-identical to a one-shot matrix); without an entry, the one-shot
        matrix itself, not retained."""
        if entry is None:
            return construction_matrix(compiled, trials, seed=seed_base, salt=salt)
        have = entry.trials
        if trials > have:
            fresh = entry.stream.sample(trials - have)
            entry.codes = fresh if entry.codes is None else np.concatenate([entry.codes, fresh])
            self._miss()
            self._retain(fresh.nbytes)
        else:
            self._hit()
        assert entry.codes is not None
        return entry.codes[:trials]

    def _retain(self, nbytes: int) -> None:
        """Add ``nbytes`` to the running total, then drop least-recently-used
        entries until the retained bytes fit."""
        self.retained_bytes += int(nbytes)
        while len(self._entries) > 1 and self.retained_bytes > WORKING_SET_BYTES:
            _key, evicted = self._entries.popitem(last=False)
            self.retained_bytes -= evicted.nbytes

    # ------------------------------------------------------------------ #
    def codes_for(
        self,
        compiled: CompiledConstruction,
        trials: int,
        seed_base: int,
        salt: object,
    ) -> np.ndarray:
        """The ``trials × nodes`` code matrix, as a read-only array.

        Bit-identical to ``construction_matrix(compiled, trials,
        seed=seed_base, salt=salt)`` — ``seed_base`` is the stream's master
        seed, exactly what every batched estimator passes.  A retained
        matrix is served as a view; a request too large to retain, or with
        an unhashable salt, is that one-shot matrix."""
        entry = self._entry(compiled, trials, seed_base, salt)
        codes = self._codes(entry, compiled, trials, seed_base, salt)
        codes.flags.writeable = False
        return codes

    def _count_key(
        self, language: "DistributedLanguage", compiled: CompiledConstruction
    ) -> Optional[Hashable]:
        """The sharing key of a base language's bad counts, or ``None`` for
        languages without a safe structural fingerprint (those still share
        the matrix; only the counts stay per-request)."""
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
        """Per-trial bad-ball counts of ``language``'s base over the matrix
        of :meth:`codes_for`, or ``None`` when the language has no lowered
        membership.

        Equal to ``compile_membership(language, compiled).bad_counts(codes)``
        on the matching one-shot matrix: the counter is a deterministic
        function of (base, network, codes), all of which the memo key pins."""
        return self._bad_counts(
            compiled,
            language,
            trials,
            seed_base,
            salt,
            lambda: compile_membership(language, compiled),
        )

    def _bad_counts(
        self,
        compiled: CompiledConstruction,
        language: "DistributedLanguage",
        trials: int,
        seed_base: int,
        salt: object,
        membership: Callable[[], Optional[MembershipProgram]],
    ) -> Optional[np.ndarray]:
        """:meth:`bad_counts_for`, building the membership program with
        ``membership()`` only when there are rows to count."""
        entry = self._entry(compiled, trials, seed_base, salt)
        key = None if entry is None else self._count_key(language, compiled)
        vector = None if key is None else entry.counts.get(key)
        have = 0 if vector is None else len(vector)
        if vector is not None and trials <= have:
            # A hit needs no membership program: the stored vector was
            # counted by one for this very (base, network, codes).  The
            # matrix is still served, and tallied, as on a miss.
            self._codes(entry, compiled, trials, seed_base, salt)
            self._hit()
            return vector[:trials]
        program = membership()
        if program is None:
            return None
        codes = self._codes(entry, compiled, trials, seed_base, salt)
        if key is None:
            return program.bad_counts(codes)
        fresh = program.bad_counts(codes[have:trials])
        vector = entry.counts[key] = fresh if vector is None else np.concatenate([vector, fresh])
        self._miss()
        self._retain(fresh.nbytes)
        return vector[:trials]

    def member_vector_for(
        self,
        compiled: CompiledConstruction,
        language: "DistributedLanguage",
        trials: int,
        seed_base: int,
        salt: object,
    ) -> np.ndarray:
        """Per-trial membership over the matrix of :meth:`codes_for`.
        Languages the engine cannot lower run the decoded per-row fallback
        on it — bit-identical either way (membership is a deterministic
        function of the outputs).  The membership program is built at most
        once per call."""
        membership = compile_membership(language, compiled)
        if membership is None:
            from repro.core.languages import Configuration

            codes = self.codes_for(compiled, trials, seed_base, salt)
            return np.array(
                [
                    language.contains(Configuration(compiled.network, compiled.decode_row(row)))
                    for row in codes
                ],
                dtype=bool,
            )
        counts = self._bad_counts(compiled, language, trials, seed_base, salt, lambda: membership)
        assert counts is not None  # lowering succeeded above
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
