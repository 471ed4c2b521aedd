"""Vectorized construction engine: batched constructor → membership → decider.

The decision engine (:mod:`repro.engine.compiler` / ``executor``) batches the
*decider's* coins, but the derandomization estimators — success probability,
far acceptance, the Claim 3/Theorem 1 amplification runs — draw fresh
**constructor** coins every trial too, and the reference loops rebuild a
:class:`~repro.core.languages.Configuration` per trial through the pure-Python
LOCAL simulator and call ``language.contains`` per trial.  This module factors
that per-trial Python out:

* **Output programs** — a constructor joins the engine by exposing
  ``output_program(ball) -> OutputExpr`` (on the constructor or on its ball
  algorithm): a description of the node's output as a *single* tape draw over
  a finite value alphabet (:func:`const_output`, :func:`uniform_int`,
  :func:`uniform_choice`, :func:`bernoulli_output`).  The contract is that
  interpreting the program against a fresh tape
  (:func:`evaluate_output_expr`) is observationally identical to
  ``algorithm.compute(ball, tape)`` — same output, same draws consumed.
* :func:`compile_construction` walks the network **once** (once per
  memo), extracts each node's ball, lowers each distinct program,
  interns the output alphabet, and freezes the per-node programs into NumPy
  form; :func:`construction_matrix` then produces the ``trials × nodes``
  matrix of output codes in one pass, computing the reference streams
  ``TapeFactory(seed, salt, trial=t)`` as counter-based uniform blocks (see
  below).
* :func:`compile_membership` lowers language membership to array form over
  the code matrix: radius-0 LCL predicates become per-``(node, value)``
  bad-ball tables, proper coloring runs the array check ``LCLLanguage``
  membership reads too, and the f-resilient / ε-slack relaxations threshold
  the batched bad-ball counts.  Languages beyond these shapes return ``None``
  and the callers fall back to per-trial ``language.contains`` on decoded
  rows (still batched on the construction side).
* :func:`compile_fused_decision` fuses a radius-0, single-coin-per-node
  decider on top of the construction: the decider's vote threshold is
  tabulated per ``(node, output value)`` once, so a whole amplification run
  (construct → membership → decide) needs no per-trial Python at all.  A
  decider that does not fuse runs the whole estimate on the reference loop
  (counted as ``engine.fallback.declined``, see :mod:`repro.engine.adapters`).
* :func:`success_stream` and :func:`construct_decide_stream` are the engine
  forms of the constructor estimators' streams (:func:`batched_bad_counts`
  serves E2's bad-fraction probe): ``draw(count)`` runs the next ``count``
  trials.  Each takes its compile, code windows, bad counts and membership
  from the installed :class:`~repro.engine.fusion.FusionContext`, or from a
  fresh one outside any scope; a draw reads its trial window
  ``[start, start+count)`` as the suffix of the memo's
  ``start+count``-trial matrix, and a fixed run is the window at
  ``start = 0``.

Exactness contract (shared with the reference loops)
----------------------------------------------------
Trial ``t`` of an estimate at ``(seed, salt)`` draws node ``v``'s coins from
the tape with key ``(seed, salt, t, identity(v))`` — the reference loops
build ``TapeFactory(seed, salt, trial=t)`` — and draw ``k`` of that tape is
the counter-based ``U(key, k)`` of :mod:`repro.local.randomness`.  Every
output program consumes draw 0 only, so the engine computes the
``trials × coin-nodes`` block of ``U(key, 0)`` values with
:func:`~repro.local.randomness.counter_uniforms` and maps it to codes with
the tape methods' own arithmetic (``randint`` is ``lo + ⌊u·n⌋``,
``bernoulli`` is ``u < q``).  The result is bit-identical to the reference
loops by construction, for any chunking and any resumption offset, and
distinct seeds, salts and trials give independent streams.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Hashable,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.engine.compiler import (
    ACCEPT,
    _node_expression,
    _structural_key,
    is_compilable,
    lower_program,
)
from repro.engine.executor import EXACT_BLOCK_BYTES, WORKING_SET_BYTES
from repro.errors import ReproError
from repro.local.ball import collect_ball
from repro.local.randomness import counter_uniforms, derive_seed, node_keys
from repro.obs import get_recorder

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.decision import Decider
    from repro.core.languages import DistributedLanguage
    from repro.local.network import Network

__all__ = [
    "MAX_OUTPUT_VALUES",
    "OutputExpr",
    "ConstOutput",
    "UniformInt",
    "UniformChoice",
    "BernoulliOutput",
    "const_output",
    "uniform_int",
    "uniform_choice",
    "bernoulli_output",
    "evaluate_output_expr",
    "ConstructionCompilationError",
    "is_construction_compilable",
    "resolve_construction_engine",
    "OutputProgram",
    "CompiledConstruction",
    "compile_construction",
    "construction_matrix",
    "MembershipProgram",
    "compile_membership",
    "FusedDecision",
    "compile_fused_decision",
    "success_stream",
    "batched_bad_counts",
    "construct_decide_stream",
    "ConstructionStream",
]

#: Hard cap on the size of a compiled construction's output alphabet (guards
#: against e.g. ``uniform_int`` over a huge range exploding the value tables).
MAX_OUTPUT_VALUES = 4096


# --------------------------------------------------------------------------- #
# The output-program IR
# --------------------------------------------------------------------------- #
class OutputExpr:
    """Base class of output-program expressions (immutable, structural
    equality).  Every non-constant expression consumes exactly **one** tape
    draw — the constructors in scope (random coloring, the toy faulty
    constructors of E6/E9) are all single-draw maps from balls to values;
    richer constructors must stay on the reference path."""

    __slots__ = ()


@dataclass(frozen=True)
class ConstOutput(OutputExpr):
    """An output that ignores the tape entirely."""

    value: object


@dataclass(frozen=True)
class UniformInt(OutputExpr):
    """``tape.randint(low, high)`` — one bounded-integer draw, output the
    drawn integer itself."""

    low: int
    high: int


@dataclass(frozen=True)
class UniformChoice(OutputExpr):
    """``tape.choice(values)`` — one ``randint(0, len-1)`` draw indexing a
    fixed value tuple."""

    values: Tuple[object, ...]


@dataclass(frozen=True)
class BernoulliOutput(OutputExpr):
    """``if_true if tape.bernoulli(q) else if_false`` — one uniform draw.

    Unlike the decision IR's :func:`~repro.engine.compiler.coin`, degenerate
    probabilities do **not** fold to constants: ``RandomTape.bernoulli``
    always consumes a draw, so the reference constructor consumes one even
    when ``q`` is 0 or 1, and exactness requires the program to as well.
    """

    q: float
    if_true: object
    if_false: object


def const_output(value: object) -> ConstOutput:
    return ConstOutput(value)


def uniform_int(low: int, high: int) -> UniformInt:
    low, high = int(low), int(high)
    if high < low:
        raise ValueError("empty range for uniform_int")
    return UniformInt(low, high)


def uniform_choice(values: Sequence[object]) -> OutputExpr:
    values = tuple(values)
    if not values:
        raise ValueError("cannot choose from an empty sequence")
    return UniformChoice(values)


def bernoulli_output(q: float, if_true: object, if_false: object) -> BernoulliOutput:
    q = float(q)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"bernoulli probability must lie in [0, 1]; got {q}")
    return BernoulliOutput(q, if_true, if_false)


def evaluate_output_expr(expr: OutputExpr, tape) -> object:
    """Interpret an output program against a node's private tape.

    This is the *reference semantics* of the IR: the compiled sampling below
    is defined to agree with this interpreter bit for bit (``tape`` is any
    object with the :class:`~repro.local.randomness.RandomTape` draw
    methods).  Constant programs never touch the tape.
    """
    if isinstance(expr, ConstOutput):
        return expr.value
    if tape is None:
        raise ValueError("an output program with draws needs a random tape")
    if isinstance(expr, UniformInt):
        return tape.randint(expr.low, expr.high)
    if isinstance(expr, UniformChoice):
        return tape.choice(expr.values)
    if isinstance(expr, BernoulliOutput):
        return expr.if_true if tape.bernoulli(expr.q) else expr.if_false
    raise TypeError(f"not an output expression: {expr!r}")


class ConstructionCompilationError(ReproError, ValueError):
    """A constructor's output program exceeds what the construction engine
    can express (non-hashable values, oversized alphabets, ...).

    Part of the wire taxonomy so the service can report a malformed
    constructor as a client error instead of a generic 500.
    """

    code = "construction_compilation"
    http_status = 422


# --------------------------------------------------------------------------- #
# Compilation
# --------------------------------------------------------------------------- #
def _output_program_fn(constructor: object) -> Optional[Callable]:
    """The constructor's ``output_program`` contract, looked up on the
    constructor itself or on its ball algorithm."""
    fn = getattr(constructor, "output_program", None)
    if callable(fn):
        return fn
    fn = getattr(getattr(constructor, "algorithm", None), "output_program", None)
    if callable(fn):
        return fn
    return None


def is_construction_compilable(constructor: object) -> bool:
    """Whether the constructor (or its ball algorithm) exposes
    ``output_program(ball) -> OutputExpr``."""
    return _output_program_fn(constructor) is not None


def resolve_construction_engine(engine: str, constructor: object) -> str:
    """The constructor-side counterpart of
    :func:`repro.engine.adapters.resolve_engine`: maps an ``engine=`` value
    to ``"engine"`` or ``"off"``.  ``auto`` selects the engine when the
    constructor is compilable and falls back to the reference path
    otherwise, counting ``engine.fallback.no_program``.  Deterministic
    constructors have no coins to batch, so any (valid) engine value
    resolves to the reference path."""
    from repro.engine.adapters import _resolve

    return _resolve(
        engine,
        getattr(constructor, "randomized", False),
        is_construction_compilable(constructor),
    )


@dataclass(frozen=True)
class OutputProgram:
    """One distinct per-node output program, lowered to sampling form.

    ``codes`` maps the draw outcome to the output's code in the compiled
    alphabet: ``const`` programs hold one code, ``randint`` programs one code
    per integer of ``[low, high]``, ``bernoulli`` programs the pair
    ``(code_false, code_true)``.
    """

    kind: str  # "const" | "randint" | "bernoulli"
    codes: Tuple[int, ...]
    low: int = 0
    high: int = 0
    q: float = 0.0

    @property
    def draws(self) -> int:
        return 0 if self.kind == "const" else 1

    @cached_property
    def _code_array(self) -> np.ndarray:
        return np.asarray(self.codes, dtype=np.int32)

    def codes_of(self, uniforms: np.ndarray) -> np.ndarray:
        """The output codes when each node's tape draw 0 is ``uniforms`` —
        the tape methods' own arithmetic (``randint`` is ``lo + ⌊u·n⌋``,
        ``bernoulli`` is ``u < q``), so this equals the interpreted
        expression bit for bit."""
        if self.kind == "randint":
            return self._code_array[(uniforms * len(self.codes)).astype(np.intp)]
        if self.kind == "bernoulli":
            return self._code_array[(uniforms < self.q).astype(np.intp)]
        raise ValueError(f"constant programs are not sampled (kind={self.kind!r})")

    @property
    def probabilities(self) -> Dict[int, float]:
        """Exact output distribution over codes (for distribution tests)."""
        if self.kind == "const":
            return {self.codes[0]: 1.0}
        if self.kind == "randint":
            share = 1.0 / len(self.codes)
            out: Dict[int, float] = {}
            for code in self.codes:
                out[code] = out.get(code, 0.0) + share
            return out
        out = {self.codes[0]: 1.0 - self.q}
        out[self.codes[1]] = out.get(self.codes[1], 0.0) + self.q
        return out


@dataclass(frozen=True)
class CompiledConstruction:
    """A ``(Constructor, Network)`` pair flattened to NumPy form.

    Outputs are represented as small-integer **codes** into the interned
    ``values`` alphabet; ``decode_row`` recovers the reference
    ``node -> value`` mapping of one trial.
    """

    nodes: Tuple[Hashable, ...]
    identities: np.ndarray
    values: Tuple[object, ...]
    programs: Tuple[OutputProgram, ...]
    program_ids: np.ndarray
    network: "Network"
    constructor_name: str
    radius: int

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @cached_property
    def random_index(self) -> np.ndarray:
        """Positions whose output genuinely consumes a draw."""
        return np.flatnonzero(
            np.array(
                [self.programs[pid].draws > 0 for pid in self.program_ids], dtype=bool
            )
        )

    @cached_property
    def constant_codes(self) -> np.ndarray:
        """Per-node code of the draw-free outputs (0 where the node draws;
        those columns are always overwritten)."""
        codes = np.zeros(self.n_nodes, dtype=np.int32)
        for position, pid in enumerate(self.program_ids):
            program = self.programs[pid]
            if program.draws == 0:
                codes[position] = program.codes[0]
        return codes

    def program_of(self, position: int) -> OutputProgram:
        return self.programs[int(self.program_ids[position])]

    @cached_property
    def content_key(self) -> Hashable:
        """What the code matrix and its decoding depend on, and nothing
        else: the fusion memo's matrix key."""
        return (
            self.constructor_name,
            self.values,
            self.programs,
            self.program_ids.tobytes(),
            self.identities.tobytes(),
        )

    def decode_row(self, row: np.ndarray) -> Dict[Hashable, object]:
        """One trial's code row as the reference output mapping."""
        return {
            node: self.values[int(row[position])]
            for position, node in enumerate(self.nodes)
        }


def compile_construction(constructor: object, network: "Network") -> CompiledConstruction:
    """Compile a constructor against a fixed network.

    Extracts every ball once, asks the constructor for each node's output
    program, interns the output alphabet, and dedups structurally identical
    programs.  Raises ``TypeError`` for constructors without the
    ``output_program`` contract and :class:`ConstructionCompilationError`
    for programs beyond the engine's shape (non-hashable values, alphabets
    larger than :data:`MAX_OUTPUT_VALUES`).  The installed
    :class:`~repro.engine.fusion.FusionContext` (one per ``Session``
    request or sweep group) serves a pair it has compiled before.
    """
    return _fusion().compiled_construction(constructor, network, _compile_checked)


def _compile_checked(constructor: object, network: "Network") -> CompiledConstruction:
    """One compile under its span, verified under ``$REPRO_CHECK_IR``."""
    recorder = get_recorder()
    with recorder.span(
        "engine.compile_construction",
        constructor=str(getattr(constructor, "name", constructor)),
    ) as compile_span:
        compiled = _compile_construction(constructor, network, compile_span)
    if os.environ.get("REPRO_CHECK_IR", "") not in ("", "0"):
        # Lazy import: the verifier imports this module, and the hook is
        # opt-in (CI / tests), so production compiles pay nothing.
        from repro.check.ir import verify_compiled_construction

        verify_compiled_construction(compiled)
    return compiled


def _compile_construction(
    constructor: object, network: "Network", compile_span
) -> CompiledConstruction:
    program_fn = _output_program_fn(constructor)
    if program_fn is None:
        raise TypeError(
            f"constructor {getattr(constructor, 'name', constructor)!r} exposes no "
            "output_program(ball) and cannot be compiled; use the reference path"
        )
    rounds = constructor.rounds() if callable(getattr(constructor, "rounds", None)) else 0
    radius = int(rounds or 0)
    nodes: List[Hashable] = network.nodes()

    code_of: Dict[object, int] = {}
    values: List[object] = []

    def intern(value: object) -> int:
        try:
            code = code_of.get(value)
        except TypeError as error:
            raise ConstructionCompilationError(
                f"constructor output {value!r} is not hashable and cannot be "
                "interned into the engine's value alphabet"
            ) from error
        if code is None:
            if len(values) >= MAX_OUTPUT_VALUES:
                raise ConstructionCompilationError(
                    f"constructor output alphabet exceeds {MAX_OUTPUT_VALUES} "
                    "distinct values, which the construction engine cannot express"
                )
            code = code_of[value] = len(values)
            values.append(value)
        return code

    def lower(expr: OutputExpr) -> Tuple:
        if isinstance(expr, ConstOutput):
            return ("const", (intern(expr.value),), 0, 0, 0.0)
        if isinstance(expr, UniformInt):
            if expr.high - expr.low + 1 > MAX_OUTPUT_VALUES:
                raise ConstructionCompilationError(
                    f"uniform_int range [{expr.low}, {expr.high}] exceeds "
                    f"{MAX_OUTPUT_VALUES} values"
                )
            codes = tuple(intern(v) for v in range(expr.low, expr.high + 1))
            return ("randint", codes, expr.low, expr.high, 0.0)
        if isinstance(expr, UniformChoice):
            codes = tuple(intern(v) for v in expr.values)
            return ("randint", codes, 0, len(expr.values) - 1, 0.0)
        if isinstance(expr, BernoulliOutput):
            codes = (intern(expr.if_false), intern(expr.if_true))
            return ("bernoulli", codes, 0, 0, float(expr.q))
        raise TypeError(
            f"output_program of {getattr(constructor, 'name', constructor)!r} "
            f"returned {expr!r}; expected an OutputExpr "
            "(const_output/uniform_int/uniform_choice/bernoulli_output)"
        )

    lowered: Dict[OutputExpr, Tuple] = {}
    interned: Dict[Tuple, int] = {}
    programs: List[OutputProgram] = []
    program_ids = np.empty(len(nodes), dtype=np.int32)
    for position, node in enumerate(nodes):
        expr = program_fn(collect_ball(network, node, radius))
        # Equal expressions lower to equal keys, so each distinct one lowers
        # once; the alphabet still interns values in first-node order.
        try:
            key = lowered[expr]
        except KeyError:
            key = lowered[expr] = lower(expr)
        except TypeError:  # an unhashable expression lowers per node
            key = lower(expr)
        if key not in interned:
            kind, codes, low, high, q = key
            interned[key] = len(programs)
            programs.append(OutputProgram(kind=kind, codes=codes, low=low, high=high, q=q))
        program_ids[position] = interned[key]

    compile_span.annotate(nodes=len(nodes), programs=len(programs), alphabet=len(values))
    return CompiledConstruction(
        nodes=tuple(nodes),
        identities=np.array([network.identity(node) for node in nodes], dtype=np.int64),
        values=tuple(values),
        programs=tuple(programs),
        program_ids=program_ids,
        network=network,
        constructor_name=str(getattr(constructor, "name", "constructor")),
        radius=radius,
    )


# --------------------------------------------------------------------------- #
# Execution: the trials × nodes output-code matrix
# --------------------------------------------------------------------------- #
def construction_matrix(
    compiled: CompiledConstruction,
    trials: int,
    seed: int = 0,
    salt: Optional[object] = None,
) -> np.ndarray:
    """The ``trials × nodes`` matrix of output codes.

    Row ``t`` is bit-for-bit the outputs of the reference
    ``constructor.configuration(network, TapeFactory(seed, salt, trial=t))``
    (see the module docstring), for any block size.

    This is the one-shot form of :class:`ConstructionStream` (a single
    ``sample(trials)`` on a fresh stream), so the fixed-trial and adaptive
    paths cannot drift apart: there is exactly one sampling implementation.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    return ConstructionStream(compiled, seed=seed, salt=salt).sample(trials)


# --------------------------------------------------------------------------- #
# Membership lowering
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MembershipProgram:
    """Batched membership for one language over a compiled construction.

    ``bad_counter(codes)`` returns the per-trial bad-ball count of the *base*
    LCL language; membership is ``count <= budget`` (``budget`` is 0 for the
    plain language and the tolerated violations for the f-resilient /
    ε-slack relaxations).
    """

    bad_counter: Callable[[np.ndarray], np.ndarray]
    budget: int
    language_name: str

    def bad_counts(self, codes: np.ndarray) -> np.ndarray:
        return self.bad_counter(codes)

    def member_vector(self, codes: np.ndarray) -> np.ndarray:
        return self.bad_counter(codes) <= self.budget


def _radius_zero_table_counter(
    base, compiled: CompiledConstruction
) -> Callable[[np.ndarray], np.ndarray]:
    """Per-(node, value) bad-ball table for radius-0 LCL languages: the ball
    of a node contains only the node itself, so ``is_bad_ball`` is a function
    of (identity, input, output value), tabulated once per reachable value."""
    n = compiled.n_nodes
    table = np.zeros((n, len(compiled.values)), dtype=bool)
    for position, node in enumerate(compiled.nodes):
        program = compiled.program_of(position)
        for code in set(program.codes):
            ball = collect_ball(
                compiled.network, node, 0, outputs={node: compiled.values[code]}
            )
            table[position, code] = bool(base.is_bad_ball(ball))
    rows = np.arange(n)

    def counter(codes: np.ndarray) -> np.ndarray:
        return table[rows[None, :], codes].sum(axis=1)

    return counter


def _proper_coloring_counter(
    base, compiled: CompiledConstruction
) -> Callable[[np.ndarray], np.ndarray]:
    """Per-row counts of :meth:`repro.core.lcl.ProperColoring.bad_codes`,
    the language's own array check, in blocks."""
    neighbors = compiled.network.neighbor_positions
    # 8 bytes/element bounds the dominant (block, n, max_degree)
    # gathered-codes temporary, keeping it under WORKING_SET_BYTES.
    block = max(1, WORKING_SET_BYTES // max(1, 8 * compiled.n_nodes * neighbors.shape[1]))

    def counter(codes: np.ndarray) -> np.ndarray:
        counts = np.empty(codes.shape[0], dtype=np.int64)
        for start in range(0, codes.shape[0], block):
            flags = base.bad_codes(codes[start : start + block], compiled.values, neighbors)
            counts[start : start + len(flags)] = flags.sum(axis=1)
        return counts

    return counter


def compile_membership(
    language: "DistributedLanguage", compiled: CompiledConstruction
) -> Optional[MembershipProgram]:
    """Lower a language to batched membership over the code matrix.

    Returns ``None`` for languages the engine cannot express — callers fall
    back to per-trial ``language.contains`` on decoded rows.  Membership is
    a deterministic function of the outputs, so the lowered evaluation is
    exact (not merely distributional) whenever it exists.
    """
    from repro.core.lcl import LCLLanguage, ProperColoring
    from repro.core.relaxations import EpsSlackLanguage, FResilientLanguage

    base, budget = language, 0
    if isinstance(language, FResilientLanguage):
        base, budget = language.base, language.f
    elif isinstance(language, EpsSlackLanguage):
        base, budget = language.base, language.allowed_bad(compiled.n_nodes)

    counter: Optional[Callable[[np.ndarray], np.ndarray]] = None
    if isinstance(base, ProperColoring):
        counter = _proper_coloring_counter(base, compiled)
    elif isinstance(base, LCLLanguage) and int(base.radius) == 0:
        counter = _radius_zero_table_counter(base, compiled)
    if counter is None:
        return None
    return MembershipProgram(
        bad_counter=counter, budget=int(budget), language_name=str(language.name)
    )


# --------------------------------------------------------------------------- #
# Fused constructor → decider evaluation
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class FusedDecision:
    """A radius-0 decider tabulated per ``(node, output value)``.

    For each node and each value its program can output, the decider's vote
    program is lowered once; fusion requires every such program to consume
    at most one draw (a plain coin or a constant), which covers the
    single-Bernoulli deciders the derandomization experiments use.  The per
    -trial vote is then ``on_true`` if the node's tape draw falls below the
    tabulated threshold and ``on_false`` otherwise (constants hold the vote
    in both, so the draw cannot change them).
    """

    thresholds: np.ndarray  # (nodes, values) float64
    on_true: np.ndarray  # (nodes, values) bool
    on_false: np.ndarray  # (nodes, values) bool
    decider_name: str
    compiled: CompiledConstruction

    def vote_row_exact(
        self, code_row: np.ndarray, master_seed: int, salt: object, trial: int = 0
    ) -> np.ndarray:
        """Votes under the reference decide tape streams.

        ``code_row`` is one trial's code row, or a ``(count, nodes)`` block
        of rows for trials ``trial .. trial+count-1``; the votes have the
        same shape.  Row ``i`` is bit-identical to ``decider.decide(
        configuration, TapeFactory(master_seed, salt, trial=trial+i))`` for
        the decoded configuration: each node's vote compares draw 0 of its
        counter-based tape with the tabulated threshold.
        """
        codes = np.asarray(code_row)
        block = codes if codes.ndim == 2 else codes[None, :]
        count, n = block.shape
        base = derive_seed(master_seed, salt)
        rows = np.arange(n)
        votes = np.empty((count, n), dtype=bool)
        chunk = max(1, EXACT_BLOCK_BYTES // (8 * max(n, 1)))
        for lo in range(0, count, chunk):
            hi = min(count, lo + chunk)
            keys = node_keys(base, np.arange(trial + lo, trial + hi), self.compiled.identities)
            values = block[lo:hi]
            takes_true = counter_uniforms(keys, 1)[..., 0] < self.thresholds[rows, values]
            votes[lo:hi] = np.where(
                takes_true, self.on_true[rows, values], self.on_false[rows, values]
            )
        return votes if codes.ndim == 2 else votes[0]

    def fast_vote_stream(
        self, seed: int, salt: object
    ) -> Callable[[np.ndarray], np.ndarray]:
        """The resumable form of :meth:`vote_row_exact`.

        The returned callable maps the ``(count, nodes)`` code block of the
        next ``count`` trials to their votes, so successive calls over any
        chunking of a code matrix equal one :meth:`vote_row_exact` call on
        the whole matrix.  No estimator calls it (the construct→decide
        stream passes its window's first trial to :meth:`vote_row_exact`);
        it stays only because the benchmark's instrumentation wraps this
        method by name.
        """
        offset = 0

        def sample(codes: np.ndarray) -> np.ndarray:
            nonlocal offset
            votes = self.vote_row_exact(codes, seed, salt, trial=offset)
            offset += len(codes)
            return votes

        return sample


def compile_fused_decision(
    decider: "Decider", compiled: CompiledConstruction
) -> Optional[FusedDecision]:
    """Tabulate a decider's vote programs over the construction alphabet.

    Returns ``None`` when fusion is unavailable — the decider exposes no
    compilable vote, checks a radius beyond 0 (its ball would then contain
    neighbours' sampled outputs, which the per-value table cannot express),
    or some per-value program needs more than one draw.  Callers fall back
    to the reference loop, which handles all of those.
    """
    if not is_compilable(decider) or int(getattr(decider, "radius", 0)) != 0:
        return None
    n = compiled.n_nodes
    n_values = len(compiled.values)
    thresholds = np.zeros((n, n_values), dtype=np.float64)
    on_true = np.zeros((n, n_values), dtype=bool)
    on_false = np.zeros((n, n_values), dtype=bool)
    # Each distinct program lowers once, keyed as in ``compile_decision``.
    seen: Dict[int, int] = {}  # by id(): ``keepalive`` holds the expressions
    tokens: Dict[Tuple, int] = {}
    keepalive, lowered_by_key = [], {}
    for position, node in enumerate(compiled.nodes):
        program = compiled.program_of(position)
        for code in set(program.codes):
            ball = collect_ball(
                compiled.network, node, 0, outputs={node: compiled.values[code]}
            )
            expr = _node_expression(decider, ball)
            keepalive.append(expr)
            key = _structural_key(expr, seen, tokens)
            if key not in lowered_by_key:
                lowered_by_key[key] = lower_program(expr)
            lowered = lowered_by_key[key]
            if lowered.max_draws > 1:
                return None
            if lowered.root < 0:
                vote = lowered.root == ACCEPT
                on_true[position, code] = on_false[position, code] = vote
                thresholds[position, code] = 1.0 if vote else 0.0
            else:
                thresholds[position, code] = float(lowered.thresholds[lowered.root])
                on_true[position, code] = int(lowered.on_true[lowered.root]) == ACCEPT
                on_false[position, code] = int(lowered.on_false[lowered.root]) == ACCEPT
    return FusedDecision(
        thresholds=thresholds,
        on_true=on_true,
        on_false=on_false,
        decider_name=str(decider.name),
        compiled=compiled,
    )


# --------------------------------------------------------------------------- #
# Batched counterparts of the derandomization estimators
# --------------------------------------------------------------------------- #
def _fusion():
    """The installed :class:`repro.engine.fusion.FusionContext`, or a fresh
    one for an estimator called outside any scope.

    Lazy import: :mod:`repro.engine.fusion` imports this module."""
    from repro.engine.fusion import FusionContext, active_fusion

    return active_fusion() or FusionContext()


def success_stream(
    constructor: object,
    language: "DistributedLanguage",
    network: "Network",
    seed: int,
    salt: object,
) -> Tuple[Callable[[int], int], Optional[bool]]:
    """Engine form of one instance's success stream in
    :func:`repro.core.construction.estimate_success_probability` and
    :func:`repro.core.derandomization.find_hard_instances`.

    Returns ``(draw, constant)``: ``draw(count)`` counts the next ``count``
    trials whose constructed configuration belongs to ``language``,
    computing the ``TapeFactory(seed, salt, trial=t)`` streams bit for bit.
    ``constant`` is the membership of a construction with no random
    outputs, ``None`` otherwise.
    """
    context = _fusion()
    compiled = compile_construction(constructor, network)
    offset = 0

    def draw(count: int) -> int:
        nonlocal offset
        start, offset = offset, offset + count
        members = context.member_vector_for(compiled, language, offset, seed, salt)
        return int(np.count_nonzero(members[start:]))

    constant = None
    if len(compiled.random_index) == 0:
        constant = bool(context.member_vector_for(compiled, language, 1, seed, salt)[0])
    return draw, constant


def batched_bad_counts(
    constructor: object,
    language: "DistributedLanguage",
    network: "Network",
    trials: int,
    seed: int,
    salt: object,
) -> Optional[np.ndarray]:
    """Per-trial bad-ball counts of ``language`` over freshly constructed
    configurations — the engine counterpart of a ``fraction_bad`` probe loop
    (count ``t`` divided by the node count is trial ``t``'s bad fraction).

    Computes the ``TapeFactory(seed, salt, trial=t)`` streams bit for bit.
    Returns ``None`` when the language's membership cannot be lowered
    (callers keep their reference loop)."""
    context = _fusion()
    compiled = compile_construction(constructor, network)
    return context.bad_counts_for(compiled, language, trials, seed, salt)


def construct_decide_stream(
    constructor: object,
    decider: "Decider",
    network: "Network",
    masks: Sequence[np.ndarray],
    language: Optional["DistributedLanguage"],
    seed: int,
    construct_salt: object,
    decide_salt: object,
) -> Optional[Callable[[int], Tuple[List[int], int]]]:
    """Engine form of the construct→decide stream of
    :mod:`repro.core.derandomization` (far acceptance, anchor choice and
    the Claim 3/Theorem 1 amplification runs).

    ``draw(count)`` runs the next ``count`` fused construct→decide trials
    and returns ``(accepted, members)``: per node mask (a boolean vector
    over ``network.nodes()``), how many trials every masked node accepted
    in, and how many constructed configurations belong to ``language``
    (0 without one).  It computes the ``TapeFactory(seed,
    construct_salt/decide_salt, trial=t)`` streams bit for bit; the coins
    do not depend on the mask, so one vote matrix serves every mask.
    Returns ``None`` when decider fusion is unavailable.
    """
    context = _fusion()
    compiled = compile_construction(constructor, network)
    fused = compile_fused_decision(decider, compiled)
    if fused is None:
        return None
    offset = 0

    def draw(count: int) -> Tuple[List[int], int]:
        nonlocal offset
        start, offset = offset, offset + count
        codes = context.codes_for(compiled, offset, seed, construct_salt)[start:]
        votes = fused.vote_row_exact(codes, seed, decide_salt, trial=start)
        accepted = [int(np.count_nonzero(votes[:, mask].all(axis=1))) for mask in masks]
        members = 0
        if language is not None:
            vector = context.member_vector_for(compiled, language, offset, seed, construct_salt)
            members = int(np.count_nonzero(vector[start:]))
        return accepted, members

    return draw


class ConstructionStream:
    """A resumable trial stream over a compiled construction.

    ``sample(count)`` returns the ``(count, nodes)`` code matrix of the
    **next** ``count`` trials; the concatenation of successive samples is
    bit-identical to one :func:`construction_matrix` call with the total
    trial count, because each trial is computed from its own counter-based
    keys.  This is the construction-side counterpart of
    :class:`repro.engine.executor.AcceptStream`.

    ``offset`` is the trial the stream starts at: a stream started at ``o``
    samples trials ``o, o+1, …``, exactly the rows a stream started at 0
    returns after its first ``o``.
    """

    def __init__(
        self,
        compiled: CompiledConstruction,
        seed: int = 0,
        salt: Optional[object] = None,
        offset: int = 0,
    ) -> None:
        self.compiled = compiled
        self._base = derive_seed(seed, compiled.constructor_name if salt is None else salt)
        self._offset = int(offset)

    def sample(self, count: int) -> np.ndarray:
        if count < 1:
            raise ValueError("count must be positive")
        compiled = self.compiled
        start = self._offset
        self._offset += count
        codes = np.broadcast_to(compiled.constant_codes, (count, compiled.n_nodes)).copy()
        random_positions = compiled.random_index
        if len(random_positions) == 0:
            return codes
        recorder = get_recorder()
        with recorder.span(
            "engine.construct",
            trials=count,
            offset=start,
            nodes=compiled.n_nodes,
            random_nodes=len(random_positions),
        ):
            identities = compiled.identities[random_positions]
            program_ids = compiled.program_ids[random_positions]
            groups = [
                (compiled.programs[int(program_id)], np.flatnonzero(program_ids == program_id))
                for program_id in np.unique(program_ids)
            ]
            rows = max(1, EXACT_BLOCK_BYTES // 8 // len(random_positions))
            for lo in range(0, count, rows):
                hi = min(count, lo + rows)
                recorder.counter("engine.chunks")
                keys = node_keys(self._base, np.arange(start + lo, start + hi), identities)
                uniforms = counter_uniforms(keys, 1)[..., 0]
                for program, columns in groups:
                    codes[lo:hi, random_positions[columns]] = program.codes_of(
                        uniforms[:, columns]
                    )
            return codes
