"""Compilation of ``(Configuration, Decider)`` pairs into flat numeric form.

The legacy decision path re-extracts balls and re-runs per-node Python voting
rules once per Monte-Carlo trial, even though the configuration — and hence
every ball classification — is fixed across trials.  The compiler factors
that invariant work out: it walks the configuration **once**, asks the
decider for each node's **vote program** (see below), and stores the result
as plain NumPy arrays:

* one lowered :class:`VoteProgram` per distinct per-node program, plus the
  per-node assignment ``program_ids`` and the per-node acceptance
  probabilities ``probabilities[i] ∈ [0, 1]``,
* the node identities, which seed the per-node random streams in the
  executor.

Vote programs — the Bernoulli-circuit IR
----------------------------------------
A decider joins the engine by describing each node's vote as a small
*Bernoulli circuit* over the node's private tape: a sequence of
``bernoulli(p)`` draws combined with and/or/not and draw-indexed branching.
The IR is the expression layer

* :func:`const` — a vote that ignores the tape,
* :func:`coin` — ``tape.bernoulli(p)``, consuming exactly one draw,
* :func:`all_of` / :func:`any_of` / :func:`neg` — short-circuit ``and`` /
  ``or`` / ``not`` (later operands consume draws only on the paths that
  reach them, exactly like the Python rule they mirror),
* :func:`branch` — draw-indexed branching: evaluate a condition circuit,
  then continue with one of two sub-circuits,
* :func:`majority` — the amplification workhorse: the majority vote of
  ``count`` i.i.d. coins, consuming **all** ``count`` draws on every path
  (mirroring an eager Python tally loop).

The contract is that interpreting the program against a fresh tape
(:func:`evaluate_vote_expr`) is *observationally identical* to the decider's
``vote(ball, tape)``: same result, same number of tape draws consumed along
the way.  :func:`lower_program` compiles the expression into a flat decision
DAG whose internal nodes each consume one draw — the draw consumed by a
program node is exactly its depth, which is what lets the executor replay
the reference tape streams bit for bit.  Programs are capped at
:data:`MAX_PROGRAM_DRAWS` sequential draws (and :data:`MAX_PROGRAM_NODES`
lowered nodes); richer deciders must stay on the reference path.

Deciders expose the IR through ``vote_program(ball) -> VoteExpr``, the
compiler's one entry contract (see :func:`is_compilable`); a single-coin
decider returns :func:`coin` or :func:`const`.  A decider may also offer
``vote_programs(configuration)``, every node's expression in node order,
which :func:`compile_decision` then takes instead of extracting balls.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.errors import ReproError
from repro.obs import get_recorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.decision import Decider
    from repro.core.languages import Configuration

__all__ = [
    "ACCEPT",
    "REJECT",
    "MAX_PROGRAM_DRAWS",
    "MAX_PROGRAM_NODES",
    "VoteExpr",
    "Const",
    "Coin",
    "Not",
    "AllOf",
    "AnyOf",
    "Branch",
    "const",
    "coin",
    "neg",
    "all_of",
    "any_of",
    "branch",
    "majority",
    "evaluate_vote_expr",
    "ProgramCompilationError",
    "VoteProgram",
    "lower_program",
    "CompiledDecision",
    "compile_decision",
    "is_compilable",
]


# --------------------------------------------------------------------------- #
# The expression layer of the IR
# --------------------------------------------------------------------------- #
class VoteExpr:
    """Base class of vote-program expressions (immutable, structural
    equality; see the module docstring for the combinators)."""

    __slots__ = ()


@dataclass(frozen=True)
class Const(VoteExpr):
    """A vote that ignores the tape entirely."""

    value: bool


@dataclass(frozen=True)
class Coin(VoteExpr):
    """``tape.bernoulli(p)`` — consumes exactly one uniform draw."""

    p: float


@dataclass(frozen=True)
class Not(VoteExpr):
    """Logical negation (consumes whatever the operand consumes)."""

    operand: VoteExpr


@dataclass(frozen=True)
class AllOf(VoteExpr):
    """Short-circuit conjunction: operands evaluated left to right, and a
    ``False`` operand stops the evaluation (later draws are not consumed)."""

    operands: Tuple[VoteExpr, ...]


@dataclass(frozen=True)
class AnyOf(VoteExpr):
    """Short-circuit disjunction (dual of :class:`AllOf`)."""

    operands: Tuple[VoteExpr, ...]


@dataclass(frozen=True)
class Branch(VoteExpr):
    """Draw-indexed branching: evaluate ``condition`` (consuming its draws),
    then continue with ``on_true`` or ``on_false``."""

    condition: VoteExpr
    on_true: VoteExpr
    on_false: VoteExpr


def const(value: bool) -> Const:
    return Const(bool(value))


def coin(p: float) -> VoteExpr:
    """A single Bernoulli draw; degenerate probabilities fold to constants
    (matching voting rules that return early without touching the tape)."""
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"coin probability must lie in [0, 1]; got {p}")
    if p <= 0.0:
        return Const(False)
    if p >= 1.0:
        return Const(True)
    return Coin(p)


def neg(operand: VoteExpr) -> VoteExpr:
    return Not(operand)


def all_of(*operands: VoteExpr) -> VoteExpr:
    if len(operands) == 1:
        return operands[0]
    return AllOf(tuple(operands))


def any_of(*operands: VoteExpr) -> VoteExpr:
    if len(operands) == 1:
        return operands[0]
    return AnyOf(tuple(operands))


def branch(condition: VoteExpr, on_true: VoteExpr, on_false: VoteExpr) -> VoteExpr:
    return Branch(condition, on_true, on_false)


def majority(count: int, p: float, threshold: Optional[int] = None) -> VoteExpr:
    """The majority vote of ``count`` i.i.d. ``bernoulli(p)`` coins.

    Mirrors the eager Python tally loop ``sum(tape.bernoulli(p) for _ in
    range(count)) >= threshold``: **all** ``count`` draws are consumed on
    every path, even once the outcome is already decided — which is what
    keeps the engine bit-identical to that reference rule.  The default
    threshold is a strict majority, ``count // 2 + 1``.
    """
    count = int(count)
    if count < 1:
        raise ValueError("a majority vote needs at least one coin")
    if threshold is None:
        threshold = count // 2 + 1
    threshold = int(threshold)
    cache: Dict[Tuple[int, int], VoteExpr] = {}

    def build(remaining: int, successes: int) -> VoteExpr:
        key = (remaining, successes)
        if key not in cache:
            if remaining == 0:
                cache[key] = Const(successes >= threshold)
            else:
                cache[key] = Branch(
                    coin(p), build(remaining - 1, successes + 1), build(remaining - 1, successes)
                )
        return cache[key]

    return build(count, 0)


def evaluate_vote_expr(expr: VoteExpr, tape) -> bool:
    """Interpret a vote program against a node's private tape.

    This is the *reference semantics* of the IR: the engine's compiled
    evaluation is defined to agree with this interpreter bit for bit
    (``tape`` is any object exposing ``bernoulli(p)``, e.g.
    :class:`repro.local.randomness.RandomTape`).  Constant programs never
    touch the tape, so they also work with ``tape=None``.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Coin):
        if tape is None:
            raise ValueError("a vote program with coins needs a random tape")
        return bool(tape.bernoulli(expr.p))
    if isinstance(expr, Not):
        return not evaluate_vote_expr(expr.operand, tape)
    if isinstance(expr, AllOf):
        return all(evaluate_vote_expr(operand, tape) for operand in expr.operands)
    if isinstance(expr, AnyOf):
        return any(evaluate_vote_expr(operand, tape) for operand in expr.operands)
    if isinstance(expr, Branch):
        if evaluate_vote_expr(expr.condition, tape):
            return evaluate_vote_expr(expr.on_true, tape)
        return evaluate_vote_expr(expr.on_false, tape)
    raise TypeError(f"not a vote expression: {expr!r}")


# --------------------------------------------------------------------------- #
# Lowering: expression -> flat decision program
# --------------------------------------------------------------------------- #
#: Terminal states of a lowered program.
ACCEPT = -1
REJECT = -2

#: Hard cap on sequential draws along any path of one program.  A decider
#: whose per-node rule consumes more randomness than this cannot be expressed
#: in the IR and must run on the reference path (``engine="off"``).
MAX_PROGRAM_DRAWS = 64

#: Hard cap on lowered program nodes (guards against pathological circuits).
MAX_PROGRAM_NODES = 4096


class ProgramCompilationError(ReproError, ValueError):
    """A vote program exceeds what the engine IR can express (too many
    sequential draws or too many lowered nodes).

    Part of the :mod:`repro.errors` taxonomy (HTTP 422: the request was
    well-formed but names a program the engine cannot run)."""

    code = "program_compilation"
    http_status = 422


@dataclass(frozen=True)
class VoteProgram:
    """One distinct per-node vote program, lowered to a flat decision DAG.

    Each program node consumes one uniform draw: with ``u`` the draw at
    index ``depths[j]`` of the node's tape, control moves to ``on_true[j]``
    when ``u < thresholds[j]`` and to ``on_false[j]`` otherwise, until a
    terminal (:data:`ACCEPT` / :data:`REJECT`) is reached.  Program nodes
    are indexed so that every edge goes from a higher index to a lower one;
    ``root`` is therefore the highest index (or a terminal, for constant
    programs).

    ``constant`` is the structurally-determined vote (``None`` when the vote
    genuinely depends on the draws) and ``accept_probability`` the exact
    closed-form probability of voting ``True``.
    """

    thresholds: np.ndarray = field(repr=False)
    on_true: np.ndarray = field(repr=False)
    on_false: np.ndarray = field(repr=False)
    depths: np.ndarray = field(repr=False)
    root: int
    accept_probability: float
    constant: Optional[bool]
    max_draws: int

    @property
    def n_nodes(self) -> int:
        return len(self.thresholds)

    def walk(self, next_uniform: Callable[[], float]) -> bool:
        """Evaluate the program by drawing uniforms sequentially.

        ``next_uniform`` must yield the node's tape stream in order; program
        node at depth ``d`` then consumes draw ``d``, exactly like the
        interpreted expression.
        """
        state = self.root
        while state >= 0:
            if next_uniform() < self.thresholds[state]:
                state = int(self.on_true[state])
            else:
                state = int(self.on_false[state])
        return state == ACCEPT


def lower_program(expr: VoteExpr) -> VoteProgram:
    """Lower a vote expression to a :class:`VoteProgram`.

    The lowering is continuation-based: each sub-expression is compiled at
    an explicit draw depth with two continuations (where to go on ``True`` /
    ``False``), which realises short-circuit ``and``/``or`` and branching
    while keeping the invariant that a program node at depth ``d`` consumes
    exactly draw ``d`` of the tape.  Raises
    :class:`ProgramCompilationError` when the expression needs more than
    :data:`MAX_PROGRAM_DRAWS` sequential draws or more than
    :data:`MAX_PROGRAM_NODES` lowered nodes.
    """
    rows: List[Tuple[float, int, int, int]] = []
    # Shared sub-circuits (e.g. the (remaining, successes) states of
    # ``majority``) must lower once per (expression, depth, continuations)
    # triple, not once per path — without this memo a k-coin majority
    # explodes to 2^k − 1 nodes instead of O(k²).  Expressions are keyed by
    # identity (the dataclass structural hash would itself re-expand a
    # shared DAG exponentially); the whole expression stays alive for the
    # duration of the call, and continuation functions hash by identity too.
    lowered_memo: Dict[Tuple[int, int, object, object], int] = {}

    def draw_cap_error() -> ProgramCompilationError:
        return ProgramCompilationError(
            f"vote program needs more than {MAX_PROGRAM_DRAWS} sequential "
            "draws, which the engine IR cannot express; run this decider "
            'with engine="off"'
        )

    def emit(p: float, depth: int, on_true: int, on_false: int) -> int:
        if depth >= MAX_PROGRAM_DRAWS:
            raise draw_cap_error()
        if len(rows) >= MAX_PROGRAM_NODES:
            raise ProgramCompilationError(
                f"vote program lowers to more than {MAX_PROGRAM_NODES} nodes, "
                'which the engine IR cannot express; run this decider with engine="off"'
            )
        rows.append((p, on_true, on_false, depth))
        return len(rows) - 1

    def memoized(fn: Callable[[int], int]) -> Callable[[int], int]:
        cache: Dict[int, int] = {}

        def wrapped(depth: int) -> int:
            if depth not in cache:
                cache[depth] = fn(depth)
            return cache[depth]

        return wrapped

    def lower(expr: VoteExpr, depth: int, k_true, k_false) -> int:
        key = (id(expr), depth, k_true, k_false)
        if key in lowered_memo:
            return lowered_memo[key]
        result = _lower(expr, depth, k_true, k_false)
        lowered_memo[key] = result
        return result

    def _lower(expr: VoteExpr, depth: int, k_true, k_false) -> int:
        if isinstance(expr, Const):
            return k_true(depth) if expr.value else k_false(depth)
        if isinstance(expr, Coin):
            p = float(expr.p)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"coin probability must lie in [0, 1]; got {p}")
            # Enforce the draw cap *before* recursing into the continuations:
            # they descend through every later draw, so a late check would hit
            # the interpreter's recursion limit first on long coin chains.
            if depth >= MAX_PROGRAM_DRAWS:
                raise draw_cap_error()
            return emit(p, depth, k_true(depth + 1), k_false(depth + 1))
        if isinstance(expr, Not):
            return lower(expr.operand, depth, k_false, k_true)
        if isinstance(expr, (AllOf, AnyOf)):
            conjunction = isinstance(expr, AllOf)
            operands = expr.operands
            if len(operands) > MAX_PROGRAM_NODES:
                raise ProgramCompilationError(
                    f"vote program combines more than {MAX_PROGRAM_NODES} "
                    "operands, which the engine IR cannot express; run this "
                    'decider with engine="off"'
                )

            def lower_from(index: int, depth: int) -> int:
                if index == len(operands):
                    return k_true(depth) if conjunction else k_false(depth)
                continue_k = memoized(lambda d: lower_from(index + 1, d))
                if conjunction:
                    return lower(operands[index], depth, continue_k, k_false)
                return lower(operands[index], depth, k_true, continue_k)

            return lower_from(0, depth)
        if isinstance(expr, Branch):
            true_k = memoized(lambda d: lower(expr.on_true, d, k_true, k_false))
            false_k = memoized(lambda d: lower(expr.on_false, d, k_true, k_false))
            return lower(expr.condition, depth, true_k, false_k)
        raise TypeError(f"not a vote expression: {expr!r}")

    root = lower(expr, 0, lambda _depth: ACCEPT, lambda _depth: REJECT)

    thresholds = np.array([row[0] for row in rows], dtype=np.float64)
    on_true = np.array([row[1] for row in rows], dtype=np.int32)
    on_false = np.array([row[2] for row in rows], dtype=np.int32)
    depths = np.array([row[3] for row in rows], dtype=np.int32)

    constant = _structural_constant(root, thresholds, on_true, on_false)
    probability = _accept_probability(root, thresholds, on_true, on_false)
    if constant is True:
        probability = 1.0
    elif constant is False:
        probability = 0.0
    max_draws = int(depths.max()) + 1 if len(rows) else 0
    return VoteProgram(
        thresholds=thresholds,
        on_true=on_true,
        on_false=on_false,
        depths=depths,
        root=int(root),
        accept_probability=float(probability),
        constant=constant,
        max_draws=max_draws,
    )


def _structural_constant(root, thresholds, on_true, on_false) -> Optional[bool]:
    """The program's vote when it cannot depend on the draws, else ``None``.

    Walks the reachable part of the DAG; a threshold-0 edge can never fire
    (uniforms live in ``[0, 1)``) and a threshold-1 edge always does, so the
    corresponding branches are pruned.  Constancy is decided structurally —
    never from the floating-point acceptance probability, whose rounding
    could misclassify a genuinely random vote as deterministic.
    """
    if root < 0:
        return root == ACCEPT
    seen = set()
    stack = [int(root)]
    outcomes = set()
    while stack:
        state = stack.pop()
        if state < 0:
            outcomes.add(state == ACCEPT)
            if len(outcomes) == 2:
                return None
            continue
        if state in seen:
            continue
        seen.add(state)
        if thresholds[state] > 0.0:
            stack.append(int(on_true[state]))
        if thresholds[state] < 1.0:
            stack.append(int(on_false[state]))
    return outcomes.pop() if len(outcomes) == 1 else None


def _accept_probability(root, thresholds, on_true, on_false) -> float:
    """Exact Pr[program votes True]: each node's draw is fresh, so the DAG
    recursion ``P(j) = p_j·P(true_j) + (1 − p_j)·P(false_j)`` is exact."""
    cache: Dict[int, float] = {ACCEPT: 1.0, REJECT: 0.0}

    def probability(state: int) -> float:
        if state not in cache:
            p = float(thresholds[state])
            cache[state] = p * probability(int(on_true[state])) + (1.0 - p) * probability(
                int(on_false[state])
            )
        return cache[state]

    return probability(int(root))


# --------------------------------------------------------------------------- #
# Compiled decisions
# --------------------------------------------------------------------------- #
def is_compilable(decider: object) -> bool:
    """Whether the decider exposes the vote-program contract
    ``vote_program(ball)`` the engine compiles."""
    return callable(getattr(decider, "vote_program", None))


@dataclass(frozen=True)
class CompiledDecision:
    """A ``(Configuration, Decider)`` pair flattened to NumPy arrays.

    Node order is the network's stable node order; all arrays are indexed by
    position in ``nodes``.

    Attributes
    ----------
    nodes:
        The node objects, fixing the array indexing.
    identities:
        ``int64`` identity of each node (seeds the exact-mode streams).
    probabilities:
        ``float64`` probability that the node votes ``True`` (the exact
        closed form of the node's program).
    programs / program_ids:
        The distinct lowered :class:`VoteProgram` objects and the per-node
        assignment into them.
    decider_name:
        Name of the compiled decider (the legacy tape salt).
    radius:
        Checking radius of the decider (cost bookkeeping / reporting).
    """

    nodes: Tuple[Hashable, ...]
    identities: np.ndarray
    probabilities: np.ndarray
    programs: Tuple[VoteProgram, ...]
    program_ids: np.ndarray
    decider_name: str
    radius: int

    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @cached_property
    def random_index(self) -> np.ndarray:
        """Positions of the nodes whose vote genuinely depends on draws
        (structurally non-constant programs)."""
        non_constant = np.array(
            [self.programs[program_id].constant is None for program_id in self.program_ids],
            dtype=bool,
        )
        return np.flatnonzero(non_constant)

    @property
    def always_rejects(self) -> bool:
        """Whether some node deterministically votes ``False``, which forces
        every trial to reject.  Every program is assigned to at least one
        node, so scanning the distinct programs suffices."""
        return any(program.constant is False for program in self.programs)

    @property
    def deterministic_accept_probability(self) -> float:
        """Exact Pr[all accept] — the product of the per-node acceptance
        probabilities (coins at distinct nodes are independent)."""
        return float(np.prod(self.probabilities))

    @property
    def max_draws(self) -> int:
        """The deepest draw prefix any node's program may consume."""
        return max((program.max_draws for program in self.programs), default=0)

    def program_of(self, position: int) -> VoteProgram:
        """The lowered program of the node at ``position``."""
        return self.programs[int(self.program_ids[position])]


def _structural_key(
    expr: VoteExpr, seen: Dict[int, int], intern: Dict[Tuple, int]
) -> int:
    """A per-compilation interned key with *structural* equality semantics.

    Equivalent sub-circuits map to the same small integer; the traversal is
    linear in the expression **DAG** (memoized on object identity), unlike
    the dataclass ``__hash__``, which re-expands shared subexpressions
    exponentially (a ``majority`` circuit is a densely shared DAG).
    """
    marker = id(expr)
    if marker in seen:
        return seen[marker]
    if isinstance(expr, Const):
        token: Tuple = ("const", expr.value)
    elif isinstance(expr, Coin):
        token = ("coin", float(expr.p))
    elif isinstance(expr, Not):
        token = ("not", _structural_key(expr.operand, seen, intern))
    elif isinstance(expr, (AllOf, AnyOf)):
        token = (
            "all" if isinstance(expr, AllOf) else "any",
            tuple(_structural_key(operand, seen, intern) for operand in expr.operands),
        )
    elif isinstance(expr, Branch):
        token = (
            "branch",
            _structural_key(expr.condition, seen, intern),
            _structural_key(expr.on_true, seen, intern),
            _structural_key(expr.on_false, seen, intern),
        )
    else:
        raise TypeError(f"not a vote expression: {expr!r}")
    if token not in intern:
        intern[token] = len(intern)
    seen[marker] = intern[token]
    return seen[marker]


def _node_expression(decider: "Decider", ball) -> VoteExpr:
    """The vote expression of one node: the decider's ``vote_program``."""
    expr = decider.vote_program(ball)
    if not isinstance(expr, VoteExpr):
        raise TypeError(
            f"vote_program of {getattr(decider, 'name', decider)!r} returned "
            f"{expr!r}; expected a VoteExpr (coin/const/all_of/any_of/neg/branch)"
        )
    return expr


def compile_decision(decider: "Decider", configuration: "Configuration") -> CompiledDecision:
    """Compile a decider against a fixed configuration.

    Extracts every radius-``t`` ball once, asks the decider for its per-node
    vote program (or takes ``vote_programs`` when offered), lowers each
    distinct program once, and freezes the result into a
    :class:`CompiledDecision`.  Raises ``TypeError`` for deciders
    without a ``vote_program`` — callers should check :func:`is_compilable`
    first and fall back to the reference path — and
    :class:`ProgramCompilationError` for programs beyond the IR's draw cap.
    """
    recorder = get_recorder()
    with recorder.span(
        "engine.compile", decider=str(getattr(decider, "name", decider))
    ) as span:
        compiled = _compile_decision(decider, configuration)
        span.annotate(nodes=compiled.n_nodes, programs=len(compiled.programs))
    if os.environ.get("REPRO_CHECK_IR", "") not in ("", "0"):
        # Lazy import: repro.check.ir imports this module, and the hook is
        # opt-in (CI / tests), so production compiles pay nothing.
        from repro.check.ir import verify_compiled_decision

        verify_compiled_decision(compiled)
    return compiled


def _compile_decision(decider: "Decider", configuration: "Configuration") -> CompiledDecision:
    if not is_compilable(decider):
        raise TypeError(
            f"decider {getattr(decider, 'name', decider)!r} exposes no "
            "vote_program(ball) and cannot be compiled; use the reference path"
        )
    network = configuration.network
    nodes: List[Hashable] = network.nodes()
    radius = int(decider.radius)

    lowered: Dict[int, int] = {}
    key_seen: Dict[int, int] = {}
    key_intern: Dict[Tuple, int] = {}
    # ``key_seen`` memoizes by object identity, so every expression that fed
    # it must stay alive for the whole loop — otherwise a recycled id() could
    # alias a new expression onto a stale key.
    keepalive: List[VoteExpr] = []
    programs: List[VoteProgram] = []
    program_ids = np.empty(len(nodes), dtype=np.int32)
    probabilities = np.empty(len(nodes), dtype=np.float64)
    offered = getattr(decider, "vote_programs", None)
    expressions = (
        iter(offered(configuration))
        if callable(offered)
        else (_node_expression(decider, configuration.ball(node, radius)) for node in nodes)
    )
    for position, node in enumerate(nodes):
        try:
            expr = next(expressions)
        except ValueError as error:
            raise ValueError(f"decider {decider.name!r} at node {node!r}: {error}") from error
        keepalive.append(expr)
        key = _structural_key(expr, key_seen, key_intern)
        if key not in lowered:
            try:
                program = lower_program(expr)
            except ProgramCompilationError as error:
                raise ProgramCompilationError(
                    f"decider {decider.name!r} at node {node!r}: {error}"
                ) from error
            lowered[key] = len(programs)
            programs.append(program)
        program_ids[position] = lowered[key]
        probabilities[position] = programs[lowered[key]].accept_probability

    return CompiledDecision(
        nodes=tuple(nodes),
        identities=np.array([network.identity(node) for node in nodes], dtype=np.int64),
        probabilities=probabilities,
        programs=tuple(programs),
        program_ids=program_ids,
        decider_name=str(decider.name),
        radius=radius,
    )
