"""Algorithm interfaces for the LOCAL model.

Two equivalent formulations are provided, mirroring the observation in
Section 2.1.1 of the paper that a ``t``-round LOCAL algorithm can always be
simulated by (1) collecting the radius-``t`` ball and (2) computing the output
from the ball:

* :class:`LocalAlgorithm` — explicit synchronous message passing: in every
  round each node sends messages to its neighbours, receives their messages,
  and updates its state; when the algorithm finishes, each node produces an
  output.  Executed by :class:`repro.local.simulator.Simulator`.

* :class:`BallAlgorithm` — a map from a :class:`repro.local.ball.BallView`
  (plus, for Monte-Carlo algorithms, the centre's private random tape) to an
  output.  This is the formulation used throughout :mod:`repro.core` because
  the paper's definitions (deciders, constructors, order invariance) are all
  stated in terms of balls.

:func:`ball_algorithm_to_local` lifts a ball algorithm into a genuine
message-passing algorithm that floods knowledge for ``radius`` rounds and
reconstructs the ball; tests verify the two executions agree, which validates
the simulator against the model's defining equivalence.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, Mapping, Optional

from repro.local.ball import BallView, _ball
from repro.local.randomness import RandomTape

__all__ = [
    "NodeContext",
    "LocalAlgorithm",
    "BallAlgorithm",
    "FunctionBallAlgorithm",
    "ball_algorithm_to_local",
]


@dataclass
class NodeContext:
    """What a node knows *a priori* in the LOCAL model.

    A node initially knows its own identity, its own input, its degree, and
    has access to a private random tape; it does **not** know its neighbours'
    identities (those are learned through messages), the size of the network,
    or anything global.
    """

    identity: int
    input: object
    degree: int
    tape: RandomTape

    #: Number of nodes in the network, only populated when the simulator is
    #: explicitly told the algorithm may use knowledge of ``n`` (the class
    #: BPLD#node discussed in Section 5).  ``None`` otherwise.
    n_nodes: Optional[int] = None


class LocalAlgorithm(ABC):
    """A synchronous message-passing algorithm in the LOCAL model.

    Subclasses implement the four hooks below.  The simulator drives the
    rounds; message size and local computation are unbounded, as in the
    model.
    """

    #: Human-readable name used in reports.
    name: str = "local-algorithm"

    @abstractmethod
    def initial_state(self, ctx: NodeContext) -> object:
        """State of a node before the first round."""

    @abstractmethod
    def send(self, state: object, ctx: NodeContext, rnd: int) -> object:
        """Message(s) sent in round ``rnd`` (1-based).

        Return either a single value — broadcast to every neighbour — or a
        ``dict`` mapping port number to message for per-port messages.
        Return ``None`` (or an empty per-port dict) to send nothing.
        """

    @abstractmethod
    def receive(
        self,
        state: object,
        ctx: NodeContext,
        rnd: int,
        inbox: Dict[int, object],
    ) -> object:
        """Consume the messages received in round ``rnd`` and return the new
        state.  ``inbox`` maps the port a message arrived on to the message;
        ports with no incoming message are absent."""

    def finished(self, state: object, ctx: NodeContext, rnd: int) -> bool:
        """Whether this node has finished after ``rnd`` rounds.

        The simulator stops once *every* node has finished (or the round
        budget is exhausted).  The default never finishes early, which suits
        fixed-round algorithms run with an explicit round count.
        """
        return False

    @abstractmethod
    def output(self, state: object, ctx: NodeContext) -> object:
        """The node's final output."""


class BallAlgorithm(ABC):
    """A constant-time algorithm presented as a map from balls to outputs."""

    #: Human-readable name used in reports.
    name: str = "ball-algorithm"

    #: The radius ``t`` of the balls the algorithm inspects (= its round
    #: complexity in the LOCAL model).
    radius: int = 0

    #: Whether the algorithm uses private randomness (Monte-Carlo).
    randomized: bool = False

    @abstractmethod
    def compute(self, ball: BallView, tape: Optional[RandomTape] = None) -> object:
        """Output of the centre node given its radius-``radius`` ball.

        ``tape`` is the centre's private random tape; it is ``None`` when the
        algorithm declares itself deterministic.
        """

    def __call__(self, ball: BallView, tape: Optional[RandomTape] = None) -> object:
        return self.compute(ball, tape)


class FunctionBallAlgorithm(BallAlgorithm):
    """Wrap a plain function ``ball -> output`` (or ``(ball, tape) -> output``)
    as a :class:`BallAlgorithm`.

    Pass ``output_program`` (a callable ``ball -> OutputExpr`` over the
    :mod:`repro.engine.construct` IR) when the function is a single-draw map
    from balls to outputs, to make constructors built on this algorithm
    compilable by the construction engine; the contract is that interpreting
    the returned program against a fresh tape behaves exactly like
    ``fn(ball, tape)`` — same output, same draws consumed.
    """

    def __init__(
        self,
        fn: Callable,
        radius: int,
        name: str = "function-ball-algorithm",
        randomized: bool = False,
        output_program: Optional[Callable] = None,
    ) -> None:
        self._fn = fn
        self.radius = int(radius)
        self.name = name
        self.randomized = bool(randomized)
        # Instance attribute, so the construction engine's compilability
        # probe sees it only when the caller actually supplied one.
        if output_program is not None:
            self.output_program = output_program

    def compute(self, ball: BallView, tape: Optional[RandomTape] = None) -> object:
        if self.randomized:
            return self._fn(ball, tape)
        return self._fn(ball)


# --------------------------------------------------------------------------- #
# Lifting a ball algorithm to message passing
# --------------------------------------------------------------------------- #
@dataclass
class _KnowledgeState:
    """Accumulated knowledge of one node while flooding its neighbourhood."""

    #: identity -> (input,) records learned so far.
    records: Dict[int, object] = field(default_factory=dict)
    #: set of known edges as frozensets of identities.
    edges: set = field(default_factory=set)
    #: cache of the final output once computed.
    result: object = None
    done: bool = False


class _BallCollectionAlgorithm(LocalAlgorithm):
    """Message-passing algorithm that reconstructs ``B_G(v, t)`` by flooding
    and then applies a :class:`BallAlgorithm` to it."""

    def __init__(self, ball_algorithm: BallAlgorithm) -> None:
        self.ball_algorithm = ball_algorithm
        self.name = f"lifted({ball_algorithm.name})"

    def initial_state(self, ctx: NodeContext) -> _KnowledgeState:
        state = _KnowledgeState()
        state.records[ctx.identity] = ctx.input
        return state

    def send(self, state: _KnowledgeState, ctx: NodeContext, rnd: int) -> object:
        if rnd > self.ball_algorithm.radius:
            return None
        # Broadcast everything known: own record plus accumulated knowledge.
        return {
            "records": dict(state.records),
            "edges": set(state.edges),
            "sender": ctx.identity,
        }

    def receive(
        self,
        state: _KnowledgeState,
        ctx: NodeContext,
        rnd: int,
        inbox: Dict[int, object],
    ) -> _KnowledgeState:
        if rnd > self.ball_algorithm.radius:
            return state
        for message in inbox.values():
            if message is None:
                continue
            state.records.update(message["records"])
            state.edges.update(message["edges"])
            # Learning the sender's identity reveals the edge between us.
            state.edges.add(frozenset((ctx.identity, message["sender"])))
        return state

    def finished(self, state: _KnowledgeState, ctx: NodeContext, rnd: int) -> bool:
        return rnd >= self.ball_algorithm.radius

    def output(self, state: _KnowledgeState, ctx: NodeContext) -> object:
        ball = self._reconstruct_ball(state, ctx)
        tape = ctx.tape if self.ball_algorithm.randomized else None
        return self.ball_algorithm.compute(ball, tape)

    def _reconstruct_ball(self, state: _KnowledgeState, ctx: NodeContext) -> BallView:
        known = state.records
        neighbours: Dict[int, list] = {ident: [] for ident in known}
        for edge in state.edges:
            u, v = tuple(edge)
            if u in known and v in known:
                neighbours[u].append(v)
                neighbours[v].append(u)
        # Node objects are identities, so sorting by value is identity order.
        # BFS distances in the learned graph equal the true distances for
        # every node of the ball (shortest paths to nodes at distance <= t
        # use only edges with an endpoint at distance <= t-1, all learned).
        adjacency = {ident: sorted(others) for ident, others in neighbours.items()}
        return _ball(
            adjacency,
            ctx.identity,
            self.ball_algorithm.radius,
            identity=lambda ident: ident,
            input_of=known.__getitem__,
        )


def ball_algorithm_to_local(ball_algorithm: BallAlgorithm) -> LocalAlgorithm:
    """Lift a ball algorithm into a genuine message-passing LOCAL algorithm.

    The lifted algorithm floods node records and edge knowledge for
    ``ball_algorithm.radius`` rounds, reconstructs the paper's ball
    ``B_G(v, t)`` (nodes at distance ≤ t, excluding edges between two nodes at
    distance exactly t), and then evaluates the ball algorithm on it.  The
    node objects of the reconstructed ball are the node *identities*, which is
    all a real distributed node can know; ball algorithms must therefore not
    rely on host-graph node objects.
    """
    return _BallCollectionAlgorithm(ball_algorithm)
