"""Maximal matching: a mutual-proposal distributed algorithm plus the greedy
sequential reference.

The distributed algorithm repeats a two-round phase:

* **status round** — every node broadcasts whether it is still unmatched;
* **proposal round** — every unmatched node points at its smallest-identity
  unmatched neighbour and broadcasts the pointer; two nodes that point at
  each other become matched.

In every phase the globally smallest-identity unmatched node that still has
an unmatched neighbour gets matched (its unmatched neighbours all point at
it), so the algorithm terminates after at most ``n/2`` phases with a maximal
matching.  It is not a state-of-the-art algorithm — O(log n)-round randomized
algorithms exist — but it is simple, deterministic, and exercises per-node
pointers through the message-passing simulator; the matching language of
:mod:`repro.core.lcl` checks its output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Optional

from repro.core.construction import MessagePassingConstructor
from repro.local.algorithm import LocalAlgorithm, NodeContext
from repro.local.network import Network

__all__ = [
    "greedy_maximal_matching",
    "ProposalMatchingAlgorithm",
    "ProposalMatchingConstructor",
]


def greedy_maximal_matching(network: Network) -> Dict[Hashable, Optional[int]]:
    """Sequential greedy maximal matching (centralized reference).

    Edges are scanned in lexicographic identity order; an edge is added when
    both endpoints are free.  Returns, for every node, the identity of its
    partner or ``None``.
    """
    partner: Dict[Hashable, Optional[int]] = {node: None for node in network.nodes()}
    edges = sorted(
        network.edges(),
        key=lambda edge: tuple(sorted((network.identity(edge[0]), network.identity(edge[1])))),
    )
    for u, v in edges:
        if partner[u] is None and partner[v] is None:
            partner[u] = network.identity(v)
            partner[v] = network.identity(u)
    return partner


@dataclass
class _MatchingState:
    partner: Optional[int] = None
    #: identity -> unmatched? knowledge about neighbours, refreshed each phase.
    neighbor_unmatched: Dict[int, bool] = None  # type: ignore[assignment]
    #: pointer chosen in the current phase (identity of the proposee).
    pointer: Optional[int] = None
    #: set once the node knows no unmatched neighbour remains.
    settled: bool = False

    def __post_init__(self) -> None:
        if self.neighbor_unmatched is None:
            self.neighbor_unmatched = {}


class ProposalMatchingAlgorithm(LocalAlgorithm):
    """The mutual-proposal maximal-matching algorithm (two rounds per phase)."""

    name = "proposal-matching"

    def initial_state(self, ctx: NodeContext) -> _MatchingState:
        return _MatchingState()

    def send(self, state: _MatchingState, ctx: NodeContext, rnd: int) -> object:
        status_round = rnd % 2 == 1
        if status_round:
            return ("status", ctx.identity, state.partner is None)
        if state.partner is not None or state.pointer is None:
            return ("propose", ctx.identity, None)
        return ("propose", ctx.identity, state.pointer)

    def receive(
        self,
        state: _MatchingState,
        ctx: NodeContext,
        rnd: int,
        inbox: Dict[int, object],
    ) -> _MatchingState:
        status_round = rnd % 2 == 1
        if status_round:
            state.neighbor_unmatched = {
                message[1]: bool(message[2])
                for message in inbox.values()
                if isinstance(message, tuple) and message[0] == "status"
            }
            unmatched_neighbors = [
                ident for ident, free in state.neighbor_unmatched.items() if free
            ]
            if state.partner is None:
                if unmatched_neighbors:
                    state.pointer = min(unmatched_neighbors)
                else:
                    state.pointer = None
                    state.settled = True
            return state
        # Proposal round: match mutual pointers.
        if state.partner is None and state.pointer is not None:
            for message in inbox.values():
                if (
                    isinstance(message, tuple)
                    and message[0] == "propose"
                    and message[1] == state.pointer
                    and message[2] == ctx.identity
                ):
                    state.partner = state.pointer
                    break
        return state

    def finished(self, state: _MatchingState, ctx: NodeContext, rnd: int) -> bool:
        return state.partner is not None or state.settled

    def output(self, state: _MatchingState, ctx: NodeContext) -> object:
        return state.partner


class ProposalMatchingConstructor(MessagePassingConstructor):
    """Constructor wrapper: runs the proposal matching until termination."""

    def __init__(self, max_rounds: int = 50_000) -> None:
        super().__init__(
            algorithm_factory=ProposalMatchingAlgorithm,
            randomized=False,
            rounds=None,
            max_rounds=max_rounds,
            name="proposal-matching",
        )
