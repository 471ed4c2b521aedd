"""Luby's randomized maximal independent set algorithm.

Each phase takes two communication rounds:

* **bidding round** — every still-undecided node draws a uniform random value
  and broadcasts it; a node whose value is a strict local minimum among the
  undecided nodes of its closed neighbourhood (ties broken by identity) marks
  itself as *joining*;
* **notification round** — joining nodes broadcast the fact; they enter the
  independent set, and every undecided neighbour of a joining node leaves the
  competition permanently.

With high probability all nodes are decided after O(log n) phases; the
benchmark E10 verifies the logarithmic growth of the measured round counts,
which validates the message-passing simulator on a genuinely randomized,
adaptive-round algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.construction import MessagePassingConstructor
from repro.local.algorithm import LocalAlgorithm, NodeContext

__all__ = ["LubyMISAlgorithm", "LubyMISConstructor"]


@dataclass
class _LubyState:
    status: str = "active"  # "active" | "joining" | "in_mis" | "out"


class LubyMISAlgorithm(LocalAlgorithm):
    """Message-passing implementation of Luby's MIS."""

    name = "luby-mis"

    def initial_state(self, ctx: NodeContext) -> _LubyState:
        return _LubyState()

    def send(self, state: _LubyState, ctx: NodeContext, rnd: int) -> object:
        bidding_round = rnd % 2 == 1
        if bidding_round:
            if state.status != "active":
                return ("decided", state.status)
            return ("bid", self._own_bid(ctx, rnd), ctx.identity)
        # Notification round.
        return ("note", state.status)

    def receive(
        self,
        state: _LubyState,
        ctx: NodeContext,
        rnd: int,
        inbox: Dict[int, object],
    ) -> _LubyState:
        bidding_round = rnd % 2 == 1
        if bidding_round:
            if state.status != "active":
                return state
            # Both send() and receive() derive the phase bid from the same
            # forked child tape, so the value broadcast to the neighbours and
            # the value used in the local-minimum test are identical.
            own_value = self._own_bid(ctx, rnd)
            competitors = [
                (message[1], message[2])
                for message in inbox.values()
                if isinstance(message, tuple) and message[0] == "bid"
            ]
            if all(
                (own_value, ctx.identity) < competitor for competitor in competitors
            ):
                state.status = "joining"
            return state
        # Notification round.
        if state.status == "joining":
            state.status = "in_mis"
            return state
        if state.status == "active":
            for message in inbox.values():
                if isinstance(message, tuple) and message[0] == "note" and message[1] == "joining":
                    state.status = "out"
                    break
        return state

    def _own_bid(self, ctx: NodeContext, rnd: int) -> float:
        """Deterministic per-phase bid derived from the node's tape seed."""
        return ctx.tape.fork(("luby-bid", rnd)).uniform()

    def send_bid_value(self, ctx: NodeContext, rnd: int) -> float:
        return self._own_bid(ctx, rnd)

    def finished(self, state: _LubyState, ctx: NodeContext, rnd: int) -> bool:
        return state.status in ("in_mis", "out")

    def output(self, state: _LubyState, ctx: NodeContext) -> object:
        return state.status == "in_mis"


class LubyMISConstructor(MessagePassingConstructor):
    """Constructor wrapper: runs Luby's MIS until every node is decided."""

    def __init__(self, max_rounds: int = 10_000) -> None:
        super().__init__(
            algorithm_factory=LubyMISAlgorithm,
            randomized=True,
            rounds=None,
            max_rounds=max_rounds,
            name="luby-mis",
        )
