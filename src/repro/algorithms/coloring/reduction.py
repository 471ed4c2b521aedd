"""Constant-time color reduction under a coloring promise.

Given as input a proper coloring with a constant number ``k`` of colors, the
classical color-reduction algorithm retires one color class per round: nodes
holding the currently retired color simultaneously recolor to the smallest
color of the target palette unused in their neighbourhood (a color class is
an independent set, so simultaneous recoloring is safe, and a node of degree
``d ≤ Δ`` always finds a free color among ``Δ + 1``).  After ``k − (Δ + 1)``
rounds — a constant when ``k`` and ``Δ`` are constants — the coloring uses
the target palette.

This is a genuine message-passing :class:`~repro.local.algorithm.LocalAlgorithm`
and serves as the repository's example of a task that is *both constructible
and decidable in constant time* (the cell the paper fills with weak coloring;
see EXPERIMENTS.md for the documented substitution): the language
"(Δ+1)-coloring, promised a proper k-coloring as input" is in LD(1), and this
algorithm constructs it in ``k − Δ − 1`` rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.core.construction import MessagePassingConstructor
from repro.local.algorithm import LocalAlgorithm, NodeContext

__all__ = ["ColorReductionAlgorithm", "ColorReductionConstructor"]


@dataclass
class _ReductionState:
    color: int


class ColorReductionAlgorithm(LocalAlgorithm):
    """Reduce a proper ``initial_palette``-coloring to ``target_palette`` colors.

    Every node's input must be its initial color, an integer in
    ``{1, ..., initial_palette}``, and the input coloring must be proper;
    both are promises the algorithm relies on (garbage in, garbage out — the
    decider of the coloring language will catch violations downstream).
    """

    def __init__(self, initial_palette: int, target_palette: int) -> None:
        if target_palette < 1:
            raise ValueError("the target palette must contain at least one color")
        if initial_palette < target_palette:
            raise ValueError("the initial palette cannot be smaller than the target")
        self.initial_palette = int(initial_palette)
        self.target_palette = int(target_palette)
        self.name = f"color-reduction({initial_palette}->{target_palette})"

    # ------------------------------------------------------------------ #
    def total_rounds(self) -> int:
        """Number of rounds the reduction takes (one per retired color)."""
        return self.initial_palette - self.target_palette

    def initial_state(self, ctx: NodeContext) -> _ReductionState:
        color = ctx.input
        if not isinstance(color, int) or not (1 <= color <= self.initial_palette):
            raise ValueError(
                f"node {ctx.identity} has input {color!r}, expected a color in "
                f"1..{self.initial_palette}"
            )
        return _ReductionState(color=int(color))

    def send(self, state: _ReductionState, ctx: NodeContext, rnd: int) -> object:
        return state.color

    def receive(
        self,
        state: _ReductionState,
        ctx: NodeContext,
        rnd: int,
        inbox: Dict[int, object],
    ) -> _ReductionState:
        retiring = self.initial_palette - rnd + 1
        if retiring <= self.target_palette:
            return state
        if state.color == retiring:
            neighbor_colors = {int(color) for color in inbox.values()}
            for candidate in range(1, self.target_palette + 1):
                if candidate not in neighbor_colors:
                    state.color = candidate
                    break
            else:  # pragma: no cover - impossible when target ≥ degree + 1
                raise RuntimeError(
                    f"node {ctx.identity} found no free color in the target palette; "
                    "is target_palette ≥ Δ + 1?"
                )
        return state

    def finished(self, state: _ReductionState, ctx: NodeContext, rnd: int) -> bool:
        return rnd >= self.total_rounds()

    def output(self, state: _ReductionState, ctx: NodeContext) -> object:
        return state.color


class ColorReductionConstructor(MessagePassingConstructor):
    """Constructor wrapper fixing the palettes and the round budget."""

    def __init__(self, initial_palette: int, target_palette: int) -> None:
        algorithm = ColorReductionAlgorithm(initial_palette, target_palette)
        super().__init__(
            algorithm_factory=lambda: ColorReductionAlgorithm(
                initial_palette, target_palette
            ),
            randomized=False,
            rounds=algorithm.total_rounds(),
            name=algorithm.name,
        )
        self.initial_palette = initial_palette
        self.target_palette = target_palette
