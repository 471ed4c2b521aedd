"""Experiment result records.

An :class:`ExperimentResult` captures everything a row of EXPERIMENTS.md
needs: the experiment identifier, the workload parameters, the measured rows,
the claim from the paper it reproduces, and a free-form verdict on whether
the measured shape matches.

CI-aware verdicts
-----------------
``matches_paper`` keeps its three historical values — ``True`` / ``False`` /
``None`` (never judged).  Experiments running under a precision target
(see :mod:`repro.stats`) additionally distinguish *unresolved* from
*unjudged*: when a criterion's confidence interval straddles its acceptance
threshold, the experiment sets ``matches_paper=None`` **and**
``unresolved=True`` instead of letting the point estimate flap between pass
and fail.  The :attr:`ExperimentResult.verdict` property folds the pair into
one of ``"pass"`` / ``"fail"`` / ``"unresolved"`` / ``"unset"``; anything
but ``"pass"`` fails the CLI's exit-code gate.  ``ci_low`` / ``ci_high`` /
``trials_used`` record the binding (widest) interval and the total trials an
adaptive run consumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

__all__ = ["ExperimentResult"]


@dataclass
class ExperimentResult:
    """Outcome of one experiment (one table/series of the harness).

    Attributes
    ----------
    experiment_id:
        The identifier from DESIGN.md's experiment index (e.g. ``"E1"``).
    title:
        Human-readable one-line description.
    paper_claim:
        The quantitative claim from the paper being reproduced.
    parameters:
        Workload parameters of this run (sizes, trials, seeds, ...).
    rows:
        The measured rows (same shape the bench prints).
    matches_paper:
        Whether the measured shape agrees with the paper's claim, as judged
        by the experiment's own acceptance criterion (``None``: not judged,
        or — with ``unresolved`` set — not judgeable at this precision).
    unresolved:
        Set (with ``matches_paper=None``) when a CI-aware criterion's
        interval straddles its threshold: more trials, not a different
        verdict, is the correct response.
    ci_low / ci_high:
        The binding (widest) confidence interval of an adaptive run.
    trials_used:
        Total Monte-Carlo trials consumed by an adaptive run.
    notes:
        Anything worth recording (tolerances used, substitutions, caveats).
    """

    experiment_id: str
    title: str
    paper_claim: str
    parameters: Dict[str, object] = field(default_factory=dict)
    rows: List[Dict[str, object]] = field(default_factory=list)
    matches_paper: Optional[bool] = None
    unresolved: bool = False
    ci_low: Optional[float] = None
    ci_high: Optional[float] = None
    trials_used: Optional[int] = None
    notes: str = ""

    @property
    def verdict(self) -> str:
        """The four-way verdict: ``pass`` / ``fail`` / ``unresolved`` /
        ``unset``.  Only ``pass`` satisfies the CLI gate."""
        if self.matches_paper is True:
            return "pass"
        if self.matches_paper is False:
            return "fail"
        return "unresolved" if self.unresolved else "unset"

    def add_row(self, **values: object) -> None:
        self.rows.append(dict(values))

    def column(self, name: str) -> List[object]:
        return [row.get(name) for row in self.rows]

    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "paper_claim": self.paper_claim,
            "parameters": dict(self.parameters),
            "rows": [dict(row) for row in self.rows],
            "matches_paper": self.matches_paper,
            "unresolved": self.unresolved,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "trials_used": self.trials_used,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ExperimentResult":
        # The CI fields default when absent, so artifacts written before the
        # stats layer still load.
        return cls(
            experiment_id=str(data["experiment_id"]),
            title=str(data["title"]),
            paper_claim=str(data["paper_claim"]),
            parameters=dict(data.get("parameters", {})),  # type: ignore[arg-type]
            rows=[dict(row) for row in data.get("rows", [])],  # type: ignore[union-attr]
            matches_paper=data.get("matches_paper"),  # type: ignore[arg-type]
            unresolved=bool(data.get("unresolved", False)),
            ci_low=data.get("ci_low"),  # type: ignore[arg-type]
            ci_high=data.get("ci_high"),  # type: ignore[arg-type]
            trials_used=data.get("trials_used"),  # type: ignore[arg-type]
            notes=str(data.get("notes", "")),
        )

