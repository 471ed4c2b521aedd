"""Markdown rendering of experiment results (EXPERIMENTS.md generation).

``EXPERIMENTS.md`` records, for every experiment of DESIGN.md's index, what
the paper claims, what was measured, and whether the shapes agree.  The file
in the repository root is the full preset at seed 0, rendered from the JSON
artifacts ``repro run`` writes::

    python -m repro run all --seed 0 --output-dir D
    python -m repro report --results D --output EXPERIMENTS.md
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Union

from repro.harness.reporting import load_json
from repro.harness.results import ExperimentResult

__all__ = ["markdown_for_experiment", "render_experiments_markdown", "load_results_directory"]

#: Cap on the number of measured rows reproduced inline per experiment — the
#: complete rows stay available in the JSON artifacts.
_MAX_ROWS = 16

_HEADER = """# EXPERIMENTS — paper vs. measured

Reproduction record for *Randomized Local Network Computing* (Feuilloley &
Fraigniaud, SPAA 2015).  The paper is a theory paper without numbered tables
or figures; each experiment below reproduces one of its quantitative claims
(decider guarantees, probability windows, lower-bound shapes, and the
error-amplification bounds in the proof of Theorem 1), as indexed in
DESIGN.md.  Absolute running times are not comparable (our substrate is a
Python simulator, not the authors' model-theoretic statements); the match
criterion is the *shape*: which algorithm achieves which guarantee, where the
thresholds fall, and which side of each separation wins.

Regenerate with `python -m repro run all --seed 0 --output-dir D` followed by
`python -m repro report --results D --output EXPERIMENTS.md`.

## Documented substitutions

| Paper ingredient | Substitution in this reproduction | Why the behaviour is preserved |
|---|---|---|
| Asymptotic statements (Ω(log* n), "arbitrarily large diameter") | Finite sweeps with trend checks (growth ≤ additive constant over 4096× size increase) | the lower/upper-bound *shapes* are observable at finite n |
| The Ramsey/Adleman existence arguments (Claims 1–2) | Exhaustive enumeration of order-invariant algorithms on cycles for small radii | the finiteness the proofs rely on is literal at small parameters |
| Weak coloring as the "constructible and decidable in O(1)" example | Color reduction under a k-coloring promise (E7, row 3) | fills the same cell of the separation table with a provably constant-round construction + radius-1 checker |
| A hypothetical faulty Monte-Carlo constructor for a BPLD language (the object Theorem 1 reasons about) | A toy "all-zeros" language with a constructor corrupting each node independently with probability q | every probability in the proof (β, the amplification bounds) has a closed form to compare against |

"""


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def markdown_for_experiment(result: ExperimentResult) -> str:
    """One markdown section for a single experiment."""
    lines: List[str] = [f"## {result.experiment_id} — {result.title}", ""]
    lines.append(f"**Paper claim.** {result.paper_claim}")
    lines.append("")
    if result.parameters:
        rendered = ", ".join(f"`{key}={value}`" for key, value in result.parameters.items())
        lines.append(f"**Workload.** {rendered}")
        lines.append("")
    if result.rows:
        columns = list(result.rows[0].keys())
        lines.append("| " + " | ".join(columns) + " |")
        lines.append("|" + "|".join(["---"] * len(columns)) + "|")
        for row in result.rows[:_MAX_ROWS]:
            lines.append(
                "| " + " | ".join(_format_cell(row.get(column, "")) for column in columns) + " |"
            )
        if len(result.rows) > _MAX_ROWS:
            lines.append("")
            lines.append(
                f"*({len(result.rows) - _MAX_ROWS} further rows in "
                f"`{result.experiment_id.lower()}.json`)*"
            )
        lines.append("")
    if result.matches_paper is None:
        verdict = (
            "**UNRESOLVED — a confidence interval straddles an acceptance threshold**"
            if result.unresolved
            else "not evaluated"
        )
    elif result.matches_paper:
        verdict = "**measured shape matches the paper's claim**"
    else:
        verdict = "**measured shape does NOT match the paper's claim**"
    lines.append(f"**Verdict.** {verdict}")
    if result.notes:
        lines.append("")
        lines.append(f"**Notes.** {result.notes}")
    lines.append("")
    return "\n".join(lines)


def render_experiments_markdown(results: Sequence[ExperimentResult]) -> str:
    """The full EXPERIMENTS.md content for a collection of results."""
    ordered = sorted(results, key=lambda r: (len(r.experiment_id), r.experiment_id))
    summary_lines = [
        "## Summary",
        "",
        "| experiment | claim | verdict |",
        "|---|---|---|",
    ]
    for result in ordered:
        if result.matches_paper:
            verdict = "matches"
        elif result.matches_paper is not None:
            verdict = "DOES NOT match"
        else:
            verdict = "UNRESOLVED" if result.unresolved else "n/a"
        summary_lines.append(f"| {result.experiment_id} | {result.title} | {verdict} |")
    summary_lines.append("")
    body = "\n".join(markdown_for_experiment(result) for result in ordered)
    return _HEADER + "\n".join(summary_lines) + "\n" + body


def load_results_directory(directory: Union[str, Path]) -> List[ExperimentResult]:
    """Load every ``*.json`` experiment artifact in a directory."""
    directory = Path(directory)
    results = []
    for path in sorted(directory.glob("*.json")):
        results.append(load_json(path))
    return results
