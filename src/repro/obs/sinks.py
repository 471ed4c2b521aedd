"""Where a finished :class:`~repro.obs.TraceRecorder` export goes.

Each function consumes the JSON-able export dict (see
:meth:`repro.obs.TraceRecorder.export`) — recorders collect, these render:

* :func:`write_jsonl` — one JSON object per line: flattened span records
  (``id``/``parent`` pairs preserve the tree), then counters, then
  histograms; the CLI's ``--trace`` flag writes with it.
  :func:`read_jsonl` loads the lines back for round-trip tests and offline
  analysis.
* :func:`summarize` — the per-span-name aggregation of an export: counts,
  total wall/CPU seconds and self seconds (wall time not covered by child
  spans), counter values, histogram summaries.  The benchmark suite embeds
  it in BENCH.json.
* :func:`render_summary` — the human-readable table of a
  :func:`summarize` result; the CLI's ``--metrics`` flag prints
  ``render_summary(summarize(export))``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

__all__ = [
    "iter_span_records",
    "write_jsonl",
    "read_jsonl",
    "summarize",
    "render_summary",
]


def iter_span_records(export: Dict[str, object]) -> Iterator[Dict[str, object]]:
    """Flatten the export's span forest depth-first into JSONL-shaped records.

    Each record carries a per-export ``id`` and its ``parent`` id (``None``
    for roots), so the nesting is recoverable from the flat stream.
    """
    next_id = 0

    def visit(record: Dict[str, object], parent: Optional[int]) -> Iterator[Dict[str, object]]:
        nonlocal next_id
        span_id = next_id
        next_id += 1
        yield {
            "record": "span",
            "id": span_id,
            "parent": parent,
            "name": record.get("name"),
            "started_at": record.get("started_at"),
            "wall_seconds": record.get("wall_seconds"),
            "cpu_seconds": record.get("cpu_seconds"),
            "attributes": record.get("attributes") or {},
        }
        for child in record.get("children") or []:
            yield from visit(child, span_id)

    for root in export.get("spans") or []:
        yield from visit(root, None)


def write_jsonl(export: Dict[str, object], path: Union[str, Path]) -> Path:
    """Write one export as JSON lines: spans (flattened), counters,
    histograms.  An existing file at ``path`` is replaced."""
    path = Path(path)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf8") as handle:
        header = {"record": "trace", "schema": export.get("schema", 1)}
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        for record in iter_span_records(export):
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        for name in sorted(export.get("counters") or {}):
            record = {"record": "counter", "name": name, "value": export["counters"][name]}
            handle.write(json.dumps(record, sort_keys=True) + "\n")
        for name in sorted(export.get("histograms") or {}):
            record = {"record": "histogram", "name": name}
            record.update(export["histograms"][name])
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return path


def read_jsonl(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Load a JSONL trace back as a list of record dicts (round-trip tests,
    offline analysis)."""
    records = []
    with Path(path).open("r", encoding="utf8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


# --------------------------------------------------------------------------- #
# Aggregation and the human-readable table
# --------------------------------------------------------------------------- #
def summarize(export: Dict[str, object]) -> Dict[str, object]:
    """Aggregate an export per span name: counts, total wall/CPU seconds and
    self seconds, next to the raw counters and histogram summaries.

    A span's self time is its wall time minus the wall time of its direct
    children, clamped at 0 (children that ran concurrently can cover more
    than their parent's wall time)."""
    records = list(iter_span_records(export))
    covered: Dict[object, float] = {}
    for record in records:
        if record["parent"] is not None:
            wall = float(record.get("wall_seconds") or 0.0)
            covered[record["parent"]] = covered.get(record["parent"], 0.0) + wall
    spans: Dict[str, Dict[str, float]] = {}
    for record in records:
        entry = spans.setdefault(
            str(record["name"]),
            {"count": 0, "wall_seconds": 0.0, "cpu_seconds": 0.0, "self_seconds": 0.0},
        )
        wall = float(record.get("wall_seconds") or 0.0)
        entry["count"] += 1
        entry["wall_seconds"] += wall
        entry["cpu_seconds"] += float(record.get("cpu_seconds") or 0.0)
        entry["self_seconds"] += max(0.0, wall - covered.get(record["id"], 0.0))
    for entry in spans.values():
        for key in ("wall_seconds", "cpu_seconds", "self_seconds"):
            entry[key] = round(entry[key], 6)
    histograms = {}
    for name, record in (export.get("histograms") or {}).items():
        count = int(record.get("count", 0))
        histograms[name] = {
            "count": count,
            "mean": round(float(record.get("total", 0.0)) / count, 6) if count else None,
            "min": record.get("min"),
            "max": record.get("max"),
        }
    return {
        "spans": spans,
        "counters": dict(export.get("counters") or {}),
        "histograms": histograms,
    }


def render_summary(summary: Dict[str, object]) -> str:
    """The ``--metrics`` table of a :func:`summarize` result: spans,
    counters, histograms, one block each."""
    lines: List[str] = []

    spans = summary["spans"]
    lines.append(f"{'span':<36} {'count':>7} {'wall_s':>10} {'self_s':>10} {'cpu_s':>10}")
    for name in sorted(spans):
        entry = spans[name]
        lines.append(
            f"{name:<36} {entry['count']:>7d} {entry['wall_seconds']:>10.4f} "
            f"{entry['self_seconds']:>10.4f} {entry['cpu_seconds']:>10.4f}"
        )
    if not spans:
        lines.append("  (no spans recorded)")

    counters = summary["counters"]
    if counters:
        lines.append("")
        lines.append(f"{'counter':<36} {'value':>7}")
        for name in sorted(counters):
            lines.append(f"{name:<36} {counters[name]:>7d}")

    histograms = summary["histograms"]
    if histograms:
        lines.append("")
        lines.append(f"{'histogram':<36} {'count':>7} {'mean':>10} {'min':>10} {'max':>10}")
        for name in sorted(histograms):
            entry = histograms[name]

            def cell(value: object) -> str:
                return f"{value:>10.4g}" if isinstance(value, (int, float)) else f"{'-':>10}"

            lines.append(
                f"{name:<36} {entry['count']:>7d} "
                f"{cell(entry['mean'])} {cell(entry['min'])} {cell(entry['max'])}"
            )
    return "\n".join(lines) + "\n"
