"""Allowlist policy for the determinism linter.

The allowlist is deliberately *small* and every entry carries its rationale
**in this file** — an entry without a reason does not merge.  Entries are
paths relative to the ``repro`` package root: a trailing ``/`` allowlists a
directory, otherwise exactly one file.  The linter still scans allowlisted
files (other rules apply there unchanged); only the named rule is muted.

Policy, in order of preference when a new finding appears:

1. Fix the code (route randomness through ``RandomTape`` /
   ``counter_uniforms``, clock through an allowlisted layer, register the
   signal in the taxonomy).
2. If the violation is *the point* of the module — it is the sanctioned
   constructor, or the value measured — add an entry here with the reason.
3. Never allowlist to silence a finding you do not understand.
"""

from __future__ import annotations

from typing import Dict, Mapping

__all__ = ["DEFAULT_ALLOWLIST", "is_allowlisted"]

#: ``{rule id: {path or directory/: rationale}}``.
DEFAULT_ALLOWLIST: Dict[str, Dict[str, str]] = {
    "DET001": {
        "graphs/random_graphs.py": (
            "input-instance sampling, intentionally outside the tape "
            "convention; both families construct their generator via "
            "the module's _instance_rng helper, whose docstring carries the "
            "full rationale; the regular-graph pairing's stdlib "
            "random.Random is seeded from an _instance_rng draw"
        ),
        "local/identifiers.py": (
            "identity-assignment schemes are *inputs* to the system under "
            "test, keyed by the caller's explicit seed; they never replay a "
            "node's private tape"
        ),
        "local/ports.py": (
            "port numberings are instance inputs (same convention as "
            "identifiers.py): seeded by the caller, never tape-derived"
        ),
    },
    "DET002": {
        "obs/": (
            "wall-clock readings are what a telemetry layer exists to "
            "record (span start timestamps for cross-process interleaving)"
        ),
        "api/backends.py": (
            "queue-wait accounting across process boundaries needs a clock "
            "both sides share; monotonic clocks do not cross processes"
        ),
        "service/": (
            "job creation timestamps and journal/disk shapes are service "
            "operational metadata, never inputs to an experiment"
        ),
    },
}


def is_allowlisted(rule: str, relpath: str, allowlist: Mapping[str, Mapping[str, str]]) -> bool:
    """Whether ``relpath`` (package-relative, ``/``-separated) is allowlisted
    for ``rule``."""
    entries = allowlist.get(rule)
    if not entries:
        return False
    for entry in entries:
        if entry.endswith("/"):
            if relpath.startswith(entry):
                return True
        elif relpath == entry:
            return True
    return False
