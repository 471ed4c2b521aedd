"""Every determinism-linter allowlist entry still mutes a finding.

Removing one ``(rule, path)`` entry from the allowlist must make the linter
report that rule in that path; an entry whose excused code is gone fails
here and should be deleted from :mod:`repro.check.config`.
"""

from __future__ import annotations

from pathlib import Path

import pytest

import repro
from repro.check.config import DEFAULT_ALLOWLIST, is_allowlisted
from repro.check.lint import lint_tree

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
ENTRIES = [(rule, entry) for rule, entries in DEFAULT_ALLOWLIST.items() for entry in entries]


@pytest.mark.parametrize("rule, entry", ENTRIES, ids=[f"{rule}:{entry}" for rule, entry in ENTRIES])
def test_allowlist_entry_mutes_a_finding(rule, entry):
    without = {
        other: {path: why for path, why in entries.items() if (other, path) != (rule, entry)}
        for other, entries in DEFAULT_ALLOWLIST.items()
    }
    found = lint_tree(PACKAGE_ROOT, select=[rule], allowlist=without)
    muted = [f for f in found if is_allowlisted(rule, f.path, {rule: {entry: ""}})]
    assert muted, f"the {rule} allowlist entry {entry!r} mutes no finding; delete it"
