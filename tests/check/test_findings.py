"""The report model every analyzer shares (repro.check.findings): findings
sort by ``(path, line, rule)`` and dedupe, and the two renderings the
``repro check`` CLI prints (``--format text`` / ``--format json``)."""

from __future__ import annotations

import json

from repro.check.findings import Finding, Report

LATE = Finding("service/jobs.py", 40, "DET002", "wall clock read")
EARLY = Finding("engine/cache.py", 12, "DET001", "rng built")
SAME_LINE = Finding("engine/cache.py", 12, "CON001", "unguarded write")


def test_finalize_sorts_by_path_line_rule_and_dedupes():
    report = Report(rules=("DET001", "DET002", "CON001"))
    report.extend([LATE, EARLY, LATE, SAME_LINE])
    assert report.finalize() is report
    assert report.findings == [SAME_LINE, EARLY, LATE]
    assert not report.ok


def test_clean_report_renders_the_rule_count():
    report = Report(rules=("DET001", "DET002")).finalize()
    assert report.ok
    assert report.render_text() == "ok: 0 findings (2 rules)"
    assert json.loads(report.to_json()) == {
        "ok": True,
        "count": 0,
        "rules": ["DET001", "DET002"],
        "findings": [],
    }


def test_text_rendering_is_one_line_per_finding_and_a_count():
    report = Report(findings=[LATE, EARLY], rules=("DET001", "DET002")).finalize()
    assert report.render_text().splitlines() == [
        "engine/cache.py:12: DET001 rng built",
        "service/jobs.py:40: DET002 wall clock read",
        "2 finding(s)",
    ]


def test_json_rendering_carries_every_field():
    report = Report(findings=[LATE, EARLY], rules=("DET001", "DET002")).finalize()
    payload = json.loads(report.to_json())
    assert payload["ok"] is False
    assert payload["count"] == 2
    assert payload["rules"] == ["DET001", "DET002"]
    assert payload["findings"] == [
        {"rule": "DET001", "path": "engine/cache.py", "line": 12, "message": "rng built"},
        {"rule": "DET002", "path": "service/jobs.py", "line": 40, "message": "wall clock read"},
    ]
