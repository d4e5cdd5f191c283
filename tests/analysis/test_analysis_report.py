"""Report rendering and the versioned JSON schema round-trip."""

import json

import pytest

from repro.analysis.core import Finding
from repro.analysis.report import REPORT_SCHEMA_VERSION, Report, report_from_json


def _sample_report():
    findings = [
        Finding(
            rule="RPA001",
            path="src/repro/x.py",
            line=10,
            col=5,
            message="wall-clock read `time.time`",
            hint="use time.monotonic",
        ),
        Finding(rule="RPA002", path="src/repro/y.py", line=3, col=1, message="bare set"),
    ]
    suppressed = [
        (
            Finding(rule="RPA004", path="src/repro/z.py", line=7, col=1, message="blocking call"),
            "runs before the loop starts",
        )
    ]
    return Report(
        root="/repo",
        rules=["RPA001", "RPA002", "RPA004"],
        files_checked=42,
        findings=findings,
        suppressed=suppressed,
    )


class TestReport:
    def test_ok_and_exit_code(self):
        dirty = _sample_report()
        assert not dirty.ok and dirty.exit_code() == 1
        clean = Report(root="/repo", rules=["RPA001"], files_checked=1, findings=[])
        assert clean.ok and clean.exit_code() == 0

    def test_counts_by_rule(self):
        assert _sample_report().counts_by_rule() == {"RPA001": 1, "RPA002": 1}

    def test_human_rendering(self):
        text = _sample_report().to_human()
        assert "src/repro/x.py:10:5: RPA001: wall-clock read `time.time`" in text
        assert "hint: use time.monotonic" in text
        assert "1 suppressed finding(s):" in text
        assert "RPA004 allowed — runs before the loop starts" in text
        assert "checked 42 file(s)" in text
        assert "2 finding(s)" in text

    def test_human_rendering_clean(self):
        clean = Report(root="/repo", rules=["RPA001"], files_checked=7, findings=[])
        assert clean.to_human().endswith("checked 7 file(s) under /repo: clean")


class TestJsonSchema:
    def test_round_trip(self):
        original = _sample_report()
        payload = json.loads(original.to_json())
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        assert payload["ok"] is False
        assert payload["counts"] == {"RPA001": 1, "RPA002": 1}
        rebuilt = report_from_json(payload)
        assert rebuilt.root == original.root
        assert rebuilt.rules == original.rules
        assert rebuilt.files_checked == original.files_checked
        assert rebuilt.findings == original.findings
        assert rebuilt.suppressed == original.suppressed

    def test_unknown_schema_version_rejected(self):
        payload = json.loads(_sample_report().to_json())
        payload["schema_version"] = REPORT_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="unsupported report schema version"):
            report_from_json(payload)

    def test_non_object_payload_rejected(self):
        with pytest.raises(ValueError, match="must be an object"):
            report_from_json([1, 2, 3])

    def test_finding_json_round_trip_defaults_hint(self):
        finding = Finding(rule="RPA004", path="a.py", line=1, col=2, message="m")
        payload = finding.to_json()
        del payload["hint"]
        assert Finding.from_json(payload) == finding
