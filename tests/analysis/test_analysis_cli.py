"""CLI behaviour of ``python -m repro.analysis``: exit codes, formats, --out."""

import json

from repro.analysis.__main__ import main
from repro.analysis.report import REPORT_SCHEMA_VERSION


class TestExitCodes:
    def test_findings_exit_nonzero(self, fixtures_dir, capsys):
        code = main(["--root", str(fixtures_dir / "rpa002"), "--rules", "RPA002"])
        out = capsys.readouterr().out
        assert code == 1
        assert "RPA002" in out and "finding(s)" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "ok.py").write_text("x = 1\n", encoding="utf-8")
        code = main(["--root", str(tmp_path), "--rules", "RPA002"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_unknown_rule_id_exits_two(self, fixtures_dir, capsys):
        code = main(["--root", str(fixtures_dir / "rpa002"), "--rules", "RPA999"])
        assert code == 2
        assert "unknown rule id(s) RPA999" in capsys.readouterr().err

    def test_missing_root_exits_two(self, tmp_path, capsys):
        code = main(["--root", str(tmp_path / "nope")])
        assert code == 2
        assert "is not a directory" in capsys.readouterr().err


class TestFormats:
    def test_json_format_is_the_artifact_schema(self, fixtures_dir, capsys):
        code = main(
            ["--root", str(fixtures_dir / "rpa002"), "--rules", "RPA002", "--format", "json"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        assert payload["ok"] is False
        assert payload["counts"]["RPA002"] == 5
        assert all(f["rule"] == "RPA002" for f in payload["findings"])

    def test_out_writes_the_rendered_report(self, fixtures_dir, tmp_path, capsys):
        out_file = tmp_path / "report.json"
        main(
            [
                "--root",
                str(fixtures_dir / "rpa002"),
                "--rules",
                "RPA002",
                "--format",
                "json",
                "--out",
                str(out_file),
            ]
        )
        stdout = capsys.readouterr().out
        assert json.loads(out_file.read_text(encoding="utf-8")) == json.loads(stdout)

    def test_list_rules_names_every_registered_rule(self, capsys):
        code = main(["--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        for rule in ("RPA001", "RPA002", "RPA004", "RPA005", "RPA006"):
            assert rule in out
        assert "scope:" in out
