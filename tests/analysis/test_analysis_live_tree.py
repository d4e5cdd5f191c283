"""Meta-test: the shipped tree passes its own invariant battery.

This is the test that gives the analysis suite teeth — a change that
introduces a wall-clock read on a deterministic path, a hash-ordered wire
field, or an undocumented counter fails here even if no behavioural test
happens to exercise the broken path.
"""

from repro.analysis.project import run_analysis
from repro.analysis.rules import rules_by_id


class TestLiveTree:
    def test_live_tree_is_clean(self, repo_root):
        report = run_analysis(repo_root)
        rendered = report.to_human()
        assert report.findings == [], f"live tree has findings:\n{rendered}"
        assert report.ok and report.exit_code() == 0
        assert report.files_checked > 100  # the scan actually covered the tree

    def test_live_suppressions_are_few_and_justified(self, repo_root):
        # Every in-tree suppression is a documented design exception; this
        # count only moves in a PR that argues for the new exception.
        report = run_analysis(repo_root)
        assert len(report.suppressed) == 1
        for finding, justification in report.suppressed:
            assert justification.strip(), f"{finding.location()} has no rationale"

    def test_battery_registers_all_five_rules(self):
        assert sorted(rules_by_id()) == [
            "RPA001",
            "RPA002",
            "RPA004",
            "RPA005",
            "RPA006",
        ]
