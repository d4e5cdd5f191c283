"""Golden fixture tests: each rule against its positive and negative fixtures."""


def _by_file(report, suffix):
    return [f for f in report.findings if f.path.endswith(suffix)]


def _messages(findings):
    return [f.message for f in findings]


class TestDeterminismRPA001:
    def test_positive_fixture_flags_every_construct(self, run_fixture):
        report = run_fixture("rpa001", rules=("RPA001",))
        bad = _by_file(report, "bad_clock.py")
        messages = "\n".join(_messages(bad))
        assert len(bad) == 7
        assert "`time.time`" in messages
        assert "`time.time_ns`" in messages  # through `import time as t`
        assert "`random.uniform`" in messages
        assert "`shuffle` (from random import shuffle)" in messages
        assert "`random.Random()` without a seed" in messages
        assert "SystemRandom" in messages
        assert "`datetime.now`" in messages

    def test_negative_fixture_and_excluded_owners_are_clean(self, run_fixture):
        report = run_fixture("rpa001", rules=("RPA001",))
        assert _by_file(report, "good_clock.py") == []
        assert _by_file(report, "utils/rng.py") == []
        assert _by_file(report, "resilience/backoff.py") == []


class TestHashOrderRPA002:
    def test_positive_fixture_flags_every_construct(self, run_fixture):
        report = run_fixture("rpa002", rules=("RPA002",))
        bad = _by_file(report, "bad_order.py")
        messages = "\n".join(_messages(bad))
        assert len(bad) == 5
        assert "set comprehension" in messages
        assert "`str.join` over a bare set(...)" in messages
        assert ".keys() view" in messages
        assert "`list` over a bare set comprehension" in messages

    def test_negative_and_out_of_scope_files_are_clean(self, run_fixture):
        report = run_fixture("rpa002", rules=("RPA002",))
        assert _by_file(report, "good_order.py") == []
        assert _by_file(report, "out_of_scope.py") == []


class TestAsyncHygieneRPA004:
    def test_positive_fixture_flags_every_construct(self, run_fixture):
        report = run_fixture("rpa004", rules=("RPA004",))
        bad = _by_file(report, "bad_async.py")
        messages = "\n".join(_messages(bad))
        assert len(bad) == 5
        assert "blocking `time.sleep` inside async def handler" in messages
        assert "blocking `open()` inside async def handler" in messages
        assert "blocking file IO `.read_text()`" in messages
        assert "synchronous `self._lock.acquire()` inside async def guarded" in messages
        assert "held across an await in async def held" in messages

    def test_negative_fixture_is_clean(self, run_fixture):
        report = run_fixture("rpa004", rules=("RPA004",))
        assert _by_file(report, "good_async.py") == []


class TestCounterGlossaryRPA005:
    def test_both_drift_directions_and_non_literal_names(self, run_fixture):
        report = run_fixture(
            "rpa005", rules=("RPA005",), glossary_path="docs_glossary.md"
        )
        messages = "\n".join(_messages(report.findings))
        assert len(report.findings) == 3
        assert "counter `fixture_undocumented` is not documented" in messages
        assert "glossary documents counter `fixture_stale` but nothing increments it" in messages
        assert "not a string literal" in messages
        # names outside the "## Counter glossary" section are not glossary rows
        assert "outside_the_glossary" not in messages

    def test_stale_row_findings_anchor_in_the_glossary_file(self, run_fixture):
        report = run_fixture(
            "rpa005", rules=("RPA005",), glossary_path="docs_glossary.md"
        )
        stale = [f for f in report.findings if "fixture_stale" in f.message]
        assert stale and stale[0].path == "docs_glossary.md"
        assert stale[0].line > 1

    def test_missing_glossary_document_is_a_finding(self, run_fixture):
        report = run_fixture("rpa005", rules=("RPA005",), glossary_path="missing.md")
        (finding,) = report.findings
        assert finding.message == "counter glossary document not found"
        assert finding.path == "missing.md"


class TestWireDriftRPA006:
    def test_leaky_envelope_flags_all_four_drift_modes(self, run_fixture):
        report = run_fixture("rpa006", rules=("RPA006",))
        bad = [f for f in report.findings if "LeakyEnvelope" in f.message]
        messages = "\n".join(_messages(bad))
        assert len(bad) == 4
        assert "LeakyEnvelope.limit is a wire-eligible field but to_wire never" in messages
        assert "references `self.row_count`, which is not a field" in messages
        assert "to_wire emits key 'rows' that from_wire never reads" in messages
        assert "from_wire reads key 'limit' that to_wire never emits" in messages

    def test_clean_and_delegating_envelopes_pass(self, run_fixture):
        report = run_fixture("rpa006", rules=("RPA006",))
        assert not any("CleanEnvelope" in m for m in _messages(report.findings))
        assert not any("DelegatingEnvelope" in m for m in _messages(report.findings))


class TestSuppressionResolution:
    def test_valid_markers_silence_and_record_justifications(self, run_fixture):
        report = run_fixture("suppression", rules=("RPA002",))
        silenced = {
            (finding.line, justification) for finding, justification in report.suppressed
        }
        assert len(report.suppressed) == 2
        justs = "\n".join(j for _, j in silenced)
        assert "order folds into a set-valued digest downstream" in justs
        # standalone block markers concatenate their continuation lines
        assert "standalone block coverage for the construct on the next code line" in justs

    def test_marker_problems_and_unused_markers_are_findings(self, run_fixture):
        report = run_fixture("suppression", rules=("RPA002",))
        messages = _messages(report.findings)
        assert any("unused suppression of RPA002" in m for m in messages)
        assert any("invalid rule ids []" in m for m in messages)
        assert any("invalid rule ids ['NOPE']" in m for m in messages)
        assert any("no justification text" in m for m in messages)
        # the unjustified marker must NOT silence its finding
        assert any("`str.join` over a bare set(...)" in m for m in messages)

    def test_unused_markers_not_reported_when_their_rule_did_not_run(self, run_fixture):
        report = run_fixture("suppression", rules=("RPA001",))
        messages = _messages(report.findings)
        assert not any("unused suppression" in m for m in messages)
        # malformed-marker problems are parse errors and always surface
        assert any("invalid rule ids" in m for m in messages)
