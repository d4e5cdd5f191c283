"""Tests for the command-line interface."""

import asyncio
import io
import json

import pytest

from repro.api.envelope import MatchResponse
from repro.api.server import MatcherServer
from repro.cli import main, serve_loop
from repro.schema.builder import TreeBuilder
from repro.schema.serialization import save_repository
from repro.service import MatchingService
from repro.workload.corpus import bundled_corpus_documents


@pytest.fixture
def schema_directory(tmp_path):
    """Write the bundled corpus documents out as real .dtd/.xsd files."""
    for name, (format_name, text) in bundled_corpus_documents().items():
        (tmp_path / f"{name}.{format_name}").write_text(text, encoding="utf-8")
    return tmp_path


@pytest.fixture
def repository_file(tmp_path, synthetic_repository):
    path = tmp_path / "repository.json"
    save_repository(synthetic_repository, path)
    return path


class TestGenerate:
    def test_generate_writes_repository_json(self, tmp_path, capsys):
        out = tmp_path / "repo.json"
        exit_code = main(["generate", "--nodes", "300", "--min-tree-size", "10", "--max-tree-size", "40", "--out", str(out)])
        assert exit_code == 0
        payload = json.loads(out.read_text())
        assert payload["trees"]
        assert "wrote" in capsys.readouterr().out


class TestMatch:
    def test_match_against_schema_directory(self, schema_directory, capsys):
        exit_code = main(
            [
                "match",
                "--schema-dir",
                str(schema_directory),
                "--personal",
                '{"book": ["title", "author"]}',
                "--variant",
                "tree",
                "--delta",
                "0.6",
                "--top",
                "3",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "mapping elements" in output
        assert "Δ=" in output
        assert "book ->" in output

    def test_match_against_repository_file(self, repository_file, capsys):
        exit_code = main(
            [
                "match",
                "--repository",
                str(repository_file),
                "--personal",
                '{"name": ["address", "email"]}',
                "--variant",
                "medium",
            ]
        )
        assert exit_code == 0
        assert "useful clusters" in capsys.readouterr().out

    def test_the_printer_needs_no_candidate_table(self, synthetic_repository, capsys):
        """A compact cached answer prints exactly like the result it was copied from."""
        from repro.cli import _print_result

        service = MatchingService(synthetic_repository, element_threshold=0.5)
        personal = TreeBuilder.from_nested({"name": ["address", "email"]})
        result = service.match(personal, delta=0.6)
        outputs = []
        for answer in (result, result.compact()):
            _print_result(synthetic_repository, personal, answer, 3, 0.6, "partition")
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert f"mapping elements: {result.candidates.total()};" in outputs[0]

    def test_missing_repository_arguments_is_an_error(self, capsys):
        exit_code = main(["match", "--personal", '{"a": []}'])
        assert exit_code == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_personal_json_is_an_error(self, repository_file, capsys):
        exit_code = main(
            ["match", "--repository", str(repository_file), "--personal", "not-json"]
        )
        assert exit_code == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_empty_schema_directory_is_an_error(self, tmp_path, capsys):
        exit_code = main(
            ["match", "--schema-dir", str(tmp_path), "--personal", '{"a": ["b"]}']
        )
        assert exit_code == 2
        assert "no .xsd or .dtd" in capsys.readouterr().err


class TestExperimentCommand:
    def test_runs_figure4_at_quick_scale(self, capsys):
        exit_code = main(["experiment", "figure4", "--scale", "quick"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Figure 4" in output

    def test_unknown_experiment_is_an_error(self, capsys):
        exit_code = main(["experiment", "table99"])
        assert exit_code == 2
        assert "unknown experiment" in capsys.readouterr().err


#: The resilience flags a single snapshot rejects (the plan file need not exist:
#: the check runs before anything is read), and the error they get.
SHARD_ONLY_FLAGS = pytest.mark.parametrize(
    "flag",
    [["--retries", "2"], ["--hedge-ms", "50"], ["--fault-plan", "plan.json"]],
    ids=["retries", "hedge-ms", "fault-plan"],
)
SHARD_ONLY_ERROR = "--retries, --hedge-ms and --fault-plan require --shards"


class TestSnapshotQueryCommands:
    @pytest.fixture
    def snapshot_path(self, tmp_path, repository_file, capsys):
        path = tmp_path / "repo.snapshot.frozen"
        # The tree variant gives every query useful clusters.
        assert main(
            ["snapshot", "--repository", str(repository_file), "--variant", "tree", "--out", str(path)]
        ) == 0
        capsys.readouterr()
        return path

    def query(self, snapshot_path, *extra):
        return main(
            [
                "query",
                "--snapshot",
                str(snapshot_path),
                "--personal",
                '{"person": ["name", "email"]}',
                "--top-k",
                "3",
                *extra,
            ]
        )

    def test_inspect_prints_the_header_the_snapshot_command_wrote(
        self, tmp_path, repository_file, capsys
    ):
        path = tmp_path / "repo.snapshot.frozen"
        assert main(["snapshot", "--repository", str(repository_file), "--out", str(path)]) == 0
        written = capsys.readouterr().out
        digest = written.rsplit("digest ", 1)[1].rstrip(")\n")
        assert main(["snapshot", "inspect", "--snapshot", str(path)]) == 0
        inspected = capsys.readouterr().out
        assert inspected.startswith(f"frozen snapshot {path}")
        assert f"digest {digest}" in inspected
        assert "variant='partition'" in inspected
        assert "oracle/tour_offsets" in inspected and "index0/key_blob" in inspected

    def test_snapshot_then_top_k_query(self, snapshot_path, capsys):
        assert self.query(snapshot_path) == 0
        output = capsys.readouterr().out
        assert "useful clusters" in output
        assert "#1 " in output

    @SHARD_ONLY_FLAGS
    def test_shard_failover_flags_without_shards_are_an_error(self, snapshot_path, flag, capsys):
        assert self.query(snapshot_path, *flag) == 2
        assert SHARD_ONLY_ERROR in capsys.readouterr().err

    @SHARD_ONLY_FLAGS
    def test_serve_rejects_shard_failover_flags_without_shards(
        self, snapshot_path, flag, capsys, monkeypatch
    ):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{MATCH_LINE}\n"))
        assert main(["serve", "--snapshot", str(snapshot_path), *flag]) == 2
        captured = capsys.readouterr()
        assert SHARD_ONLY_ERROR in captured.err
        assert captured.out == ""


class TestShardFaultPlans:
    """``--fault-plan`` drives the shard fan-out's injector from the CLI."""

    PERSONAL = {"person": ["name", "email"]}

    @pytest.fixture
    def manifest(self, tmp_path, repository_file, capsys):
        out_dir = tmp_path / "shards"
        assert main(
            [
                "shard", "split",
                "--repository", str(repository_file),
                "--shards", "3",
                "--max-fragment-size", "200",
                "--out-dir", str(out_dir),
            ]
        ) == 0
        capsys.readouterr()
        return str(out_dir / "manifest.json")

    def write_plan(self, tmp_path, spec):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"seed": 7, "specs": [spec]}), encoding="utf-8")
        return str(path)

    def query(self, manifest, *extra):
        return main(
            [
                "query", "--shards", manifest,
                "--personal", json.dumps(self.PERSONAL),
                "--top-k", "3",
                *extra,
            ]
        )

    def test_a_delay_plan_keeps_the_ranking(self, manifest, tmp_path, capsys):
        assert self.query(manifest) == 0
        expected = capsys.readouterr().out
        assert "#1 " in expected
        plan = self.write_plan(tmp_path, {"key": "shard-0", "kind": "delay", "delay_ms": 5})
        assert self.query(manifest, "--fault-plan", plan) == 0
        assert capsys.readouterr().out == expected

    def test_serve_answers_an_injected_error_and_keeps_serving(
        self, manifest, tmp_path, capsys, monkeypatch
    ):
        # Every shard's first call fails and --retries 1 allows no second
        # attempt, so the first request has no surviving shard; the plan's
        # call counters let the second through, so the loop must still be up
        # to answer it.
        plan = self.write_plan(
            tmp_path, {"key": "*", "kind": "error", "calls": [0], "message": "first only"}
        )
        request = json.dumps(
            {"v": 1, "kind": "match", "schema": self.PERSONAL, "options": {"top_k": 3}}
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{request}\n{request}\n"))
        assert main(
            ["serve", "--shards", manifest, "--retries", "1", "--fault-plan", plan]
        ) == 0
        ready, failed, answered = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert ready["kind"] == "ready"
        assert failed["kind"] == "error"
        assert "all 3 shards failed" in failed["error"]
        # Exhausted retries keep the injected cause next to the skip reason.
        for shard_id in range(3):
            assert (
                f"shard {shard_id}: retries-exhausted "
                f"(InjectedFaultError: first only (key=shard-{shard_id}))"
            ) in failed["error"]
        assert answered["kind"] == "match_response"
        assert answered["mapping_count"] >= 1
        assert not answered["degraded"]


class TestRemovedPoolFlags:
    """The thread/process pool options are gone from every command that had them."""

    @pytest.mark.parametrize(
        "flag", [["--workers", "2"], ["--executor", "thread"]], ids=["workers", "executor"]
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["query", "--snapshot", "snap.frozen", "--personal", "{}"],
            ["serve", "--snapshot", "snap.frozen"],
            ["trace", "replay", "--trace", "trace.json", "--snapshot", "snap.frozen"],
        ],
        ids=["query", "serve", "trace-replay"],
    )
    def test_is_rejected(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, *flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


#: A valid v1 query; each transport must still answer it after a bad line.
MATCH_LINE = '{"v": 1, "kind": "match", "schema": {"person": ["name", "email"]}}'

#: (request line, error fragment): lines a v1 server answers with exactly one
#: error envelope, without the exception class under "type".
BAD_LINES = [
    pytest.param("not json at all", "Expecting value", id="invalid-json"),
    pytest.param("[1, 2]", "must be a JSON object", id="array"),
    pytest.param('"hello"', "must be a JSON object", id="string"),
    pytest.param("42", "must be a JSON object", id="number"),
    pytest.param("null", "must be a JSON object", id="null"),
    pytest.param('{"kind": "stats"}', "unsupported protocol version None", id="no-version"),
    pytest.param(
        '{"personal": {"person": ["name", "email"]}, "top": 1}',
        "unsupported protocol version None",
        id="legacy-dict",
    ),
    pytest.param(
        '{"v": 1, "kind": "frobnicate"}', "unknown request kind 'frobnicate'", id="unknown-kind"
    ),
    pytest.param(
        '{"v": 1, "kind": "match", "schema": {"person": ["name"]}, "options": {"limit": -1}}',
        "limit must be a non-negative integer",
        id="negative-limit",
    ),
]


def _stdin_transcript(service, lines):
    """Every line the stdin serve loop writes for ``lines``, parsed."""
    out = io.StringIO()
    assert serve_loop(service, lines, out) == 0
    return [json.loads(line) for line in out.getvalue().splitlines()]


def _tcp_transcript(service, lines):
    """Every line a ``MatcherServer`` writes for ``lines`` sent on one connection."""

    async def exchange():
        server = MatcherServer(service, port=0)
        await server.start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write("".join(line + "\n" for line in lines).encode())
            writer.write_eof()
            output = await asyncio.wait_for(reader.read(), timeout=60)
            writer.close()
            await writer.wait_closed()
        finally:
            await server.stop()
        return output

    return [json.loads(line) for line in asyncio.run(exchange()).decode().splitlines()]


def _serve(service, lines):
    """Run the serve loop over literal request lines; return the responses after its greeting."""
    ready, *responses = _stdin_transcript(service, lines)
    assert ready["kind"] == "ready"
    return responses


class TestServeLoop:
    @pytest.fixture
    def service(self, synthetic_repository):
        return MatchingService(synthetic_repository, element_threshold=0.5)

    def test_valid_query_answers_with_mappings(self, service):
        (response,) = _serve(service, [MATCH_LINE])
        assert response["kind"] == "match_response"
        assert response["mapping_count"] >= 0

    @pytest.mark.parametrize("line, message", BAD_LINES)
    def test_a_bad_line_gets_one_error_envelope_on_both_transports(self, service, line, message):
        for transcript in (_stdin_transcript, _tcp_transcript):
            ready, error, answer = transcript(service, [line, MATCH_LINE])
            assert ready["kind"] == "ready"
            assert error["v"] == 1 and error["kind"] == "error", transcript.__name__
            assert message in error["error"]
            assert "type" not in error
            assert answer["kind"] == "match_response"  # the transport survived

    def test_a_raising_backend_gets_a_typed_error_envelope_on_both_transports(
        self, service, monkeypatch
    ):
        original = MatchingService.match
        calls = {"count": 0}

        def flaky_match(self, request, **kwargs):
            calls["count"] += 1
            if calls["count"] % 2 == 1:
                raise RuntimeError("simulated internal failure")
            return original(self, request, **kwargs)

        monkeypatch.setattr(MatchingService, "match", flaky_match)
        for transcript in (_stdin_transcript, _tcp_transcript):
            ready, error, answer = transcript(service, [MATCH_LINE, MATCH_LINE])
            assert ready["kind"] == "ready"
            assert error == {
                "v": 1,
                "kind": "error",
                "error": "simulated internal failure",
                "warnings": [],
                "type": "RuntimeError",
            }
            assert answer["kind"] == "match_response"

    def test_the_stdin_greeting_is_the_tcp_ready_envelope(
        self, service, tmp_path, monkeypatch, capsys
    ):
        from repro.service import load_snapshot, write_snapshot

        snapshot_path = tmp_path / "serve.snapshot.frozen"
        write_snapshot(service, snapshot_path)
        monkeypatch.setattr("sys.stdin", io.StringIO(""))
        assert main(["serve", "--snapshot", str(snapshot_path)]) == 0
        (stdin_ready,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        (tcp_ready,) = _tcp_transcript(load_snapshot(snapshot_path), [])
        assert stdin_ready == tcp_ready
        assert stdin_ready["ready"] is True and tcp_ready["ready"] is True

    def test_blank_lines_are_skipped(self, service):
        responses = _serve(service, ["", "   ", '{"v": 1, "kind": "stats"}'])
        assert len(responses) == 1

    def test_batch_request_answers_every_query(self, service):
        page = {"limit": 2}
        batch = {
            "v": 1,
            "kind": "batch",
            "requests": [
                {"v": 1, "kind": "match", "schema": {"person": ["name", "email"]}, "options": page},
                {"v": 1, "kind": "match", "schema": {"book": ["title"]}, "options": page},
            ],
        }
        (response,) = _serve(service, [json.dumps(batch)])
        assert response["kind"] == "batch_response"
        assert response["queries"] == 2
        assert len(response["results"]) == 2
        for entry in response["results"]:
            assert "mapping_count" in entry
            assert len(entry["mappings"]) <= 2

    def test_empty_or_non_list_batch_is_an_error(self, service):
        responses = _serve(
            service,
            [
                '{"v": 1, "kind": "batch", "requests": []}',
                '{"v": 1, "kind": "batch", "requests": {"a": []}}',
            ],
        )
        for response in responses:
            assert response["kind"] == "error"
            assert "non-empty 'requests' array" in response["error"]

    def test_mutations_and_top_k_through_the_loop(self, service):
        responses = _serve(
            service,
            [
                json.dumps(
                    {
                        "v": 1,
                        "kind": "mutation",
                        "action": "add",
                        "schema": {"zqxroot": ["zqxchild"]},
                        "name": "served-tree",
                    }
                ),
                json.dumps(
                    {
                        "v": 1,
                        "kind": "match",
                        "schema": {"zqxroot": ["zqxchild"]},
                        "options": {"top_k": 1},
                    }
                ),
                # An invalid id: an error envelope, not a crash.
                json.dumps({"v": 1, "kind": "mutation", "action": "remove", "tree_id": 10**9}),
                '{"v": 1, "kind": "stats"}',
            ],
        )
        assert responses[0]["ok"] is True
        assert responses[1]["mapping_count"] >= 1
        assert len(responses[1]["mappings"]) <= 1
        assert responses[2]["kind"] == "error"
        assert responses[3]["stats"]["trees_added"] == 1

    def test_stats_report_cache_shape_without_an_executor(self, service):
        (response,) = _serve(service, ['{"v": 1, "kind": "stats"}'])
        stats = response["stats"]
        assert "executor" not in stats
        assert stats["query_cache_capacity"] == 64
        assert "repository_version" in stats


class TestShardCommands:
    @pytest.fixture
    def shard_dir(self, tmp_path, repository_file):
        out_dir = tmp_path / "shards"
        exit_code = main(
            [
                "shard", "split",
                "--repository", str(repository_file),
                "--shards", "3",
                "--router", "size-balanced",
                "--out-dir", str(out_dir),
            ]
        )
        assert exit_code == 0
        return out_dir

    def test_split_writes_manifest_and_snapshots(self, shard_dir):
        assert (shard_dir / "manifest.json").exists()
        for shard_id in range(3):
            assert (shard_dir / f"shard-{shard_id}.snapshot.frozen").exists()

    def test_status_reports_the_set(self, shard_dir, capsys):
        assert main(["shard", "status", "--manifest", str(shard_dir / "manifest.json")]) == 0
        output = capsys.readouterr().out
        assert "3 shards" in output
        assert "size-balanced" in output

    def test_status_on_malformed_manifest_is_a_clean_error(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text("{broken")
        assert main(["shard", "status", "--manifest", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_query_against_shards_matches_snapshot_query(
        self, shard_dir, tmp_path, repository_file, capsys
    ):
        snapshot_path = tmp_path / "whole.snapshot.frozen"
        assert main(["snapshot", "--repository", str(repository_file), "--out", str(snapshot_path)]) == 0
        capsys.readouterr()
        personal = '{"person": ["name", "email"]}'
        assert main(["query", "--snapshot", str(snapshot_path), "--personal", personal, "--delta", "0.5"]) == 0
        unsharded_output = capsys.readouterr().out
        assert (
            main(
                [
                    "query",
                    "--shards", str(shard_dir / "manifest.json"),
                    "--personal", personal,
                    "--delta", "0.5",
                ]
            )
            == 0
        )
        sharded_output = capsys.readouterr().out
        # Identical rankings ⇒ identical printed mapping lines (the headers
        # name the same sizes/cluster counts too, by the equivalence).
        assert sharded_output.splitlines()[1:] == unsharded_output.splitlines()[1:]

        def elements(output):
            return output.split("mapping elements: ")[1].split(";")[0]

        assert elements(sharded_output) == elements(unsharded_output) != "0"

    def test_batch_query_prints_one_json_line_per_query(self, shard_dir, tmp_path, capsys):
        batch_file = tmp_path / "batch.jsonl"
        batch_file.write_text(
            '{"person": ["name", "email"]}\n\n{"person": ["name", "email"]}\n'
        )
        exit_code = main(
            [
                "query",
                "--shards", str(shard_dir / "manifest.json"),
                "--batch", str(batch_file),
                "--delta", "0.5",
                "--cache-size", "8",
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.splitlines()]
        assert len(lines) == 2
        assert lines[0] == lines[1]
        assert "1 duplicates" in captured.err

    def test_batch_query_lines_are_v1_match_responses_paged_by_top(
        self, shard_dir, tmp_path, capsys
    ):
        batch_file = tmp_path / "batch.jsonl"
        batch_file.write_text('{"person": ["name", "email"]}\n{"book": ["title"]}\n')
        exit_code = main(
            [
                "query",
                "--shards", str(shard_dir / "manifest.json"),
                "--batch", str(batch_file),
                "--delta", "0.5",
                "--top", "1",
            ]
        )
        assert exit_code == 0
        responses = [
            MatchResponse.from_wire(json.loads(line))
            for line in capsys.readouterr().out.splitlines()
        ]
        assert len(responses) == 2
        assert responses[0].mapping_count > 1
        for response in responses:
            assert len(response.mappings) == min(1, response.mapping_count)

    def test_batch_query_rejects_negative_top(self, shard_dir, tmp_path, capsys):
        batch_file = tmp_path / "batch.jsonl"
        batch_file.write_text('{"person": ["name"]}\n')
        exit_code = main(
            [
                "query",
                "--shards", str(shard_dir / "manifest.json"),
                "--batch", str(batch_file),
                "--top", "-1",
            ]
        )
        assert exit_code == 2
        assert "top must be non-negative" in capsys.readouterr().err

    def test_query_requires_exactly_one_source_and_one_input(self, shard_dir, tmp_path, capsys):
        manifest = str(shard_dir / "manifest.json")
        assert main(["query", "--personal", '{"a": []}']) == 2
        assert "exactly one of --snapshot or --shards" in capsys.readouterr().err
        assert main(["query", "--shards", manifest]) == 2
        assert "exactly one of --personal or --batch" in capsys.readouterr().err

    def test_rebalance_preserves_cli_query_output(self, shard_dir, capsys):
        manifest = str(shard_dir / "manifest.json")
        personal = '{"person": ["name", "email"]}'
        assert main(["query", "--shards", manifest, "--personal", personal, "--delta", "0.5"]) == 0
        before = capsys.readouterr().out
        assert main(["shard", "rebalance", "--manifest", manifest, "--shards", "2", "--router", "round-robin"]) == 0
        capsys.readouterr()
        assert main(["query", "--shards", manifest, "--personal", personal, "--delta", "0.5"]) == 0
        after = capsys.readouterr().out
        assert before.splitlines()[1:] == after.splitlines()[1:]

    def test_serve_loop_over_a_sharded_service(self, shard_dir):
        from repro.shard import load_shard_set

        service = load_shard_set(shard_dir / "manifest.json")
        query = {"v": 1, "kind": "match", "schema": {"person": ["name"]}, "options": {"delta": 0.5}}
        responses = _serve(
            service,
            [
                json.dumps({"v": 1, "kind": "batch", "requests": [query, query]}),
                json.dumps(
                    {
                        "v": 1,
                        "kind": "mutation",
                        "action": "add",
                        "schema": {"zqxroot": ["zqxchild"]},
                        "name": "served-tree",
                    }
                ),
                json.dumps(
                    {
                        "v": 1,
                        "kind": "match",
                        "schema": {"zqxroot": ["zqxchild"]},
                        "options": {"top_k": 1},
                    }
                ),
                json.dumps({"v": 1, "kind": "mutation", "action": "remove", "tree_id": 10**9}),
                '{"v": 1, "kind": "stats"}',
            ],
        )
        assert responses[0]["queries"] == 2
        assert responses[1]["ok"] is True
        assert responses[2]["mapping_count"] >= 1
        assert responses[3]["kind"] == "error"
        stats = responses[4]["stats"]
        assert stats["shards"] == 3
        assert len(stats["per_shard"]) == 3
        assert stats["trees_added"] == 1


class TestIngestCommands:
    @pytest.fixture
    def corpus_dir(self, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "good.dtd").write_text("<!ELEMENT a (b)><!ELEMENT b (#PCDATA)>")
        (corpus / "bad.xsd").write_text(
            "<xs:schema xmlns:xs='http://www.w3.org/2001/XMLSchema'><unclosed>"
        )
        return corpus

    def test_run_status_resume_roundtrip(self, tmp_path, corpus_dir, capsys):
        run_dir = str(tmp_path / "run")
        assert main(
            ["ingest", "run", "--run-dir", run_dir, "--bundled",
             "--source-dir", str(corpus_dir), "--stop-after", "dedupe"]
        ) == 0
        out = capsys.readouterr().out
        assert "merge     pending" in out
        assert "bad.xsd" in out

        assert main(["ingest", "status", "--run-dir", run_dir]) == 0
        assert "snapshot: not yet written" in capsys.readouterr().out

        assert main(
            ["ingest", "resume", "--run-dir", run_dir, "--bundled",
             "--source-dir", str(corpus_dir)]
        ) == 0
        out = capsys.readouterr().out
        assert "merge     complete" in out
        assert "out.frozen" in out

    def test_run_twice_is_a_clean_error(self, tmp_path, corpus_dir, capsys):
        run_dir = str(tmp_path / "run")
        args = ["ingest", "run", "--run-dir", run_dir, "--source-dir", str(corpus_dir)]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 2
        assert "error:" in capsys.readouterr().err

    def test_status_on_a_non_run_directory_is_a_clean_error(self, tmp_path, capsys):
        assert main(["ingest", "status", "--run-dir", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_the_removed_merge_generation_flag_is_rejected(self, tmp_path, capsys):
        # The merge is one pass, so there are no merge generations to size.
        with pytest.raises(SystemExit) as exit_info:
            main(["ingest", "run", "--run-dir", str(tmp_path / "run"), "--bundled",
                  "--chunk-trees", "3"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --chunk-trees" in capsys.readouterr().err


class TestTraceCommands:
    def test_synth_then_replay_against_ingested_snapshot(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert main(["ingest", "run", "--run-dir", run_dir, "--bundled"]) == 0
        trace_path = str(tmp_path / "trace.json")
        assert main(
            ["trace", "synth", "--out", trace_path, "--length", "12", "--seed", "7"]
        ) == 0
        capsys.readouterr()
        snapshot = str(tmp_path / "run" / "out.frozen")
        assert main(["trace", "replay", "--trace", trace_path, "--snapshot", snapshot]) == 0
        batched = capsys.readouterr().out
        assert main(
            ["trace", "replay", "--trace", trace_path, "--snapshot", snapshot, "--single"]
        ) == 0
        single = capsys.readouterr().out
        digest = [line for line in batched.splitlines() if "ranking digest" in line]
        assert digest and digest == [
            line for line in single.splitlines() if "ranking digest" in line
        ]

    def test_replay_json_report(self, tmp_path, capsys):
        run_dir = str(tmp_path / "run")
        assert main(["ingest", "run", "--run-dir", run_dir, "--bundled"]) == 0
        trace_path = str(tmp_path / "trace.json")
        assert main(["trace", "synth", "--out", trace_path, "--length", "6", "--seed", "3"]) == 0
        capsys.readouterr()
        assert main(
            ["trace", "replay", "--trace", trace_path,
             "--snapshot", str(tmp_path / "run" / "out.frozen"), "--json"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["queries"] == 6
        assert len(report["query_digests"]) == 6

    def test_replay_missing_trace_is_a_clean_error(self, tmp_path, capsys):
        assert main(
            ["trace", "replay", "--trace", str(tmp_path / "nope.json"),
             "--snapshot", str(tmp_path / "nope.frozen")]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_synth_rejects_bad_option_lists(self, tmp_path, capsys):
        assert main(
            ["trace", "synth", "--out", str(tmp_path / "t.json"), "--deltas", "abc"]
        ) == 2
        assert "must be numbers" in capsys.readouterr().err
