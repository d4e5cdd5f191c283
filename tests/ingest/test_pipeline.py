"""The ingestion pipeline's contracts: determinism, resume, quarantine, dedupe.

The two load-bearing properties (ISSUE 10's acceptance gates):

* two uninterrupted runs over the same sources produce **byte-identical**
  frozen snapshots;
* a run killed at *any* stage boundary and resumed produces the same bytes as
  the uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.errors import IngestError
from repro.ingest import (
    STAGES,
    BundledCorpusSource,
    DirectorySource,
    IngestConfig,
    IngestPipeline,
)

GOOD_DTD = "<!ELEMENT a (b)><!ELEMENT b (#PCDATA)>"
BAD_XSD = "<xs:schema xmlns:xs='http://www.w3.org/2001/XMLSchema'><unclosed>"

CONFIG = IngestConfig()

#: sha256 of ``out.frozen`` for this corpus under ``CONFIG``.  The merge
#: once wrote the corpus in generations of at most three trees (a snapshot
#: write, then a compaction per generation); this digest was taken from that
#: path, so the one-pass merge is held to its bytes.
SNAPSHOT_SHA256 = "b79cb082682d0ad3f1592e6f07b2de0935617097423fb8bf65c5cf3c8008df14"


@pytest.fixture
def corpus_dir(tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "good.dtd").write_text(GOOD_DTD, encoding="utf-8")
    (corpus / "bad.xsd").write_text(BAD_XSD, encoding="utf-8")
    (corpus / "binary.dtd").write_bytes(b"\xff\xfe broken bytes")
    # Same content as good.dtd under a different name: the dedupe stage must
    # drop it as a duplicate.
    (corpus / "copy-of-good.dtd").write_text(GOOD_DTD, encoding="utf-8")
    return corpus


def make_sources(corpus_dir):
    return [BundledCorpusSource(), DirectorySource(corpus_dir, label="web")]


def run_pipeline(run_dir, corpus_dir, **kwargs):
    pipeline = IngestPipeline(run_dir, make_sources(corpus_dir), CONFIG)
    return pipeline, pipeline.run(**kwargs)


class TestFullRun:
    def test_quarantines_with_typed_reasons(self, tmp_path, corpus_dir):
        pipeline, status = run_pipeline(tmp_path / "run", corpus_dir)
        records = {record["document"]: record for record in pipeline.store.quarantined()}
        assert set(records) == {"web/bad.xsd", "web/binary.dtd"}
        assert records["web/bad.xsd"]["stage"] == "parse"
        assert records["web/bad.xsd"]["reason"]["type"] == "SchemaParseError"
        assert "invalid XML" in records["web/bad.xsd"]["reason"]["message"]
        assert records["web/binary.dtd"]["reason"]["type"] == "UnicodeDecodeError"
        assert status["quarantined"] == ["web/bad.xsd", "web/binary.dtd"]

    def test_dedupe_drops_content_duplicates(self, tmp_path, corpus_dir):
        pipeline, _ = run_pipeline(tmp_path / "run", corpus_dir)
        checkpoint = pipeline.store.load_checkpoint("dedupe")
        dropped = {entry["doc_id"]: entry["duplicate_of"] for entry in checkpoint["dropped"]}
        assert dropped == {"web/good.dtd": "web/copy-of-good.dtd"}

    def test_two_runs_are_byte_identical(self, tmp_path, corpus_dir):
        _, first = run_pipeline(tmp_path / "one", corpus_dir)
        _, second = run_pipeline(tmp_path / "two", corpus_dir)
        assert first["snapshot"]["sha256"] == second["snapshot"]["sha256"]
        assert (tmp_path / "one" / "out.frozen").read_bytes() == (
            tmp_path / "two" / "out.frozen"
        ).read_bytes()

    def test_snapshot_is_loadable_and_queryable(self, tmp_path, corpus_dir):
        from repro.service import load_snapshot
        from repro.workload.personal import book_personal_schema

        _, status = run_pipeline(tmp_path / "run", corpus_dir)
        service = load_snapshot(status["snapshot"]["path"])
        result = service.match(book_personal_schema())
        assert result.mappings, "bundled corpus must yield mappings for the book schema"

    def test_snapshot_bytes_are_pinned(self, tmp_path, corpus_dir):
        _, status = run_pipeline(tmp_path / "run", corpus_dir)
        assert status["snapshot"]["sha256"] == SNAPSHOT_SHA256
        assert (
            hashlib.sha256((tmp_path / "run" / "out.frozen").read_bytes()).hexdigest()
            == SNAPSHOT_SHA256
        )

    def test_the_merge_writes_what_write_snapshot_writes(self, tmp_path, corpus_dir):
        # The snapshot is the one a default service over the kept trees
        # writes, so the streaming merge and write_snapshot cannot drift.
        from repro.schema.repository import SchemaRepository
        from repro.service import MatchingService, write_snapshot

        pipeline, _ = run_pipeline(tmp_path / "run", corpus_dir)
        repository = SchemaRepository(name=CONFIG.repository_name)
        for entry in pipeline.store.load_checkpoint("dedupe")["kept"]:
            repository.add_trees(pipeline._load_parsed_trees(entry["file"]))
        service = MatchingService(
            repository,
            element_threshold=CONFIG.element_threshold,
            delta=CONFIG.delta,
            partition_max_fragment_size=CONFIG.partition_max_fragment_size,
        )
        write_snapshot(service, tmp_path / "service.frozen")
        assert (tmp_path / "service.frozen").read_bytes() == pipeline.store.snapshot_path.read_bytes()


class TestResume:
    @pytest.mark.parametrize("stop_after", STAGES[:-1])
    def test_kill_at_any_stage_boundary_resumes_bit_identically(
        self, tmp_path, corpus_dir, stop_after
    ):
        _, reference = run_pipeline(tmp_path / "reference", corpus_dir)
        interrupted, status = run_pipeline(
            tmp_path / "interrupted", corpus_dir, stop_after=stop_after
        )
        assert status["snapshot"] is None
        resumed = IngestPipeline(tmp_path / "interrupted", make_sources(corpus_dir))
        final = resumed.run(resume=True)
        assert final["snapshot"]["sha256"] == reference["snapshot"]["sha256"]

    def test_resume_without_sources_after_fetch_completes(self, tmp_path, corpus_dir):
        _, reference = run_pipeline(tmp_path / "reference", corpus_dir)
        run_pipeline(tmp_path / "run", corpus_dir, stop_after="parse")
        final = IngestPipeline(tmp_path / "run").run(resume=True)
        assert final["snapshot"]["sha256"] == reference["snapshot"]["sha256"]

    def test_resume_mid_fetch_without_sources_is_refused(self, tmp_path, corpus_dir):
        pipeline = IngestPipeline(tmp_path / "run", make_sources(corpus_dir), CONFIG)
        pipeline.run(stop_after="fetch")
        # Wipe the fetch checkpoint's completeness by deleting it entirely:
        # the stage is now unfinished and needs its sources back.
        pipeline.store.checkpoint_path("fetch").unlink()
        with pytest.raises(IngestError, match="no sources"):
            IngestPipeline(tmp_path / "run").run(resume=True)

    def test_a_merge_that_fails_partway_leaves_no_snapshot_and_resumes(
        self, tmp_path, corpus_dir, monkeypatch
    ):
        run_pipeline(tmp_path / "run", corpus_dir, stop_after="dedupe")
        load = IngestPipeline._load_parsed_trees
        loaded = []

        def fail_on_the_third_document(pipeline, parsed_file):
            loaded.append(parsed_file)
            if len(loaded) == 3:
                raise IngestError("disk went away")
            return load(pipeline, parsed_file)

        monkeypatch.setattr(IngestPipeline, "_load_parsed_trees", fail_on_the_third_document)
        pipeline = IngestPipeline(tmp_path / "run")
        with pytest.raises(IngestError, match="disk went away"):
            pipeline.run(resume=True)
        assert len(loaded) == 3
        assert not pipeline.store.snapshot_path.exists()
        checkpoint = pipeline.store.load_checkpoint("merge")
        assert not (checkpoint and checkpoint.get("complete"))

        monkeypatch.undo()
        final = IngestPipeline(tmp_path / "run").run(resume=True)
        assert final["snapshot"]["sha256"] == SNAPSHOT_SHA256

    def test_a_run_from_a_generation_merging_build_resumes(self, tmp_path, corpus_dir):
        # An earlier build recorded its generation size in the manifest,
        # merged in generations under generations/ and checkpointed each one.
        # Its run directory still resumes to the one-pass bytes: the extra
        # config key, the incomplete merge checkpoint and the leftover
        # generation files are all ignored.
        pipeline, _ = run_pipeline(tmp_path / "run", corpus_dir, stop_after="dedupe")
        manifest = pipeline.store.load_manifest()
        manifest["config"]["merge_chunk_trees"] = 3
        pipeline.store.write_manifest(manifest)
        generations = pipeline.store.run_dir / "generations"
        generations.mkdir()
        (generations / "gen-0000.frozen").write_bytes(b"a generation from an earlier build")
        kept = pipeline.store.load_checkpoint("dedupe")["kept"]
        pipeline.store.save_checkpoint(
            "merge",
            {
                "generations": [
                    {
                        "file": "gen-0000.frozen",
                        "documents": [entry["doc_id"] for entry in kept[:2]],
                        "trees": 3,
                    }
                ]
            },
            complete=False,
        )
        final = IngestPipeline(tmp_path / "run").run(resume=True)
        assert final["snapshot"]["sha256"] == SNAPSHOT_SHA256

    def test_resume_with_mismatched_config_is_refused(self, tmp_path, corpus_dir):
        run_pipeline(tmp_path / "run", corpus_dir, stop_after="dedupe")
        different = IngestConfig(delta=0.5)
        with pytest.raises(IngestError, match="config does not match"):
            IngestPipeline(tmp_path / "run", make_sources(corpus_dir), different).run(resume=True)

    def test_resume_with_changed_source_document_is_refused(self, tmp_path, corpus_dir):
        run_pipeline(tmp_path / "run", corpus_dir, stop_after="fetch")
        # The interrupted fetch recorded good.dtd's digest; changing the file
        # must be detected instead of silently mixing two corpus versions.
        (corpus_dir / "good.dtd").write_text("<!ELEMENT z (#PCDATA)>", encoding="utf-8")
        pipeline = IngestPipeline(tmp_path / "run", make_sources(corpus_dir))
        pipeline.store.checkpoint_path("fetch").unlink()
        # Rebuild an in-progress checkpoint naming the old digest.
        with pytest.raises(IngestError):
            checkpoint = {"documents": [{"doc_id": "web/good.dtd", "sha256": "stale"}]}
            pipeline.store.save_checkpoint("fetch", checkpoint, complete=False)
            pipeline.run(resume=True)


class TestRunLifecycle:
    def test_fresh_run_refuses_an_existing_run_dir(self, tmp_path, corpus_dir):
        run_pipeline(tmp_path / "run", corpus_dir, stop_after="fetch")
        with pytest.raises(IngestError, match="already holds"):
            run_pipeline(tmp_path / "run", corpus_dir)

    def test_resume_needs_a_manifest(self, tmp_path):
        with pytest.raises(IngestError, match="no manifest"):
            IngestPipeline(tmp_path / "empty").run(resume=True)

    def test_run_needs_sources(self, tmp_path):
        with pytest.raises(IngestError, match="at least one source"):
            IngestPipeline(tmp_path / "run").run()

    def test_unknown_stop_stage_is_typed(self, tmp_path, corpus_dir):
        pipeline = IngestPipeline(tmp_path / "run", make_sources(corpus_dir), CONFIG)
        with pytest.raises(IngestError, match="unknown stage"):
            pipeline.run(stop_after="polish")

    def test_duplicate_source_labels_are_rejected(self, tmp_path, corpus_dir):
        with pytest.raises(IngestError, match="duplicate source labels"):
            IngestPipeline(
                tmp_path / "run",
                [DirectorySource(corpus_dir, label="web"), DirectorySource(corpus_dir, label="web")],
            )

    def test_status_reports_stage_progress(self, tmp_path, corpus_dir):
        pipeline, _ = run_pipeline(tmp_path / "run", corpus_dir, stop_after="validate")
        status = pipeline.status()
        assert status["stages"]["fetch"]["state"] == "complete"
        assert status["stages"]["validate"]["state"] == "complete"
        assert status["stages"]["merge"]["state"] == "pending"
        assert status["snapshot"] is None

    def test_checkpoints_are_canonical_json(self, tmp_path, corpus_dir):
        pipeline, _ = run_pipeline(tmp_path / "run", corpus_dir)
        for stage in STAGES:
            raw = pipeline.store.checkpoint_path(stage).read_text(encoding="utf-8")
            document = json.loads(raw)
            assert raw == json.dumps(document, indent=2, sort_keys=True) + "\n"
