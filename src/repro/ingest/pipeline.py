"""The staged, resumable corpus-ingestion pipeline.

Five stages turn raw schema documents into one frozen, query-ready snapshot::

    fetch -> parse -> validate -> dedupe -> merge

* **fetch** copies raw bytes from every source into the run directory, so the
  rest of the pipeline (and any resumed run) never touches the sources again;
* **parse** decodes and parses each document with the ``repro.schema``
  parsers, quarantining anything malformed with a typed reason;
* **validate** rebuilds each parsed tree, checks the structural invariants and
  computes its content digest from per-tree schema fingerprints;
* **dedupe** keeps the first document of each content digest (document order
  is the deterministic fetch order, so "first" is well-defined);
* **merge** streams the kept trees, one parsed document at a time, through
  :func:`~repro.storage.builder.write_frozen_forest` into one frozen
  ``repro.storage`` snapshot, so the corpus is never materialized as a forest.

Each stage records progress through :class:`~repro.ingest.checkpoint
.CheckpointStore` after every unit of work.  Because every stage is a
deterministic function of the previous stage's checkpoint, a run killed at any
point and resumed produces a final snapshot byte-identical to an
uninterrupted run — the property ``benchmarks/bench_ingest.py`` gates on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import IngestError, SchemaError, SchemaParseError
from repro.ingest.checkpoint import STAGES, CheckpointStore, encode_doc_id
from repro.ingest.sources import SCHEMA_SUFFIXES, CorpusSource, SourceDocument
from repro.schema.dtd_parser import parse_dtd
from repro.schema.serialization import tree_from_dict, tree_to_dict
from repro.schema.tree import SchemaTree
from repro.schema.validation import validate_tree
from repro.schema.xsd_parser import parse_xsd
from repro.utils.fileio import write_bytes_atomic, write_json_atomic

_MANIFEST_FORMAT = "bellflower-ingest-run"
_MANIFEST_VERSION = 1


@dataclass(frozen=True)
class IngestConfig:
    """Knobs that shape the final snapshot.

    The snapshot loads as a default :class:`~repro.service.MatchingService`
    with this name, thresholds and partition fragment cap; ``max_depth`` caps
    the parsers' nesting.  The config is stamped into the run manifest; a
    resume with a different config is refused because it could not reproduce
    the interrupted run's bytes.  Defaults mirror
    :class:`~repro.service.MatchingService`.
    """

    repository_name: str = "repository"
    element_threshold: float = 0.6
    delta: float = 0.75
    partition_max_fragment_size: int = 20
    max_depth: int = 12

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise IngestError("max_depth must be at least 1")

    def to_dict(self) -> Dict[str, Any]:
        return {
            "repository_name": self.repository_name,
            "element_threshold": self.element_threshold,
            "delta": self.delta,
            "partition_max_fragment_size": self.partition_max_fragment_size,
            "max_depth": self.max_depth,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "IngestConfig":
        try:
            return cls(**{key: payload[key] for key in cls().to_dict()})
        except (KeyError, TypeError) as exc:
            raise IngestError(f"invalid ingest config document: {exc}") from exc


class IngestPipeline:
    """Drives one ingestion run rooted at ``run_dir``.

    ``sources`` are required to start a run and to resume one whose fetch
    stage is incomplete; a run that has finished fetching resumes without
    them (everything later reads from the run directory).
    """

    def __init__(
        self,
        run_dir: str | Path,
        sources: Sequence[CorpusSource] = (),
        config: Optional[IngestConfig] = None,
    ) -> None:
        self.store = CheckpointStore(run_dir)
        self.sources = list(sources)
        self.config = config
        labels = [source.label for source in self.sources]
        if len(set(labels)) != len(labels):
            raise IngestError(f"duplicate source labels: {', '.join(sorted(labels))}")

    # -- run lifecycle ------------------------------------------------------

    def run(self, *, resume: bool = False, stop_after: Optional[str] = None) -> Dict[str, Any]:
        """Execute the pipeline (optionally only through ``stop_after``).

        Returns :meth:`status`.  ``stop_after`` names the last stage to run —
        the hook the kill-and-resume tests and benchmark use to interrupt a
        run at a stage boundary deterministically.
        """
        if stop_after is not None and stop_after not in STAGES:
            raise IngestError(
                f"unknown stage {stop_after!r}; stages are {', '.join(STAGES)}"
            )
        if resume:
            manifest = self.store.load_manifest()
            recorded = IngestConfig.from_dict(manifest["config"])
            if self.config is not None and self.config != recorded:
                raise IngestError(
                    "resume config does not match the run manifest; a different "
                    "config cannot reproduce the interrupted run"
                )
            self.config = recorded
        else:
            if self.store.manifest_path.exists():
                raise IngestError(
                    f"{self.store.run_dir} already holds an ingestion run; "
                    "pass resume=True (CLI: `ingest resume`) to continue it"
                )
            if not self.sources:
                raise IngestError("an ingestion run needs at least one source")
            self.config = self.config or IngestConfig()
            self.store.create_layout()
            self.store.write_manifest(
                {
                    "format": _MANIFEST_FORMAT,
                    "version": _MANIFEST_VERSION,
                    "config": self.config.to_dict(),
                    "sources": [source.label for source in self.sources],
                    "stages": list(STAGES),
                }
            )
        self.store.create_layout()

        fetched = self._run_fetch()
        if stop_after != "fetch":
            parsed = self._run_parse(fetched)
            if stop_after != "parse":
                validated = self._run_validate(parsed)
                if stop_after != "validate":
                    deduped = self._run_dedupe(validated)
                    if stop_after != "dedupe":
                        self._run_merge(deduped)
        return self.status()

    def status(self) -> Dict[str, Any]:
        """A JSON-friendly picture of the run: stage progress and outputs."""
        manifest = self.store.load_manifest()
        stages: Dict[str, Any] = {}
        for stage in STAGES:
            checkpoint = self.store.load_checkpoint(stage)
            if checkpoint is None:
                stages[stage] = {"state": "pending"}
                continue
            entry: Dict[str, Any] = {
                "state": "complete" if checkpoint.get("complete") else "in-progress"
            }
            for key in ("documents", "parsed", "kept", "dropped"):
                if key in checkpoint:
                    entry[key] = len(checkpoint[key])
            if "quarantined" in checkpoint:
                entry["quarantined"] = len(checkpoint["quarantined"])
            if "snapshot_sha256" in checkpoint:
                entry["snapshot_sha256"] = checkpoint["snapshot_sha256"]
            stages[stage] = entry
        snapshot = None
        if self.store.snapshot_path.is_file():
            snapshot = {
                "path": str(self.store.snapshot_path),
                "sha256": hashlib.sha256(self.store.snapshot_path.read_bytes()).hexdigest(),
            }
        return {
            "run_dir": str(self.store.run_dir),
            "config": manifest["config"],
            "sources": manifest.get("sources", []),
            "stages": stages,
            "quarantined": [record["document"] for record in self.store.quarantined()],
            "snapshot": snapshot,
        }

    # -- stage: fetch -------------------------------------------------------

    def _iter_source_documents(self) -> List[SourceDocument]:
        documents: List[SourceDocument] = []
        seen: Dict[str, str] = {}
        for source in self.sources:
            for document in source.documents():
                if document.format not in set(SCHEMA_SUFFIXES.values()):
                    raise IngestError(
                        f"source {source.label!r} produced unknown format "
                        f"{document.format!r} for {document.doc_id}"
                    )
                if document.doc_id in seen:
                    raise IngestError(
                        f"duplicate document id {document.doc_id} "
                        f"(from {seen[document.doc_id]} and {document.origin})"
                    )
                seen[document.doc_id] = document.origin
                documents.append(document)
        return documents

    def _run_fetch(self) -> List[Dict[str, Any]]:
        checkpoint = self.store.load_checkpoint("fetch")
        if checkpoint and checkpoint.get("complete"):
            return checkpoint["documents"]
        done = {
            entry["doc_id"]: entry for entry in (checkpoint or {}).get("documents", [])
        }
        if not self.sources:
            raise IngestError(
                "fetch is incomplete and no sources were supplied; "
                "re-run resume with the original sources"
            )
        records: List[Dict[str, Any]] = []
        for document in self._iter_source_documents():
            file_name = encode_doc_id(document.doc_id)
            target = self.store.fetched_dir / file_name
            digest = hashlib.sha256(document.payload).hexdigest()
            previous = done.get(document.doc_id)
            if previous is None or not target.is_file():
                write_bytes_atomic(target, document.payload)
            elif previous.get("sha256") != digest:
                raise IngestError(
                    f"source document {document.doc_id} changed since the run "
                    "started; a resume cannot reproduce the interrupted run"
                )
            records.append(
                {
                    "doc_id": document.doc_id,
                    "format": document.format,
                    "origin": document.origin,
                    "file": file_name,
                    "sha256": digest,
                }
            )
            if previous is None:
                self.store.save_checkpoint("fetch", {"documents": records}, complete=False)
        self.store.save_checkpoint("fetch", {"documents": records}, complete=True)
        return records

    # -- stage: parse -------------------------------------------------------

    def _run_parse(self, fetched: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        checkpoint = self.store.load_checkpoint("parse")
        if checkpoint and checkpoint.get("complete"):
            return checkpoint["parsed"]
        done = {entry["doc_id"] for entry in (checkpoint or {}).get("parsed", [])}
        quarantined = list((checkpoint or {}).get("quarantined", []))
        quarantined_done = set(quarantined)
        assert self.config is not None
        records: List[Dict[str, Any]] = []
        for entry in fetched:
            doc_id = entry["doc_id"]
            parsed_file = f"{entry['file']}.json"
            parsed_path = self.store.parsed_dir / parsed_file
            if doc_id in quarantined_done:
                continue
            if doc_id in done and parsed_path.is_file():
                previous = next(
                    record
                    for record in (checkpoint or {}).get("parsed", [])
                    if record["doc_id"] == doc_id
                )
                records.append(previous)
                continue
            payload = (self.store.fetched_dir / entry["file"]).read_bytes()
            schema_name = doc_id
            for suffix in SCHEMA_SUFFIXES:
                if schema_name.lower().endswith(suffix):
                    schema_name = schema_name[: -len(suffix)]
                    break
            try:
                text = payload.decode("utf-8")
                if entry["format"] == "dtd":
                    trees = parse_dtd(text, schema_name=schema_name, max_depth=self.config.max_depth)
                else:
                    trees = parse_xsd(text, schema_name=schema_name, max_depth=self.config.max_depth)
            except (UnicodeDecodeError, SchemaParseError) as exc:
                self.store.quarantine(doc_id, entry["origin"], "parse", exc)
                quarantined.append(doc_id)
                quarantined_done.add(doc_id)
                self.store.save_checkpoint(
                    "parse", {"parsed": records, "quarantined": quarantined}, complete=False
                )
                continue
            write_json_atomic(
                parsed_path,
                {"doc_id": doc_id, "trees": [tree_to_dict(tree) for tree in trees]},
            )
            records.append({"doc_id": doc_id, "file": parsed_file, "trees": len(trees)})
            self.store.save_checkpoint(
                "parse", {"parsed": records, "quarantined": quarantined}, complete=False
            )
        self.store.save_checkpoint(
            "parse", {"parsed": records, "quarantined": quarantined}, complete=True
        )
        return records

    def _load_parsed_trees(self, parsed_file: str) -> List[SchemaTree]:
        path = self.store.parsed_dir / parsed_file
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise IngestError(f"cannot load parsed document {path}: {exc}") from exc
        return [tree_from_dict(payload) for payload in document["trees"]]

    # -- stage: validate ----------------------------------------------------

    def _run_validate(self, parsed: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        from repro.service.fingerprint import schema_fingerprint

        checkpoint = self.store.load_checkpoint("validate")
        if checkpoint and checkpoint.get("complete"):
            return checkpoint["documents"]
        previous_records = {
            entry["doc_id"]: entry for entry in (checkpoint or {}).get("documents", [])
        }
        quarantined = list((checkpoint or {}).get("quarantined", []))
        quarantined_done = set(quarantined)
        records: List[Dict[str, Any]] = []
        for entry in parsed:
            doc_id = entry["doc_id"]
            if doc_id in quarantined_done:
                continue
            if doc_id in previous_records:
                records.append(previous_records[doc_id])
                continue
            origin = entry.get("origin", entry["file"])
            try:
                trees = self._load_parsed_trees(entry["file"])
                for tree in trees:
                    validate_tree(tree)
            except SchemaError as exc:
                self.store.quarantine(doc_id, origin, "validate", exc)
                quarantined.append(doc_id)
                quarantined_done.add(doc_id)
                self.store.save_checkpoint(
                    "validate", {"documents": records, "quarantined": quarantined}, complete=False
                )
                continue
            fingerprints = [schema_fingerprint(tree) for tree in trees]
            digest = hashlib.sha256("\n".join(fingerprints).encode("utf-8")).hexdigest()
            records.append(
                {"doc_id": doc_id, "file": entry["file"], "digest": digest, "trees": len(trees)}
            )
            self.store.save_checkpoint(
                "validate", {"documents": records, "quarantined": quarantined}, complete=False
            )
        self.store.save_checkpoint(
            "validate", {"documents": records, "quarantined": quarantined}, complete=True
        )
        return records

    # -- stage: dedupe ------------------------------------------------------

    def _run_dedupe(self, validated: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
        checkpoint = self.store.load_checkpoint("dedupe")
        if checkpoint and checkpoint.get("complete"):
            return checkpoint["kept"]
        # Dedupe is a pure, cheap function of the validate checkpoint, so it
        # has no per-document resume granularity — it writes one complete
        # checkpoint.  First occurrence (in deterministic fetch order) wins.
        first_by_digest: Dict[str, str] = {}
        kept: List[Dict[str, Any]] = []
        dropped: List[Dict[str, Any]] = []
        for entry in validated:
            digest = entry["digest"]
            if digest in first_by_digest:
                dropped.append(
                    {
                        "doc_id": entry["doc_id"],
                        "digest": digest,
                        "duplicate_of": first_by_digest[digest],
                    }
                )
                continue
            first_by_digest[digest] = entry["doc_id"]
            kept.append(entry)
        self.store.save_checkpoint("dedupe", {"kept": kept, "dropped": dropped}, complete=True)
        return kept

    # -- stage: merge -------------------------------------------------------

    def _run_merge(self, kept: List[Dict[str, Any]]) -> Dict[str, Any]:
        from repro.matchers.name import FuzzyNameMatcher
        from repro.service.snapshot import snapshot_config
        from repro.storage.builder import write_frozen_forest

        assert self.config is not None
        checkpoint = self.store.load_checkpoint("merge")
        if checkpoint and checkpoint.get("complete"):
            return checkpoint
        if not kept:
            raise IngestError("no documents survived dedupe; nothing to merge")

        # One pass, one parsed document's trees in memory at a time.  The file
        # is written atomically at the end, so an interrupted merge leaves no
        # snapshot and no complete checkpoint, and a resume redoes the pass.
        # The snapshot loads as a default MatchingService over the kept trees.
        matcher = FuzzyNameMatcher()
        write_frozen_forest(
            self.store.snapshot_path,
            (tree for entry in kept for tree in self._load_parsed_trees(entry["file"])),
            repository_name=self.config.repository_name,
            config=snapshot_config(
                element_threshold=self.config.element_threshold,
                delta=self.config.delta,
                matcher=matcher,
            ),
            max_fragment_size=self.config.partition_max_fragment_size,
            case_sensitive=matcher.case_sensitive,
        )
        payload = {
            "snapshot": self.store.snapshot_path.name,
            "snapshot_sha256": hashlib.sha256(self.store.snapshot_path.read_bytes()).hexdigest(),
        }
        self.store.save_checkpoint("merge", payload, complete=True)
        return payload
