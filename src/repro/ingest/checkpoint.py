"""Atomic stage checkpoints and the quarantine for the ingestion pipeline.

Every pipeline stage persists its progress as one JSON document under
``<run>/checkpoints/<stage>.json``, rewritten atomically (temp file +
``os.replace``) after each unit of work.  A killed run therefore leaves each
checkpoint either in its previous state or in the next one — never truncated —
and the pipeline resumes by replaying only the units a checkpoint does not yet
record.  Checkpoints carry no timestamps or host state: two runs over the same
sources produce byte-identical checkpoint files, which is what makes the
snapshot byte-identity gate in ``benchmarks/bench_ingest.py`` enforceable.

Malformed documents never abort a run.  They land in ``<run>/quarantine/`` as
``<encoded-doc-id>.reason.json`` records with a typed reason::

    {"document": ..., "origin": ..., "stage": ...,
     "reason": {"type": "SchemaParseError", "message": ...}}

``type`` is the exception class name — the parsers guarantee a closed set
(:class:`~repro.errors.SchemaParseError` for anything unparseable,
:class:`~repro.errors.SchemaError` for structurally invalid trees) so
downstream tooling can triage quarantines without string-matching messages.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import IngestError
from repro.utils.fileio import write_json_atomic

#: Pipeline stages in execution order.  The list is part of the manifest so a
#: resumed run can detect a stage-set mismatch between code versions.
STAGES = ("fetch", "parse", "validate", "dedupe", "merge")

_CHECKPOINT_FORMAT = "bellflower-ingest-checkpoint"
_CHECKPOINT_VERSION = 1

_UNSAFE_RE = re.compile(r"[^A-Za-z0-9._-]+")


def encode_doc_id(doc_id: str) -> str:
    """A filesystem-safe, collision-free file stem for a document id.

    Document ids contain slashes (``<source>/<relative-path>``); the stem
    keeps a sanitized, truncated tail for human browsability and prefixes a
    content digest of the full id so distinct ids can never collide after
    sanitization.
    """
    digest = hashlib.sha256(doc_id.encode("utf-8")).hexdigest()[:12]
    tail = _UNSAFE_RE.sub("-", doc_id)[-80:].strip("-")
    return f"{digest}-{tail}" if tail else digest


class CheckpointStore:
    """Owns the on-disk layout of one ingestion run directory."""

    def __init__(self, run_dir: str | Path) -> None:
        self.run_dir = Path(run_dir)
        self.fetched_dir = self.run_dir / "fetched"
        self.parsed_dir = self.run_dir / "parsed"
        self.quarantine_dir = self.run_dir / "quarantine"
        self.checkpoints_dir = self.run_dir / "checkpoints"
        self.manifest_path = self.run_dir / "manifest.json"
        self.snapshot_path = self.run_dir / "out.frozen"

    def create_layout(self) -> None:
        for directory in (
            self.run_dir,
            self.fetched_dir,
            self.parsed_dir,
            self.quarantine_dir,
            self.checkpoints_dir,
        ):
            directory.mkdir(parents=True, exist_ok=True)

    # -- manifest -----------------------------------------------------------

    def write_manifest(self, manifest: Dict[str, Any]) -> None:
        write_json_atomic(self.manifest_path, manifest)

    def load_manifest(self) -> Dict[str, Any]:
        if not self.manifest_path.is_file():
            raise IngestError(
                f"{self.run_dir} is not an ingestion run directory (no manifest.json)"
            )
        try:
            manifest = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise IngestError(f"cannot load run manifest {self.manifest_path}: {exc}") from exc
        if not isinstance(manifest, dict) or "config" not in manifest:
            raise IngestError(f"run manifest {self.manifest_path} is not a manifest document")
        return manifest

    # -- stage checkpoints --------------------------------------------------

    def checkpoint_path(self, stage: str) -> Path:
        if stage not in STAGES:
            raise IngestError(f"unknown ingestion stage {stage!r}; stages are {', '.join(STAGES)}")
        return self.checkpoints_dir / f"{stage}.json"

    def save_checkpoint(self, stage: str, payload: Dict[str, Any], *, complete: bool) -> None:
        document = {
            "format": _CHECKPOINT_FORMAT,
            "version": _CHECKPOINT_VERSION,
            "stage": stage,
            "complete": complete,
        }
        document.update(payload)
        write_json_atomic(self.checkpoint_path(stage), document)

    def load_checkpoint(self, stage: str) -> Optional[Dict[str, Any]]:
        """The checkpoint for ``stage``, or None if the stage never started.

        A checkpoint that cannot be decoded is treated as absent rather than
        fatal: atomic writes make a truncated file impossible through the
        pipeline itself, so an undecodable file means outside interference and
        the safe response is to redo the stage from its (intact) predecessor.
        """
        path = self.checkpoint_path(stage)
        if not path.is_file():
            return None
        try:
            document = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        if not isinstance(document, dict) or document.get("stage") != stage:
            return None
        if document.get("format") != _CHECKPOINT_FORMAT or document.get("version") != _CHECKPOINT_VERSION:
            return None
        return document

    # -- quarantine ---------------------------------------------------------

    def quarantine(self, doc_id: str, origin: str, stage: str, error: BaseException) -> Dict[str, Any]:
        """Record a typed quarantine reason for ``doc_id`` and return it."""
        record = {
            "document": doc_id,
            "origin": origin,
            "stage": stage,
            "reason": {"type": type(error).__name__, "message": str(error)},
        }
        write_json_atomic(self.quarantine_dir / f"{encode_doc_id(doc_id)}.reason.json", record)
        return record

    def quarantined(self) -> List[Dict[str, Any]]:
        """All quarantine records, ordered by document id."""
        records = []
        for path in sorted(self.quarantine_dir.glob("*.reason.json")):
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError):  # pragma: no cover - outside interference
                continue
            if isinstance(record, dict):
                records.append(record)
        records.sort(key=lambda record: str(record.get("document", "")))
        return records
