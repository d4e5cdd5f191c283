"""Shard-set manifests: one file tying shard snapshots + router config together.

A *shard set* on disk is ``N`` ordinary (frozen) service snapshot files (one
per shard, written by :func:`repro.service.snapshot.write_snapshot`) plus one
**manifest** JSON document that makes them a unit:

* the tree **assignment** (merged tree id → shard id) — the source of truth
  for the merged coordinate space; shard snapshots alone cannot recover it;
* the **router** descriptor (policy name + parameters), so live additions and
  rebalances reproduce the placement policy the set was built with;
* a **global version**, bumped on every rewrite (split, rebalance), so
  caches and clients can detect that the set changed even when sizes did not;
* per-shard paths and size digests, validated against the loaded snapshots —
  a manifest pointing at the wrong snapshot fails loudly instead of serving
  a silently mis-merged ranking.

Shard snapshot paths are stored relative to the manifest's directory, so a
shard set is a relocatable directory.  All validation failures raise
:class:`~repro.errors.ShardManifestError` (malformed documents) or
:class:`~repro.errors.ShardError` (structural mismatches) — typed errors the
CLI maps to clean messages and non-zero exits.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError, ShardError, ShardManifestError
from repro.schema.repository import SchemaRepository
from repro.service.snapshot import load_snapshot, write_snapshot
from repro.shard.router import ShardRouter, make_router
from repro.resilience.fanout import ResiliencePolicy
from repro.shard.service import ShardedMatchingService, copy_tree
from repro.utils.fileio import write_json_atomic

MANIFEST_FORMAT = "bellflower-shard-manifest"
MANIFEST_VERSION = 1
DEFAULT_MANIFEST_NAME = "manifest.json"


def write_shard_set(
    service: ShardedMatchingService,
    directory: str | Path,
    *,
    manifest_name: str = DEFAULT_MANIFEST_NAME,
    global_version: Optional[int] = None,
    frozen: bool = True,
) -> Dict[str, Any]:
    """Persist a sharded service: one snapshot per shard plus the manifest.

    ``global_version`` defaults to the service's current version; rebalance
    passes the old version + 1 so clients observe the rewrite.  Every shard
    is a frozen snapshot, so :func:`load_shard_set` opens each one in
    O(header) time; ``frozen`` only accepts ``True``, the one carrier there
    is.  Returns the manifest document.  Writes the shard snapshots first and
    the manifest last (itself atomically, temp file + rename like the
    snapshots), so a crash at any point never leaves a manifest naming
    missing files and never truncates an existing good manifest.
    """
    if frozen is not True:
        raise ConfigurationError(
            "shard snapshots are always frozen files; write_shard_set(frozen=False) "
            "has no other carrier to write"
        )
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    shards_entry: List[Dict[str, Any]] = []
    for shard_id, shard in enumerate(service.shards):
        snapshot_name = f"shard-{shard_id}.snapshot.frozen"
        header = write_snapshot(shard, target / snapshot_name)
        shards_entry.append(
            {
                "path": snapshot_name,
                "trees": shard.repository.tree_count,
                "nodes": shard.repository.node_count,
                "digest": str(header["repository"]["digest"]),
            }
        )
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "global_version": service.global_version if global_version is None else global_version,
        "shard_count": service.shard_count,
        "router": {"policy": service.router.name, "params": service.router.config()},
        "assignment": service.assignment,
        "shards": shards_entry,
    }
    write_json_atomic(target / manifest_name, manifest)
    return manifest


def load_manifest(path: str | Path) -> Dict[str, Any]:
    """Read and structurally validate a manifest document (not the snapshots)."""
    manifest_path = Path(path)
    try:
        payload = json.loads(manifest_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ShardManifestError(f"cannot read shard manifest {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ShardManifestError(f"shard manifest {path} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != MANIFEST_FORMAT:
        raise ShardManifestError(
            f"{path} is not a shard manifest "
            f"(format={payload.get('format')!r} if it is JSON at all)"
            if isinstance(payload, dict)
            else f"{path} is not a shard manifest (top level is {type(payload).__name__})"
        )
    if payload.get("version") != MANIFEST_VERSION:
        raise ShardManifestError(
            f"unsupported shard manifest version {payload.get('version')!r} "
            f"(this build reads version {MANIFEST_VERSION})"
        )
    shards = payload.get("shards")
    assignment = payload.get("assignment")
    if not isinstance(shards, list) or not shards:
        raise ShardManifestError(f"shard manifest {path} lists no shards")
    if not isinstance(assignment, list) or not all(
        isinstance(shard_id, int) for shard_id in assignment
    ):
        raise ShardManifestError(f"shard manifest {path} has a malformed tree assignment")
    if int(payload.get("shard_count", -1)) != len(shards):
        raise ShardManifestError(
            f"shard manifest {path} declares shard_count={payload.get('shard_count')!r} "
            f"but lists {len(shards)} shards"
        )
    for entry in shards:
        if not isinstance(entry, dict) or not isinstance(entry.get("path"), str):
            raise ShardManifestError(f"shard manifest {path} has a malformed shard entry")
    counts = [0] * len(shards)
    for tree_id, shard_id in enumerate(assignment):
        if not 0 <= shard_id < len(shards):
            raise ShardManifestError(
                f"shard manifest {path} assigns tree {tree_id} to unknown shard {shard_id}"
            )
        counts[shard_id] += 1
    for shard_id, entry in enumerate(shards):
        declared = entry.get("trees")
        if declared is not None and int(declared) != counts[shard_id]:
            raise ShardManifestError(
                f"shard manifest {path} declares {declared} trees for shard {shard_id} "
                f"but the assignment routes {counts[shard_id]} there"
            )
    return payload


def manifest_router(payload: Dict[str, Any]) -> ShardRouter:
    """Instantiate the router a manifest records."""
    descriptor = payload.get("router") or {}
    if not isinstance(descriptor, dict) or not isinstance(descriptor.get("policy"), str):
        raise ShardManifestError("shard manifest has a malformed router descriptor")
    params = descriptor.get("params") or {}
    if not isinstance(params, dict):
        raise ShardManifestError("shard manifest router parameters must be an object")
    return make_router(descriptor["policy"], params)


def load_shard_set(
    manifest_path: str | Path,
    *,
    query_cache_size: Optional[int] = None,
    resilience: Optional[ResiliencePolicy] = None,
    **snapshot_overrides: Any,
) -> ShardedMatchingService:
    """Load a sharded service from a manifest written by :func:`write_shard_set`.

    ``query_cache_size`` overrides the capacity of the set's result cache,
    which the shard snapshots record (shards inside a set never use a cache
    of their own); ``resilience`` enables the retry/hedge/failover
    fan-out (see :class:`~repro.shard.service.ShardedMatchingService`); other
    keyword overrides are forwarded to every
    :func:`~repro.service.snapshot.load_snapshot` call (matcher, objective,
    …).  Loaded shard sizes are validated against the manifest digests.
    """
    manifest_file = Path(manifest_path)
    payload = load_manifest(manifest_file)
    router = manifest_router(payload)
    base = manifest_file.parent
    shards = []
    for shard_id, entry in enumerate(payload["shards"]):
        snapshot_path = base / entry["path"]
        shard = load_snapshot(
            snapshot_path, query_cache_size=query_cache_size, **snapshot_overrides
        )
        # Counts cannot tell two shards of a balanced set apart, so a manifest
        # whose paths were swapped would pass them and mis-merge every
        # ranking.  The digest folds every tree's schema fingerprint in order;
        # the writer records it in the header, so checking it reads no tree.
        for field, actual in (
            ("trees", shard.repository.tree_count),
            ("nodes", shard.repository.node_count),
            ("digest", shard.repository._snapshot.header["repository"]["digest"]),
        ):
            declared = entry.get(field)
            if declared is not None and (
                str(declared) != str(actual) if field == "digest" else int(declared) != actual
            ):
                raise ShardError(
                    f"shard {shard_id} snapshot {snapshot_path} has {field}={actual} "
                    f"but the manifest declares {declared}"
                )
        shards.append(shard)
    return ShardedMatchingService(
        shards,
        payload["assignment"],
        router=router,
        query_cache_size=(
            shards[0].query_cache_size if query_cache_size is None else query_cache_size
        ),
        global_version=int(payload.get("global_version", 1)),
        resilience=resilience,
    )


def merged_repository(service: ShardedMatchingService, name: str = "repository") -> SchemaRepository:
    """Reassemble the merged (unsharded) repository from a sharded service.

    Trees are copied in merged id order, so the result is indistinguishable
    from the repository the shard set was originally split from — the basis
    for rebalancing and for equivalence tests.
    """
    repository = SchemaRepository(name=name)
    for tree_id in range(service.tree_count):
        repository.add_tree(copy_tree(service.tree(tree_id)))
    return repository


def rebalance_shard_set(
    manifest_path: str | Path,
    *,
    shard_count: Optional[int] = None,
    router: Optional[ShardRouter] = None,
    out_directory: Optional[str | Path] = None,
    manifest_name: str = DEFAULT_MANIFEST_NAME,
) -> Dict[str, Any]:
    """Re-split an existing shard set with a new shard count and/or router.

    Loads the set, reassembles the merged repository, splits it again (same
    matching configuration — it is carried by the shard snapshots) and writes
    the new set to ``out_directory`` (default: in place, next to the old
    manifest, overwriting it) with ``global_version`` bumped past the old
    one.  Query results are preserved exactly: the merged repository is
    identical, only its distribution over shards changes.

    Stale snapshot files are left behind when the new set has fewer shards
    than the old one had; they are unreferenced by the new manifest and
    harmless.  Returns the new manifest document.
    """
    manifest_file = Path(manifest_path)
    service = load_shard_set(manifest_file)
    new_router = router or service.router
    new_count = service.shard_count if shard_count is None else shard_count
    reference = service.shards[0]
    rebalanced = ShardedMatchingService.from_repository(
        merged_repository(service),
        new_count,
        router=new_router,
        matcher=reference.matcher,
        element_threshold=reference.element_threshold,
        delta=reference.delta,
        use_batch_matching=reference.system.use_batch_matching,
        query_cache_size=reference.query_cache_size,
        partition_max_fragment_size=(
            reference.partition.max_fragment_size
            if reference.partition is not None
            else 20
        ),
    )
    target = manifest_file.parent if out_directory is None else Path(out_directory)
    return write_shard_set(
        rebalanced,
        target,
        manifest_name=manifest_name,
        global_version=service.global_version + 1,
    )
