"""Versioned on-disk snapshots of a matching service's repository + derived state.

A snapshot is one JSON document holding everything a serving process needs:

* the repository forest itself (via :mod:`repro.schema.serialization`);
* every built name/trigram index — the unique keys, a per-node name-id array
  and the trigram blocking structures
  (:meth:`~repro.matchers.index.RepositoryNameIndex.from_serialized` restores
  the refs in one pass, without re-folding a single name);
* every built per-tree labeling distance oracle — Euler tour, depth sequence,
  first occurrences and the sparse-table levels, so the O(n log n) doubling
  construction is skipped on load;
* the precomputed repository partition (when the service uses the default
  partition clusterer);
* the service configuration (thresholds, matcher, variant), so
  :func:`load_snapshot` returns a ready :class:`~repro.service.MatchingService`.

Packed integer arrays
---------------------

The derived state is dominated by large flat integer sequences (Euler tours,
sparse-table rows, posting lists).  Parsing them as JSON arrays costs one
Python object per integer; instead they are stored as base64-encoded
little-endian ``int32`` buffers (:func:`_pack_ints`), which the C base64 and
``array`` machinery decode two orders of magnitude faster.  The document
remains a single self-describing JSON file.  On load the buffers are kept as
*live* ``array('i')`` objects wherever the consumer tolerates a sequence
(oracle tours, sparse-table rows): no per-integer Python object is ever
materialized for them.

Version policy
--------------

``format`` identifies the document family; ``version`` is a single integer.
Loaders reject any version they were not written for (derived state is pure
acceleration — a wrong guess would *silently* corrupt match results, so there
is no best-effort path).  Adding optional top-level keys is allowed within a
version; changing the meaning or layout of an existing key — including the
packed-array encoding — requires a bump.  The embedded tree/repository
payloads carry their own independent version
(:data:`repro.schema.serialization._FORMAT_VERSION`).

Not everything is serializable: custom matcher objects, custom clusterers and
reclustering strategies carry code.  Snapshots record what they can (a config
descriptor for the bundled matchers, the preset variant name, the reclustering
strategy *name*) and :func:`load_snapshot` insists the caller supply the
missing objects rather than silently substituting defaults.
"""

from __future__ import annotations

import base64
import json
from array import array
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.clustering.kmeans import Clusterer
from repro.clustering.reclustering import ReclusteringStrategy
from repro.errors import ConfigurationError, ReproError
from repro.labeling.distance import TreeDistanceOracle
from repro.mapping.base import MappingGenerator
from repro.matchers.base import ElementMatcher
from repro.matchers.index import RepositoryNameIndex
from repro.matchers.name import FuzzyNameMatcher, NGramNameMatcher, TokenNameMatcher
from repro.objective.base import ObjectiveFunction
from repro.schema.serialization import repository_from_dict, repository_to_dict
from repro.service.partition import PartitionClusterer, RepositoryPartition
from repro.service.service import MatchingService
from repro.utils.executor import TaskExecutor
from repro.utils.fileio import write_text_atomic

SNAPSHOT_FORMAT = "bellflower-service-snapshot"
SNAPSHOT_VERSION = 1


def _pack_ints(values) -> str:
    """Encode an int sequence as base64 little-endian int32 (see module docs).

    The byte layout is the storage subsystem's shared carrier
    (:func:`repro.storage.format.pack_int32`) — identical to a frozen-snapshot
    segment, base64-armored for JSON.
    """
    from repro.storage.format import pack_int32

    return base64.b64encode(pack_int32(values)).decode("ascii")


def _unpack_ints(text: str) -> array:
    """Decode a packed buffer into a *live* ``array('i')`` (no int objects)."""
    from repro.storage.format import unpack_int32

    return unpack_int32(base64.b64decode(text))


def _pack_oracle(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Pack a :meth:`TreeDistanceOracle.to_payload` dict for the snapshot.

    Sparse-table level 0 is always ``range(size)`` and every deeper level's
    width is ``size - 2**level + 1``, so the levels from 1 up are stored as
    one flat buffer and re-sliced on load.
    """
    return {
        "euler_nodes": _pack_ints(payload["euler_nodes"]),
        "euler_depths": _pack_ints(payload["euler_depths"]),
        "first_occurrence": _pack_ints(payload["first_occurrence"]),
        "rmq": _pack_ints(
            [index for level in payload["rmq_levels"][1:] for index in level]
        ),
    }


def _unpack_oracle(packed: Dict[str, Any]) -> Dict[str, Any]:
    euler_depths = _unpack_ints(packed["euler_depths"])
    size = len(euler_depths)
    # Level 0 of the sparse table is the identity; ``range`` is a live O(1)
    # sequence, so no length-``size`` list is ever built for it.
    levels: List[Any] = [range(size)]
    flat = _unpack_ints(packed["rmq"])
    position = 0
    level = 1
    while (1 << level) <= size:
        width = size - (1 << level) + 1
        levels.append(flat[position : position + width])
        position += width
        level += 1
    return {
        "euler_nodes": _unpack_ints(packed["euler_nodes"]),
        "euler_depths": euler_depths,
        "first_occurrence": _unpack_ints(packed["first_occurrence"]),
        "rmq_levels": levels,
    }


def _pack_partition(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Pack a :meth:`RepositoryPartition.to_payload` dict (flat members + sizes)."""
    return {
        "max_fragment_size": payload["max_fragment_size"],
        "reclustering": payload["reclustering"],
        "fragments": {
            tree_key: {
                "sizes": _pack_ints([len(members) for members in fragments]),
                "members": _pack_ints(
                    [node_id for members in fragments for node_id in members]
                ),
            }
            for tree_key, fragments in payload["fragments"].items()
        },
    }


def _unpack_partition(packed: Dict[str, Any]) -> Dict[str, Any]:
    fragments: Dict[str, List[Any]] = {}
    for tree_key, entry in packed.get("fragments", {}).items():
        sizes = _unpack_ints(entry["sizes"])
        flat = _unpack_ints(entry["members"])
        members: List[Any] = []
        position = 0
        for size in sizes:
            members.append(flat[position : position + size])
            position += size
        fragments[tree_key] = members
    return {
        "max_fragment_size": packed["max_fragment_size"],
        "reclustering": packed.get("reclustering"),
        "fragments": fragments,
    }


def _matcher_config(matcher: ElementMatcher) -> Optional[Dict[str, Any]]:
    """A reconstructible descriptor of a bundled matcher, else ``None``."""
    if type(matcher) is FuzzyNameMatcher:
        return {"type": "fuzzy-name", "case_sensitive": matcher.case_sensitive}
    if type(matcher) is NGramNameMatcher:
        return {
            "type": "ngram-name",
            "size": matcher.size,
            "case_sensitive": matcher.case_sensitive,
        }
    if type(matcher) is TokenNameMatcher and matcher.synonyms is None:
        return {
            "type": "token-name",
            "expand": matcher.expand,
            "coverage_weight": matcher.coverage_weight,
        }
    return None


def _matcher_from_config(config: Optional[Dict[str, Any]]) -> ElementMatcher:
    if config is None:
        raise ReproError(
            "snapshot does not describe its matcher (a custom matcher was used); "
            "pass matcher= to load_snapshot"
        )
    kind = config.get("type")
    if kind == "fuzzy-name":
        return FuzzyNameMatcher(case_sensitive=bool(config.get("case_sensitive", False)))
    if kind == "ngram-name":
        return NGramNameMatcher(
            size=int(config.get("size", 3)),
            case_sensitive=bool(config.get("case_sensitive", False)),
        )
    if kind == "token-name":
        return TokenNameMatcher(
            expand=bool(config.get("expand", True)),
            coverage_weight=float(config.get("coverage_weight", 0.5)),
        )
    raise ReproError(f"snapshot names an unknown matcher type {kind!r}")


def service_to_snapshot_dict(service: MatchingService, build: bool = True) -> Dict[str, Any]:
    """Serialize a service into the snapshot document.

    With ``build`` (the default) all derived state is materialized first, so
    the snapshot is *complete* — a loader never rebuilds anything.  Without
    it, only state that happens to be built is persisted (useful for tests).
    """
    if build:
        service.build_derived_state()
    repository = service.repository
    name_indexes = []
    for index in repository.cached_name_indexes().values():
        blocking = index.blocking_payload()
        entry: Dict[str, Any] = {
            "case_sensitive": index.case_sensitive,
            "keys": list(index.keys),
            "node_name_ids": _pack_ints(index.node_name_ids()),
            "blocking": None,
        }
        if blocking is not None:
            postings = blocking["postings"]
            grams = sorted(postings)
            entry["blocking"] = {
                "gram_counts": _pack_ints(blocking["gram_counts"]),
                "grams": grams,
                "posting_sizes": _pack_ints([len(postings[gram]) for gram in grams]),
                "posting_values": _pack_ints(
                    [name_id for gram in grams for name_id in postings[gram]]
                ),
            }
        name_indexes.append(entry)
    oracle = service.oracle
    oracles = {
        str(tree_id): _pack_oracle(oracle.oracle(tree_id).to_payload())
        for tree_id in oracle.built_tree_ids()
    }
    return {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "repository": repository_to_dict(repository),
        "config": {
            "element_threshold": service.element_threshold,
            "delta": service.delta,
            "variant": service.variant_name,
            "matcher": _matcher_config(service.matcher),
            "use_batch_matching": service.system.use_batch_matching,
            "query_cache_size": service.query_cache_size,
        },
        "name_indexes": name_indexes,
        "oracles": oracles,
        "partition": (
            None
            if service.partition is None
            else _pack_partition(service.partition.to_payload())
        ),
    }


def write_snapshot(service: MatchingService, path: str | Path, build: bool = True) -> Dict[str, Any]:
    """Write a service snapshot to ``path`` and return the document.

    The write is atomic (temp file + rename in the target directory), so a
    crash mid-write can never truncate an existing good snapshot — serving
    processes keep a loadable file at all times.
    """
    payload = service_to_snapshot_dict(service, build=build)
    write_text_atomic(Path(path), json.dumps(payload))
    return payload


def snapshot_to_service(
    payload: Dict[str, Any],
    *,
    matcher: Optional[ElementMatcher] = None,
    objective: Optional[ObjectiveFunction] = None,
    generator: Optional[MappingGenerator] = None,
    clusterer: Optional[Clusterer] = None,
    executor: Optional[TaskExecutor] = None,
    partition_reclustering: Optional[ReclusteringStrategy] = None,
    query_cache_size: Optional[int] = None,
) -> MatchingService:
    """Reconstruct a :class:`MatchingService` from a snapshot document.

    Keyword overrides replace the corresponding snapshot configuration; they
    are *required* where the snapshot records that a non-serializable object
    was in play (custom matcher or clusterer, partition reclustering).
    """
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise ReproError(f"not a service snapshot (format={payload.get('format')!r})")
    if payload.get("version") != SNAPSHOT_VERSION:
        raise ReproError(
            f"unsupported snapshot version {payload.get('version')!r} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    repository = repository_from_dict(payload["repository"])
    config = payload.get("config", {})
    if matcher is None:
        matcher = _matcher_from_config(config.get("matcher"))

    variant = config.get("variant")
    kwargs: Dict[str, Any] = {}
    if clusterer is not None:
        kwargs["clusterer"] = clusterer
    elif variant == PartitionClusterer.name:
        partition_payload = payload.get("partition")
        if partition_payload is not None:
            # The constructor adopts the clusterer's partition, so mutations
            # on the loaded service keep maintaining the loaded fragments.
            kwargs["clusterer"] = PartitionClusterer(
                RepositoryPartition.from_payload(
                    _unpack_partition(partition_payload),
                    reclustering=partition_reclustering,
                )
            )
    elif variant is not None:
        kwargs["variant"] = variant
    else:
        raise ConfigurationError(
            "snapshot was written with a custom clusterer; pass clusterer= to load_snapshot"
        )

    service = MatchingService(
        repository,
        matcher=matcher,
        objective=objective,
        generator=generator,
        element_threshold=float(config.get("element_threshold", 0.6)),
        delta=float(config.get("delta", 0.75)),
        use_batch_matching=config.get("use_batch_matching"),
        executor=executor,
        query_cache_size=(
            int(config.get("query_cache_size", 64))
            if query_cache_size is None
            else query_cache_size
        ),
        **kwargs,
    )
    for entry in payload.get("name_indexes", []):
        index = RepositoryNameIndex.from_serialized(
            repository,
            case_sensitive=bool(entry["case_sensitive"]),
            keys=list(entry["keys"]),
            node_name_ids=_unpack_ints(entry["node_name_ids"]),
        )
        blocking = entry.get("blocking")
        if blocking is not None:
            sizes = _unpack_ints(blocking["posting_sizes"])
            flat = _unpack_ints(blocking["posting_values"])
            postings: Dict[str, List[int]] = {}
            position = 0
            for gram, size in zip(blocking["grams"], sizes):
                postings[gram] = flat[position : position + size]
                position += size
            index.install_blocking(_unpack_ints(blocking["gram_counts"]), postings)
        repository.install_name_index(index)
    for tree_key, oracle_payload in payload.get("oracles", {}).items():
        tree_id = int(tree_key)
        service.oracle.install(
            tree_id,
            TreeDistanceOracle.from_payload(
                repository.tree(tree_id), _unpack_oracle(oracle_payload)
            ),
        )
    return service


def load_snapshot(path: str | Path, **overrides: Any) -> MatchingService:
    """Load a service from a snapshot file — JSON or frozen, same call.

    The carrier is sniffed from the file's magic bytes: frozen snapshots
    (:mod:`repro.storage`) dispatch to the mmap-backed O(header) loader,
    anything else takes the JSON parse path.  The keyword overrides are
    identical either way.
    """
    try:
        with open(path, "rb") as stream:
            prefix = stream.read(8)
    except OSError as exc:
        raise ReproError(f"cannot read snapshot {path}: {exc}") from exc
    from repro.storage.format import is_frozen_prefix

    if is_frozen_prefix(prefix):
        from repro.storage.frozen import load_frozen_service

        return load_frozen_service(path, **overrides)
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ReproError(f"cannot read snapshot {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"snapshot {path} is not valid JSON: {exc}") from exc
    return snapshot_to_service(payload, **overrides)
