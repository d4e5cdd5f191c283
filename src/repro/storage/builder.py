"""Streaming builders for frozen snapshots.

Three entry points, all writing through :class:`_FrozenWriter`:

* :func:`freeze_service` — persist a live service (the frozen sibling of
  :func:`repro.service.snapshot.write_snapshot`);
* :func:`freeze_snapshot_file` — convert a JSON snapshot file, streaming one
  tree at a time (the JSON document is parsed once, but trees, oracles and
  fragments are decoded, folded into the writer's flat arrays and dropped
  individually — no :class:`~repro.schema.SchemaRepository` and no second copy
  of the forest ever exists in memory);
* :func:`compact_frozen` — merge mutations (added / removed trees) into a new
  frozen generation, copying the surviving trees' oracle and partition
  segments slice-for-slice out of the source mapping without decoding them.

The writer accumulates plain ``array('i')`` / ``bytearray`` buffers — ints,
never per-node Python objects — so freezing a million-node repository costs a
few flat integer arrays, not a materialized object forest.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.errors import ClusteringError, ReproError
from repro.labeling.distance import TreeDistanceOracle
from repro.matchers.string_metrics import _ngrams
from repro.schema.repository import SchemaRepository
from repro.schema.serialization import _FORMAT_VERSION, tree_from_dict
from repro.schema.tree import SchemaTree
from repro.service.fingerprint import schema_fingerprint
from repro.service.partition import RepositoryPartition
from repro.service.snapshot import (
    SNAPSHOT_FORMAT,
    SNAPSHOT_VERSION,
    _unpack_ints,
    _unpack_oracle,
    _unpack_partition,
)
from repro.storage.format import SegmentWriter, is_frozen_file, open_frozen

#: Trigram size used for index posting segments; must match
#: :attr:`repro.matchers.index.RepositoryNameIndex.gram_size`.
_GRAM_SIZE = 3


class _FrozenWriter:
    """Accumulates a repository, its derived state and its indexes as flat
    arrays, then assembles the segment image (see the catalog in
    ``docs/ARCHITECTURE.md``).

    ``add_tree`` is strictly streaming: it folds one tree's structure into the
    growing arrays and keeps no reference to the tree.  Oracle payloads and
    fragment lists are optional per tree — when omitted they are built from
    the tree itself, so every frozen file is *complete* (the frozen loader
    never rebuilds derived state).
    """

    def __init__(self, repository_name: str) -> None:
        self.repository_name = repository_name
        self._config: Dict[str, Any] = {}
        self._partition_meta: Optional[Dict[str, Any]] = None
        # forest
        self._tree_offsets = array("i")
        self._tree_sizes = array("i")
        self._tree_name_offsets = array("i", [0])
        self._tree_name_blob = bytearray()
        self._parents = array("i")
        self._name_refs = array("i")
        self._kinds = bytearray()
        self._datatypes = bytearray()
        self._kind_codes: Dict[str, int] = {}
        self._datatype_codes: Dict[str, int] = {}
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._properties: Dict[str, Dict[str, Any]] = {}
        # oracle
        self._tour_offsets = array("i", [0])
        self._euler_nodes = array("i")
        self._euler_depths = array("i")
        self._first_occurrence = array("i")
        self._rmq_offsets = array("i", [0])
        self._rmq_values = array("i")
        # partition
        self._frag_offsets = array("i", [0])
        self._member_offsets = array("i", [0])
        self._members = array("i")
        # indexes
        self._indexes: List[Dict[str, Any]] = []
        # bookkeeping
        self._total_nodes = 0
        self._largest_tree = 0
        self._smallest_tree = 0
        self._digest = hashlib.sha256()

    # -- configuration --------------------------------------------------------

    def set_config(self, config: Dict[str, Any]) -> None:
        self._config = dict(config)

    def set_partition(self, max_fragment_size: int, reclustering: Optional[str]) -> None:
        self._partition_meta = {
            "max_fragment_size": int(max_fragment_size),
            "reclustering": reclustering,
        }

    # -- forest streaming -----------------------------------------------------

    def add_tree(
        self,
        tree: SchemaTree,
        oracle_payload: Optional[Dict[str, Any]] = None,
        fragments: Optional[Sequence[Sequence[int]]] = None,
    ) -> int:
        """Fold one tree into the image; returns its tree id in the frozen file.

        ``oracle_payload`` is a :meth:`TreeDistanceOracle.to_payload`-shaped
        dict, with either ``rmq_levels`` (list of level rows) or ``rmq_flat``
        (levels from 1 up pre-flattened, the on-disk shape).  ``fragments`` is
        the tree's fragment list; both are computed from the tree when absent
        (fragments only when a partition was declared via
        :meth:`set_partition`).
        """
        tree_id = len(self._tree_sizes)
        size = tree.node_count
        self._tree_offsets.append(self._total_nodes)
        self._tree_sizes.append(size)
        encoded = tree.name.encode("utf-8")
        self._tree_name_blob.extend(encoded)
        self._tree_name_offsets.append(len(self._tree_name_blob))

        tree_properties: Dict[str, Any] = {}
        for node_id in tree.node_ids():
            node = tree.node(node_id)
            parent = tree.parent_id(node_id)
            self._parents.append(-1 if parent is None else parent)
            name_id = self._name_ids.get(node.name)
            if name_id is None:
                name_id = self._name_ids[node.name] = len(self._names)
                self._names.append(node.name)
            self._name_refs.append(name_id)
            self._kinds.append(
                self._kind_codes.setdefault(node.kind.value, len(self._kind_codes))
            )
            self._datatypes.append(
                self._datatype_codes.setdefault(
                    node.datatype.value, len(self._datatype_codes)
                )
            )
            if node.properties:
                tree_properties[str(node_id)] = node.properties
        if tree_properties:
            self._properties[str(tree_id)] = tree_properties

        if oracle_payload is None:
            oracle_payload = TreeDistanceOracle(tree).to_payload()
        self._euler_nodes.extend(oracle_payload["euler_nodes"])
        self._euler_depths.extend(oracle_payload["euler_depths"])
        self._first_occurrence.extend(oracle_payload["first_occurrence"])
        self._tour_offsets.append(len(self._euler_nodes))
        flat = oracle_payload.get("rmq_flat")
        if flat is None:
            for level in oracle_payload["rmq_levels"][1:]:
                self._rmq_values.extend(level)
        else:
            self._rmq_values.extend(flat)
        self._rmq_offsets.append(len(self._rmq_values))

        if self._partition_meta is not None:
            if fragments is None:
                fragments = _fragment_single_tree(
                    tree, self._partition_meta["max_fragment_size"]
                )
            for members in fragments:
                self._members.extend(members)
                self._member_offsets.append(len(self._members))
            self._frag_offsets.append(len(self._member_offsets) - 1)

        # Same fold as shard/manifest._shard_digest, so a frozen shard file
        # self-certifies against the manifest without materializing a tree.
        self._digest.update(schema_fingerprint(tree).encode("ascii"))
        self._total_nodes += size
        self._largest_tree = max(self._largest_tree, size)
        self._smallest_tree = size if tree_id == 0 else min(self._smallest_tree, size)
        return tree_id

    # -- indexes --------------------------------------------------------------

    def add_index(
        self,
        case_sensitive: bool,
        keys: Sequence[str],
        node_name_ids: Sequence[int],
        gram_counts: Optional[Sequence[int]] = None,
        postings: Optional[Dict[str, Iterable[int]]] = None,
    ) -> None:
        """Add one name index (keys in name-id order, one name id per node in
        global-id order).  Posting lists / gram counts are recomputed from the
        keys when not supplied."""
        if len(node_name_ids) != self._total_nodes:
            raise ReproError(
                f"name index covers {len(node_name_ids)} nodes but the frozen forest "
                f"holds {self._total_nodes}"
            )
        key_offsets = array("i", [0])
        key_blob = bytearray()
        key_lengths = array("i")
        max_key_length = 0
        for key in keys:
            key_blob.extend(key.encode("utf-8"))
            key_offsets.append(len(key_blob))
            key_lengths.append(len(key))
            if len(key) > max_key_length:
                max_key_length = len(key)

        # Ref CSR: counting sort over the per-node name ids keeps each name's
        # reference list in ascending global-id order, the order the in-memory
        # index produces.
        counts = array("i", bytes(4 * len(keys)))
        for name_id in node_name_ids:
            counts[name_id] += 1
        ref_offsets = array("i", [0])
        for count in counts:
            ref_offsets.append(ref_offsets[-1] + count)
        cursor = array("i", ref_offsets[:-1])
        ref_globals = array("i", bytes(4 * len(node_name_ids)))
        for global_id, name_id in enumerate(node_name_ids):
            ref_globals[cursor[name_id]] = global_id
            cursor[name_id] += 1

        if postings is None or gram_counts is None:
            gram_count_list = array("i")
            posting_map: Dict[str, List[int]] = {}
            for name_id, key in enumerate(keys):
                grams = _ngrams(key, _GRAM_SIZE)
                gram_count_list.append(len(grams))
                for gram in grams:
                    posting_map.setdefault(gram, []).append(name_id)
            gram_counts = gram_count_list
            postings = posting_map

        grams = sorted(postings)
        gram_offsets = array("i", [0])
        gram_blob = bytearray()
        posting_offsets = array("i", [0])
        posting_values = array("i")
        for gram in grams:
            gram_blob.extend(gram.encode("utf-8"))
            gram_offsets.append(len(gram_blob))
            posting_values.extend(postings[gram])
            posting_offsets.append(len(posting_values))

        self._indexes.append(
            {
                "meta": {
                    "case_sensitive": bool(case_sensitive),
                    "name_count": len(keys),
                    "gram_count": len(grams),
                    "max_key_length": max_key_length,
                },
                "key_offsets": key_offsets,
                "key_blob": bytes(key_blob),
                "key_lengths": key_lengths,
                "node_name_ids": array("i", node_name_ids),
                "ref_offsets": ref_offsets,
                "ref_globals": ref_globals,
                "gram_counts": array("i", gram_counts),
                "gram_offsets": gram_offsets,
                "gram_blob": bytes(gram_blob),
                "posting_offsets": posting_offsets,
                "posting_values": posting_values,
            }
        )

    def add_index_from_forest(self, case_sensitive: bool) -> None:
        """Synthesize an index by re-folding the already-streamed forest.

        Key numbering is first-occurrence order over nodes in global-id order
        — exactly :class:`~repro.matchers.index.RepositoryNameIndex`'s
        construction order, so a loader sees the same name ids either way.
        """
        folded: Dict[str, int] = {}
        keys: List[str] = []
        node_name_ids = array("i")
        names = self._names
        for name_ref in self._name_refs:
            name = names[name_ref]
            key = name if case_sensitive else name.lower()
            name_id = folded.get(key)
            if name_id is None:
                name_id = folded[key] = len(keys)
                keys.append(key)
            node_name_ids.append(name_id)
        self.add_index(case_sensitive, keys, node_name_ids)

    # -- assembly -------------------------------------------------------------

    def write(self, path: str | Path) -> Dict[str, Any]:
        """Assemble the header + segment image and atomically write it."""
        name_offsets = array("i", [0])
        name_blob = bytearray()
        for name in self._names:
            name_blob.extend(name.encode("utf-8"))
            name_offsets.append(len(name_blob))

        writer = SegmentWriter()
        writer.add_int32("forest/tree_offsets", self._tree_offsets)
        writer.add_int32("forest/tree_sizes", self._tree_sizes)
        writer.add_int32("forest/tree_name_offsets", self._tree_name_offsets)
        writer.add_bytes("forest/tree_name_blob", bytes(self._tree_name_blob))
        writer.add_int32("forest/parents", self._parents)
        writer.add_int32("forest/name_refs", self._name_refs)
        writer.add_int8("forest/kinds", self._kinds)
        writer.add_int8("forest/datatypes", self._datatypes)
        writer.add_bytes(
            "forest/properties",
            json.dumps(self._properties, separators=(",", ":")).encode("utf-8")
            if self._properties
            else b"",
        )
        writer.add_int32("names/offsets", name_offsets)
        writer.add_bytes("names/blob", bytes(name_blob))
        writer.add_int32("oracle/tour_offsets", self._tour_offsets)
        writer.add_int32("oracle/euler_nodes", self._euler_nodes)
        writer.add_int32("oracle/euler_depths", self._euler_depths)
        writer.add_int32("oracle/first_occurrence", self._first_occurrence)
        writer.add_int32("oracle/rmq_offsets", self._rmq_offsets)
        writer.add_int32("oracle/rmq_values", self._rmq_values)
        if self._partition_meta is not None:
            writer.add_int32("partition/fragment_offsets", self._frag_offsets)
            writer.add_int32("partition/member_offsets", self._member_offsets)
            writer.add_int32("partition/members", self._members)
        index_metas: List[Dict[str, Any]] = []
        for position, entry in enumerate(self._indexes):
            prefix = f"index{position}"
            index_metas.append(entry["meta"])
            writer.add_int32(f"{prefix}/key_offsets", entry["key_offsets"])
            writer.add_bytes(f"{prefix}/key_blob", entry["key_blob"])
            writer.add_int32(f"{prefix}/key_lengths", entry["key_lengths"])
            writer.add_int32(f"{prefix}/node_name_ids", entry["node_name_ids"])
            writer.add_int32(f"{prefix}/ref_offsets", entry["ref_offsets"])
            writer.add_int32(f"{prefix}/ref_globals", entry["ref_globals"])
            writer.add_int32(f"{prefix}/gram_counts", entry["gram_counts"])
            writer.add_int32(f"{prefix}/gram_offsets", entry["gram_offsets"])
            writer.add_bytes(f"{prefix}/gram_blob", entry["gram_blob"])
            writer.add_int32(f"{prefix}/posting_offsets", entry["posting_offsets"])
            writer.add_int32(f"{prefix}/posting_values", entry["posting_values"])

        tree_count = len(self._tree_sizes)
        header = {
            "repository": {
                "name": self.repository_name,
                "tree_count": tree_count,
                "node_count": self._total_nodes,
                "largest_tree": self._largest_tree,
                "smallest_tree": self._smallest_tree,
                "digest": self._digest.hexdigest()[:16],
            },
            "kinds": list(self._kind_codes),
            "datatypes": list(self._datatype_codes),
            "config": self._config,
            "partition": self._partition_meta,
            "indexes": index_metas,
        }
        return writer.write(path, header)


def _fragment_single_tree(
    tree: SchemaTree, max_fragment_size: int, reclustering=None
) -> List[List[int]]:
    """Fragment one tree exactly as :class:`RepositoryPartition` would.

    Delegates through a throwaway single-tree repository rather than
    re-implementing the fragmentation (and optional reclustering) recipe —
    the partition code is the single source of truth for fragment shapes.
    """
    scratch = SchemaRepository(name="freeze-scratch")
    original_id = tree.tree_id
    tree.tree_id = -1
    try:
        scratch.add_tree(tree)
        partition = RepositoryPartition(
            max_fragment_size=max_fragment_size, reclustering=reclustering
        )
        return partition.fragments_for(scratch, 0)
    finally:
        tree.tree_id = original_id


# -- public entry points -------------------------------------------------------


def freeze_service(service, path: str | Path, build: bool = True) -> Dict[str, Any]:
    """Freeze a live :class:`~repro.service.MatchingService` to ``path``.

    With ``build`` (the default) all derived state is materialized first so
    the frozen file is complete.  Returns the written header document.
    """
    if build:
        service.build_derived_state()
    repository = service.repository
    writer = _FrozenWriter(repository.name)
    writer.set_config(
        {
            "element_threshold": service.element_threshold,
            "delta": service.delta,
            "variant": service.variant_name,
            "matcher": _service_matcher_config(service),
            "use_batch_matching": service.system.use_batch_matching,
            "query_cache_size": service.query_cache_size,
        }
    )
    partition = service.partition
    if partition is not None:
        writer.set_partition(
            partition.max_fragment_size,
            None if partition.reclustering is None else partition.reclustering.name,
        )
    oracle = service.oracle
    for tree in repository.trees():
        tree_id = tree.tree_id
        writer.add_tree(
            tree,
            oracle_payload=oracle.oracle(tree_id).to_payload(),
            fragments=(
                partition.fragments_for(repository, tree_id, oracle)
                if partition is not None
                else None
            ),
        )
    indexes = repository.cached_name_indexes()
    for index in indexes.values():
        index.ensure_blocking()
        blocking = index.blocking_payload()
        writer.add_index(
            index.case_sensitive,
            list(index.keys),
            index.node_name_ids(),
            gram_counts=None if blocking is None else blocking["gram_counts"],
            postings=None if blocking is None else blocking["postings"],
        )
    if not indexes:
        # No index was ever built (e.g. a non-batch matcher with build=False);
        # synthesize the matcher's case mode so frozen opens stay O(header).
        writer.add_index_from_forest(
            bool(getattr(service.matcher, "case_sensitive", True))
        )
    return writer.write(path)


def _service_matcher_config(service):
    from repro.service.snapshot import _matcher_config

    return _matcher_config(service.matcher)


def freeze_snapshot_file(source: str | Path, destination: str | Path) -> Dict[str, Any]:
    """Convert a JSON service snapshot into a frozen snapshot, streaming.

    The JSON document is parsed once; trees are then materialized, folded and
    dropped one at a time.  Derived state present in the snapshot (oracles,
    partition fragments, name indexes) is transcoded directly; missing pieces
    are built per tree.  Returns the written header document.
    """
    source_path = Path(source)
    if is_frozen_file(source_path):
        raise ReproError(f"{source_path} is already a frozen snapshot")
    try:
        payload = json.loads(source_path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ReproError(f"cannot read snapshot {source_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"snapshot {source_path} is not valid JSON: {exc}") from exc
    if payload.get("format") != SNAPSHOT_FORMAT:
        raise ReproError(f"not a service snapshot (format={payload.get('format')!r})")
    if payload.get("version") != SNAPSHOT_VERSION:
        raise ReproError(
            f"unsupported snapshot version {payload.get('version')!r} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    repository_payload = payload.get("repository", {})
    if repository_payload.get("version") != _FORMAT_VERSION:
        raise ReproError(
            f"unsupported repository payload version {repository_payload.get('version')!r}"
        )
    config = payload.get("config", {})
    writer = _FrozenWriter(repository_payload.get("name", "repository"))
    writer.set_config(config)
    partition_doc = payload.get("partition")
    if partition_doc is not None:
        partition_doc = _unpack_partition(partition_doc)
        writer.set_partition(
            partition_doc["max_fragment_size"], partition_doc.get("reclustering")
        )
    oracles = payload.get("oracles", {})
    for tree_id, tree_payload in enumerate(repository_payload.get("trees", [])):
        tree = tree_from_dict(tree_payload)
        packed_oracle = oracles.get(str(tree_id))
        fragments = None
        if partition_doc is not None:
            fragments = partition_doc["fragments"].get(str(tree_id))
            if fragments is None:
                recorded = partition_doc.get("reclustering")
                if recorded is not None:
                    raise ReproError(
                        f"snapshot partition uses reclustering strategy {recorded!r} but "
                        f"records no fragments for tree {tree_id}; freeze from a snapshot "
                        "written with build=True"
                    )
                fragments = _fragment_single_tree(
                    tree, partition_doc["max_fragment_size"]
                )
        writer.add_tree(
            tree,
            oracle_payload=(
                None if packed_oracle is None else _unpack_oracle(packed_oracle)
            ),
            fragments=fragments,
        )
    entries = payload.get("name_indexes", [])
    for entry in entries:
        blocking = entry.get("blocking")
        postings = None
        gram_counts = None
        if blocking is not None:
            sizes = _unpack_ints(blocking["posting_sizes"])
            flat = _unpack_ints(blocking["posting_values"])
            postings = {}
            position = 0
            for gram, size in zip(blocking["grams"], sizes):
                postings[gram] = flat[position : position + size]
                position += size
            gram_counts = _unpack_ints(blocking["gram_counts"])
        writer.add_index(
            bool(entry["case_sensitive"]),
            list(entry["keys"]),
            _unpack_ints(entry["node_name_ids"]),
            gram_counts=gram_counts,
            postings=postings,
        )
    if not entries:
        matcher_config = config.get("matcher")
        if matcher_config is not None:
            kind = matcher_config.get("type")
            case_sensitive = (
                True
                if kind == "token-name"
                else bool(matcher_config.get("case_sensitive", False))
            )
            writer.add_index_from_forest(case_sensitive)
    return writer.write(destination)


def compact_frozen(
    source: str | Path,
    destination: str | Path,
    add_trees: Sequence[SchemaTree] = (),
    remove_tree_ids: Sequence[int] = (),
    partition_reclustering=None,
) -> Dict[str, Any]:
    """Merge mutations into a new frozen generation, streaming.

    Surviving trees are re-numbered contiguously (the same shift
    ``remove_tree`` applies in memory); their oracle and partition segments
    are copied slice-for-slice from the source mapping without decoding —
    both are tree-local, so removal and renumbering cannot invalidate them.
    ``add_trees`` are appended at the end, with derived state built on the
    fly.  Name indexes are re-folded from the merged forest (first-occurrence
    numbering, observably equivalent to incremental index maintenance).

    A partition recorded with a reclustering strategy needs the strategy
    object back (``partition_reclustering``) to fragment *added* trees;
    removals alone copy fragments and need nothing.
    """
    from repro.storage.frozen import FrozenRepository

    snapshot = open_frozen(source)
    header = snapshot.header
    tree_count = int(header["repository"]["tree_count"])
    removed = set()
    for tree_id in remove_tree_ids:
        if not 0 <= tree_id < tree_count:
            raise ReproError(
                f"cannot compact {snapshot.source_path}: tree id {tree_id} is outside "
                f"[0, {tree_count})"
            )
        removed.add(tree_id)

    repository = FrozenRepository(snapshot)
    writer = _FrozenWriter(header["repository"].get("name", "repository"))
    writer.set_config(header.get("config", {}))
    partition_meta = header.get("partition")
    recorded_reclustering = None
    if partition_meta is not None:
        recorded_reclustering = partition_meta.get("reclustering")
        if recorded_reclustering is not None and add_trees and partition_reclustering is None:
            raise ClusteringError(
                f"frozen partition was built with reclustering strategy "
                f"{recorded_reclustering!r}; pass an equivalent strategy via "
                "partition_reclustering to fragment added trees"
            )
        writer.set_partition(partition_meta["max_fragment_size"], recorded_reclustering)

    tour_offsets = snapshot.int32("oracle/tour_offsets")
    euler_nodes = snapshot.int32("oracle/euler_nodes")
    euler_depths = snapshot.int32("oracle/euler_depths")
    first_occurrence = snapshot.int32("oracle/first_occurrence")
    rmq_offsets = snapshot.int32("oracle/rmq_offsets")
    rmq_values = snapshot.int32("oracle/rmq_values")
    if partition_meta is not None:
        frag_offsets = snapshot.int32("partition/fragment_offsets")
        member_offsets = snapshot.int32("partition/member_offsets")
        members = snapshot.int32("partition/members")

    for tree_id in range(tree_count):
        if tree_id in removed:
            continue
        tree = repository._materialize_tree(tree_id)  # uncached: one at a time
        start = tour_offsets[tree_id]
        end = tour_offsets[tree_id + 1]
        base = repository.tree_offset(tree_id)
        node_count = (end - start + 1) // 2
        oracle_payload = {
            "euler_nodes": euler_nodes[start:end],
            "euler_depths": euler_depths[start:end],
            "first_occurrence": first_occurrence[base : base + node_count],
            "rmq_flat": rmq_values[rmq_offsets[tree_id] : rmq_offsets[tree_id + 1]],
        }
        fragments = None
        if partition_meta is not None:
            fragments = [
                members[member_offsets[fragment] : member_offsets[fragment + 1]]
                for fragment in range(frag_offsets[tree_id], frag_offsets[tree_id + 1])
            ]
        writer.add_tree(tree, oracle_payload=oracle_payload, fragments=fragments)

    for tree in add_trees:
        fragments = None
        if partition_meta is not None:
            fragments = _fragment_single_tree(
                tree,
                partition_meta["max_fragment_size"],
                reclustering=(
                    partition_reclustering if recorded_reclustering is not None else None
                ),
            )
        writer.add_tree(tree, fragments=fragments)

    for meta in header.get("indexes", []):
        writer.add_index_from_forest(bool(meta["case_sensitive"]))
    return writer.write(destination)
