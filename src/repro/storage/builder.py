"""Streaming builders for frozen snapshots.

Two entry points write through :class:`_FrozenWriter`:

* :func:`repro.service.snapshot.write_snapshot` persists a live service;
* :func:`write_frozen_forest` streams a forest straight into a file, building
  each tree's derived state as it goes — the ingestion pipeline's merge.

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

from repro.errors import ReproError
from repro.labeling.distance import TreeDistanceOracle
from repro.matchers.index import RepositoryNameIndex
from repro.matchers.string_metrics import _ngrams
from repro.schema.tree import SchemaTree
from repro.service.fingerprint import schema_fingerprint
from repro.service.partition import tree_fragments
from repro.storage.format import SegmentWriter


class _FrozenWriter:
    """Accumulates a repository, its derived state and its indexes as flat
    arrays, then assembles the segment image (see the catalog in
    ``docs/ARCHITECTURE.md``).

    ``add_tree`` is strictly streaming: it folds one tree's structure into the
    growing arrays and keeps no reference to the tree.  An omitted oracle
    payload is built from the tree itself and a declared partition takes
    every tree's fragments, so every frozen file is *complete* (the loader
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

        ``oracle_payload`` is a :meth:`TreeDistanceOracle.to_payload` dict,
        computed from the tree when absent.  ``fragments`` is the tree's
        fragment list, required once a partition was declared via
        :meth:`set_partition`.
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
        for level in oracle_payload["rmq_levels"][1:]:
            self._rmq_values.extend(level)
        self._rmq_offsets.append(len(self._rmq_values))

        if self._partition_meta is not None:
            for members in fragments:
                self._members.extend(members)
                self._member_offsets.append(len(self._members))
            self._frag_offsets.append(len(self._member_offsets) - 1)

        # The fold of every tree's schema fingerprint, in order: a shard file
        # self-certifies against its manifest without materializing a tree.
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
                grams = _ngrams(key, RepositoryNameIndex.gram_size)
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
                    # No loader reads it; kept so version-1 files stay
                    # byte-identical.
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


def write_frozen_forest(
    path: str | Path,
    trees: Iterable[SchemaTree],
    *,
    repository_name: str,
    config: Dict[str, Any],
    max_fragment_size: int,
    case_sensitive: bool,
) -> Dict[str, Any]:
    """Stream ``trees`` into one complete frozen file at ``path``; returns its header.

    Each tree is folded in — its oracle payload built from the tree, its
    partition fragments through
    :func:`~repro.service.partition.tree_fragments` — and kept by no
    reference afterwards, so a lazy iterable is never materialized as a
    forest.  The one name index is re-folded from the streamed forest, the
    construction order of :class:`~repro.matchers.index.RepositoryNameIndex`.
    ``config`` is the header block :func:`~repro.service.snapshot
    .snapshot_config` builds.  The write is atomic.
    """
    writer = _FrozenWriter(repository_name)
    writer.set_config(config)
    writer.set_partition(max_fragment_size, None)
    for tree in trees:
        writer.add_tree(tree, fragments=tree_fragments(tree, max_fragment_size))
    writer.add_index_from_forest(case_sensitive)
    return writer.write(path)
