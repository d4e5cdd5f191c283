"""Zero-copy service views over a frozen snapshot.

:func:`repro.service.snapshot.load_snapshot` assembles these views into a
ready :class:`~repro.service.MatchingService` in O(header) time regardless of
repository size: every heavy structure is a *view* class that satisfies the
same sequence contracts as the in-memory structure it stands for but reads
straight from the snapshot's ``mmap`` segments and materializes Python
objects per tree / per name / per gram, on first touch only.

* :class:`FrozenRepository` — a :class:`~repro.schema.repository.SchemaRepository`
  whose tree list decodes lazily (``locate``/``tree_offset`` run on the mapped
  offset array without touching a single tree);
* :class:`FrozenNameIndex` — a :class:`~repro.matchers.index.RepositoryNameIndex`
  over mapped key/ref/posting tables, answering the inherited candidate scan
  from the mapped key lengths, ref offsets and posting lists;
* :class:`FrozenRepositoryDistanceOracle` — per-tree
  :class:`~repro.labeling.distance.TreeDistanceOracle` objects re-sliced out of
  the flat Euler-tour / sparse-table segments;
* :class:`FrozenPartition` — fragment lists decoded per tree from one CSR pair.

Mutation semantics
------------------
Frozen state is *read-optimized*, not read-only: the first mutation thaws the
affected structure into its plain in-memory form (the repository materializes
every tree and literally becomes a ``SchemaRepository``; indexes materialize
and delegate to the copy-on-write incremental constructors; the partition
materializes its frozen entries before re-keying).  Results after a mutation
are therefore identical to mutating the in-memory service the file was
written from — the frozen layer only changes *when* objects get built, never
what they contain.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_right
from typing import Any, Dict, List, Optional

from repro.errors import UnknownTreeError
from repro.labeling.distance import RepositoryDistanceOracle, TreeDistanceOracle
from repro.matchers.index import _VERSION_COUNTER, RepositoryNameIndex
from repro.schema.node import SchemaNode
from repro.schema.repository import RepositoryNodeRef, SchemaRepository
from repro.schema.serialization import _DATATYPE_BY_VALUE, _KIND_BY_VALUE
from repro.schema.tree import SchemaTree
from repro.service.partition import RepositoryPartition
from repro.storage.format import FrozenSnapshot


class LazyStringTable:
    """Sequence of strings decoded on demand from an offset array + UTF-8 blob.

    ``offsets`` has one more entry than there are strings; string ``i`` is the
    UTF-8 bytes ``blob[offsets[i]:offsets[i+1]]``.  Decoded strings are cached
    per index (the write-once race between threads is benign — both writers
    store an equal string).
    """

    __slots__ = ("_offsets", "_blob", "_cache")

    def __init__(self, offsets, blob) -> None:
        self._offsets = offsets
        self._blob = blob
        self._cache: Dict[int, str] = {}

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        if index < 0:
            index += len(self)
        cached = self._cache.get(index)
        if cached is not None:
            return cached
        if not 0 <= index < len(self):
            raise IndexError(index)
        start = self._offsets[index]
        end = self._offsets[index + 1]
        value = bytes(self._blob[start:end]).decode("utf-8")
        self._cache[index] = value
        return value

    def __iter__(self):
        for index in range(len(self)):
            yield self[index]


class _LazyTreeList:
    """List-contract view over the frozen forest, materializing per tree.

    The lock makes materialization single-shot per tree id: callers compare
    trees by identity (``oracle.tree is repository.tree(tree_id)``), so two
    racing first touches must not hand out two distinct objects.
    """

    __slots__ = ("_repository", "_trees", "_lock")

    def __init__(self, repository: "FrozenRepository", tree_count: int) -> None:
        self._repository = repository
        self._trees: List[Optional[SchemaTree]] = [None] * tree_count
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._trees)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self._trees)))]
        tree = self._trees[index]
        if tree is None:
            if index < 0:
                index += len(self._trees)
            with self._lock:
                tree = self._trees[index]
                if tree is None:
                    tree = self._trees[index] = self._repository._materialize_tree(index)
        return tree

    def __iter__(self):
        for index in range(len(self._trees)):
            yield self[index]


class _LazyRefList:
    """Per-name :class:`RepositoryNodeRef` lists decoded from a global-id CSR.

    Tree ids are recovered by bisection over the repository's tree-offset
    array (node id = global id - tree offset), so the segment stores one int
    per reference.  Decoded lists are cached — the matching pipeline fans
    scores out through the same survivors repeatedly.
    """

    __slots__ = ("_ref_offsets", "_ref_globals", "_tree_offsets", "_cache")

    def __init__(self, ref_offsets, ref_globals, tree_offsets) -> None:
        self._ref_offsets = ref_offsets
        self._ref_globals = ref_globals
        self._tree_offsets = tree_offsets
        self._cache: Dict[int, List[RepositoryNodeRef]] = {}

    def __len__(self) -> int:
        return len(self._ref_offsets) - 1

    def __getitem__(self, name_id: int) -> List[RepositoryNodeRef]:
        refs = self._cache.get(name_id)
        if refs is not None:
            return refs
        if name_id < 0:
            name_id += len(self)
        start = self._ref_offsets[name_id]
        end = self._ref_offsets[name_id + 1]
        tree_offsets = self._tree_offsets
        refs = []
        for global_id in self._ref_globals[start:end]:
            tree_id = bisect_right(tree_offsets, global_id) - 1
            refs.append(
                RepositoryNodeRef(
                    global_id=global_id,
                    tree_id=tree_id,
                    node_id=global_id - tree_offsets[tree_id],
                )
            )
        self._cache[name_id] = refs
        return refs

    def __iter__(self):
        for name_id in range(len(self)):
            yield self[name_id]


#: Instance attributes holding mmap-backed state; deleted on thaw.
_REPOSITORY_VIEW_ATTRS = (
    "_snapshot",
    "_tree_sizes",
    "_parents",
    "_name_refs",
    "_kinds",
    "_datatypes",
    "_tree_names",
    "_node_names",
    "_kind_values",
    "_datatype_values",
    "_properties_raw",
    "_properties",
    "_frozen_summary",
)


class FrozenRepository(SchemaRepository):
    """A repository whose forest lives in a frozen snapshot's segments.

    Construction is O(header).  ``locate``/``tree_offset``/``summary`` never
    touch a tree; ``tree(tree_id)`` materializes exactly that tree (same node
    construction path as :func:`repro.schema.serialization.tree_from_dict`).
    The first mutation thaws the whole forest and switches the instance's
    class to plain :class:`SchemaRepository` — after that the object is
    indistinguishable from an in-memory repository.
    """

    def __init__(self, snapshot: FrozenSnapshot) -> None:
        meta = snapshot.header["repository"]
        super().__init__(name=meta.get("name", "repository"))
        self._snapshot = snapshot
        self._offsets = snapshot.int32("forest/tree_offsets")
        self._tree_sizes = snapshot.int32("forest/tree_sizes")
        self._parents = snapshot.int32("forest/parents")
        self._name_refs = snapshot.int32("forest/name_refs")
        self._kinds = snapshot.int8("forest/kinds")
        self._datatypes = snapshot.int8("forest/datatypes")
        self._tree_names = LazyStringTable(
            snapshot.int32("forest/tree_name_offsets"), snapshot.raw("forest/tree_name_blob")
        )
        self._node_names = LazyStringTable(
            snapshot.int32("names/offsets"), snapshot.raw("names/blob")
        )
        header = snapshot.header
        self._kind_values = [_KIND_BY_VALUE[value] for value in header.get("kinds", [])]
        self._datatype_values = [
            _DATATYPE_BY_VALUE[value] for value in header.get("datatypes", [])
        ]
        self._properties_raw = snapshot.raw("forest/properties")
        self._properties: Optional[Dict[str, Any]] = None
        self._total_nodes = int(meta["node_count"])
        self._frozen_summary = {
            "trees": int(meta["tree_count"]),
            "nodes": int(meta["node_count"]),
            "largest_tree": int(meta.get("largest_tree", 0)),
            "smallest_tree": int(meta.get("smallest_tree", 0)),
        }
        self._trees = _LazyTreeList(self, int(meta["tree_count"]))

    # -- lazy materialization -------------------------------------------------

    def _tree_properties(self, tree_id: int) -> Dict[str, Any]:
        properties = self._properties
        if properties is None:
            raw = self._properties_raw
            properties = json.loads(bytes(raw).decode("utf-8")) if len(raw) else {}
            self._properties = properties
        return properties.get(str(tree_id), {})

    def _materialize_tree(self, tree_id: int) -> SchemaTree:
        """Decode one tree (same trusted bulk path as ``tree_from_dict``)."""
        base = self._offsets[tree_id]
        size = self._tree_sizes[tree_id]
        tree = SchemaTree(name=self._tree_names[tree_id])
        parents_view = self._parents
        name_refs = self._name_refs
        kinds = self._kinds
        datatypes = self._datatypes
        kind_values = self._kind_values
        datatype_values = self._datatype_values
        node_names = self._node_names
        tree_properties = self._tree_properties(tree_id)
        nodes: List[SchemaNode] = []
        parents: List[int] = []
        for local_id in range(size):
            position = base + local_id
            node = SchemaNode.__new__(SchemaNode)
            node.name = node_names[name_refs[position]]
            node.kind = kind_values[kinds[position]]
            node.datatype = datatype_values[datatypes[position]]
            props = tree_properties.get(str(local_id)) if tree_properties else None
            node.properties = dict(props) if props else {}
            node.node_id = -1
            nodes.append(node)
            parents.append(parents_view[position])
        tree._bulk_attach(nodes, parents)
        tree.tree_id = tree_id
        return tree

    # -- O(header) overrides --------------------------------------------------

    def tree_offset(self, tree_id: int) -> int:
        if not 0 <= tree_id < len(self._trees):
            raise UnknownTreeError(tree_id, context=f"repository {self.name!r}")
        return self._offsets[tree_id]

    def summary(self) -> Dict[str, int]:
        return dict(self._frozen_summary)

    # -- mutations thaw -------------------------------------------------------

    def _thaw(self) -> None:
        """Materialize every tree and become a plain ``SchemaRepository``.

        Already-materialized trees are reused (identity matters: installed
        oracles hold references into the lazy list), the mapped offset array
        is copied into a plain list, and every view attribute is dropped so
        the thawed object no longer reads from the mapping.
        """
        self._trees = [self._trees[tree_id] for tree_id in range(len(self._trees))]
        self._offsets = [int(offset) for offset in self._offsets]
        for attr in _REPOSITORY_VIEW_ATTRS:
            self.__dict__.pop(attr, None)
        self.__class__ = SchemaRepository

    def add_tree(self, tree: SchemaTree) -> int:
        self._thaw()
        return SchemaRepository.add_tree(self, tree)

    def remove_tree(self, tree_id: int) -> SchemaTree:
        self._thaw()
        return SchemaRepository.remove_tree(self, tree_id)


class FrozenNameIndex(RepositoryNameIndex):
    """A name index over a frozen snapshot's key/ref/posting segments.

    Construction is O(header): keys, per-name refs, gram postings and the
    per-node name-id array are all mapped views decoded on first touch.  The
    inherited :meth:`fuzzy_candidates` scan reads only the mapped key lengths,
    ref offsets and posting lists, so it decodes no key and no ref list; it
    finds a gram's posting list through a gram → id dict built from the mapped
    gram table on first use.  The
    vectorized kernel's code-point matrix is packed from the keys by the
    inherited :meth:`packed_name_table` on its first call, not at open.

    Incremental updates (:meth:`with_tree_added` / :meth:`with_tree_removed`)
    materialize a plain :class:`RepositoryNameIndex` and delegate to its
    copy-on-write constructors, so a mutated frozen service maintains its
    indexes exactly like an in-memory one.
    """

    def __init__(self, snapshot: FrozenSnapshot, position: int) -> None:
        meta = snapshot.header["indexes"][position]
        prefix = f"index{position}"
        self.case_sensitive = bool(meta["case_sensitive"])
        self.version = next(_VERSION_COUNTER)
        self.repository_version = 0
        self.node_count = int(snapshot.header["repository"]["node_count"])
        self.keys = LazyStringTable(
            snapshot.int32(f"{prefix}/key_offsets"), snapshot.raw(f"{prefix}/key_blob")
        )
        self._key_lengths = snapshot.int32(f"{prefix}/key_lengths")
        self._node_name_ids = snapshot.int32(f"{prefix}/node_name_ids")
        self._ref_offsets = snapshot.int32(f"{prefix}/ref_offsets")
        self._refs = _LazyRefList(
            self._ref_offsets,
            snapshot.int32(f"{prefix}/ref_globals"),
            snapshot.int32("forest/tree_offsets"),
        )
        self._gram_counts_view = snapshot.int32(f"{prefix}/gram_counts")
        self._gram_table = LazyStringTable(
            snapshot.int32(f"{prefix}/gram_offsets"), snapshot.raw(f"{prefix}/gram_blob")
        )
        self._posting_offsets = snapshot.int32(f"{prefix}/posting_offsets")
        self._posting_values = snapshot.int32(f"{prefix}/posting_values")
        self._key_to_id: Optional[Dict[str, int]] = None
        self._gram_to_id: Optional[Dict[str, int]] = None
        self._ids_by_length = None
        self._pairs_by_length: Dict[int, int] = {}

    # -- lazy lookups ---------------------------------------------------------

    def id_for(self, key: str) -> Optional[int]:
        mapping = self._key_to_id
        if mapping is None:
            mapping = self._key_to_id = {key: name_id for name_id, key in enumerate(self.keys)}
        return mapping.get(key)

    def fanout(self, name_id: int) -> int:
        return self._ref_offsets[name_id + 1] - self._ref_offsets[name_id]

    def gram_count(self, name_id: int) -> int:
        return self._gram_counts_view[name_id]

    def node_name_ids(self):
        return self._node_name_ids

    def _posting_view(self, gram_id: int):
        return self._posting_values[
            self._posting_offsets[gram_id] : self._posting_offsets[gram_id + 1]
        ]

    def gram_overlap_counts(self, query_grams) -> Dict[int, int]:
        gram_ids = self._gram_to_id
        if gram_ids is None:
            gram_ids = self._gram_to_id = {
                gram: gram_id for gram_id, gram in enumerate(self._gram_table)
            }
        counts: Dict[int, int] = {}
        get = counts.get
        for gram in query_grams:
            gram_id = gram_ids.get(gram)
            if gram_id is None:
                continue
            for name_id in self._posting_view(gram_id):
                counts[name_id] = get(name_id, 0) + 1
        return counts

    def _ensure_blocking(self):
        """Length buckets from the mapped key-length array (no key decode)."""
        ids_by_length = self._ids_by_length
        if ids_by_length is not None:
            return ids_by_length
        ids_by_length = {}
        pairs_by_length: Dict[int, int] = {}
        lengths = self._key_lengths
        offsets = self._ref_offsets
        for name_id in range(len(lengths)):
            length = lengths[name_id]
            ids_by_length.setdefault(length, []).append(name_id)
            pairs_by_length[length] = (
                pairs_by_length.get(length, 0) + offsets[name_id + 1] - offsets[name_id]
            )
        self._pairs_by_length = pairs_by_length
        self._ids_by_length = ids_by_length
        return ids_by_length

    def blocking_payload(self) -> Optional[Dict[str, object]]:
        # The frozen segments *are* the blocking structures, so a snapshot
        # write can always persist them (decoding is explicit-write-time cost).
        postings: Dict[str, List[int]] = {}
        table = self._gram_table
        for gram_id in range(len(table)):
            postings[table[gram_id]] = list(self._posting_view(gram_id))
        return {"gram_counts": list(self._gram_counts_view), "postings": postings}

    # -- incremental updates materialize --------------------------------------

    def _materialize(self) -> RepositoryNameIndex:
        """A plain, fully decoded copy (feeds the copy-on-write constructors)."""
        plain = RepositoryNameIndex.__new__(RepositoryNameIndex)
        plain.case_sensitive = self.case_sensitive
        plain.version = next(_VERSION_COUNTER)
        plain.repository_version = self.repository_version
        plain.node_count = self.node_count
        keys = [key for key in self.keys]
        plain.keys = keys
        plain._refs = [self._refs[name_id] for name_id in range(len(keys))]
        plain._key_to_id = {key: name_id for name_id, key in enumerate(keys)}
        plain._gram_counts = list(self._gram_counts_view)
        table = self._gram_table
        plain._postings = {
            table[gram_id]: list(self._posting_view(gram_id)) for gram_id in range(len(table))
        }
        plain._rebuild_length_buckets()
        return plain

    def with_tree_added(self, repository, tree_id):
        return self._materialize().with_tree_added(repository, tree_id)

    def with_tree_removed(self, repository, removed_tree_id, removed_node_count):
        return self._materialize().with_tree_removed(
            repository, removed_tree_id, removed_node_count
        )


class FrozenRepositoryDistanceOracle(RepositoryDistanceOracle):
    """Per-tree distance oracles re-sliced from frozen tour/sparse segments.

    ``oracle(tree_id)`` decodes the tree's Euler tour, first-occurrence row
    and sparse-table levels as zero-copy slices (sparse-table levels from 1
    up are stored back to back per tree) while the repository is pristine
    (version 0); trees added later — possible after a thaw — fall through to
    the normal lazy build.  Removals shift tree ids, so the mutation path
    never reaches the frozen decode: the version gate closes first.
    """

    def __init__(self, snapshot: FrozenSnapshot, repository: FrozenRepository) -> None:
        super().__init__(repository)
        self._tour_offsets = snapshot.int32("oracle/tour_offsets")
        self._euler_nodes = snapshot.int32("oracle/euler_nodes")
        self._euler_depths = snapshot.int32("oracle/euler_depths")
        self._first_occurrence = snapshot.int32("oracle/first_occurrence")
        self._rmq_offsets = snapshot.int32("oracle/rmq_offsets")
        self._rmq_values = snapshot.int32("oracle/rmq_values")
        self._frozen_tree_count = int(snapshot.header["repository"]["tree_count"])

    def _decode_tree(self, tree_id: int) -> TreeDistanceOracle:
        start = self._tour_offsets[tree_id]
        end = self._tour_offsets[tree_id + 1]
        euler_depths = self._euler_depths[start:end]
        size = end - start
        node_count = (size + 1) // 2
        base = self.repository.tree_offset(tree_id)
        levels: List[Any] = [range(size)]
        position = self._rmq_offsets[tree_id]
        level = 1
        while (1 << level) <= size:
            width = size - (1 << level) + 1
            levels.append(self._rmq_values[position : position + width])
            position += width
            level += 1
        payload = {
            "euler_nodes": self._euler_nodes[start:end],
            "euler_depths": euler_depths,
            "first_occurrence": self._first_occurrence[base : base + node_count],
            "rmq_levels": levels,
        }
        return TreeDistanceOracle.from_payload(self.repository.tree(tree_id), payload)

    def oracle(self, tree_id: int) -> TreeDistanceOracle:
        cached = self._oracles.get(tree_id)
        if cached is not None:
            return cached
        if (
            getattr(self.repository, "version", None) == 0
            and 0 <= tree_id < self._frozen_tree_count
        ):
            with self._build_lock:
                cached = self._oracles.get(tree_id)
                if cached is None:
                    cached = self._decode_tree(tree_id)
                    self._oracles[tree_id] = cached
            return cached
        return super().oracle(tree_id)


class FrozenPartition(RepositoryPartition):
    """A repository partition whose fragment lists live in frozen CSR segments.

    Entries decode per tree on first use.  Additions never touch frozen
    entries (fragmentation is tree-local and tree ids are append-only);
    removals shift tree ids, so :meth:`on_tree_removed` materializes every
    frozen entry and deactivates the segment-backed path before re-keying.
    """

    def __init__(self, snapshot: FrozenSnapshot, reclustering=None) -> None:
        meta = snapshot.header["partition"]
        super().__init__(
            max_fragment_size=int(meta["max_fragment_size"]), reclustering=reclustering
        )
        self._frag_offsets = snapshot.int32("partition/fragment_offsets")
        self._member_offsets = snapshot.int32("partition/member_offsets")
        self._members = snapshot.int32("partition/members")
        self._frozen_tree_count = int(snapshot.header["repository"]["tree_count"])
        self._frozen_active = True

    def _decode_frozen_tree(self, tree_id: int) -> List[List[int]]:
        fragments: List[List[int]] = []
        member_offsets = self._member_offsets
        members = self._members
        for fragment in range(self._frag_offsets[tree_id], self._frag_offsets[tree_id + 1]):
            fragments.append(list(members[member_offsets[fragment] : member_offsets[fragment + 1]]))
        self._fragments[tree_id] = fragments
        self._node_fragment[tree_id] = {
            node_id: index for index, members in enumerate(fragments) for node_id in members
        }
        return fragments

    def fragments_for(self, repository, tree_id, oracle=None):
        fragments = self._fragments.get(tree_id)
        if fragments is not None:
            return fragments
        if self._frozen_active and 0 <= tree_id < self._frozen_tree_count:
            return self._decode_frozen_tree(tree_id)
        return super().fragments_for(repository, tree_id, oracle)

    def _materialize_frozen(self) -> None:
        if not self._frozen_active:
            return
        for tree_id in range(self._frozen_tree_count):
            if tree_id not in self._fragments:
                self._decode_frozen_tree(tree_id)
        self._frozen_active = False

    def on_tree_removed(self, removed_tree_id: int) -> None:
        # Frozen entries are keyed by pre-removal tree ids; decode them all
        # before the re-keying shifts the id space out from under the CSR.
        self._materialize_frozen()
        super().on_tree_removed(removed_tree_id)
