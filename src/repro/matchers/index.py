"""Repository name index and lossless candidate blocking for batch matching.

Element matching is the pipeline's hottest path: the naive selector runs one
string comparison per (personal node, repository node) pair.  Web-harvested
repositories repeat element names heavily, so this module deduplicates the
work at the *name* level: :class:`RepositoryNameIndex` groups repository nodes
by (optionally case-folded) name, each unique ``(personal name, repository
name)`` pair is scored once and fanned out to every node sharing the name, and
a trigram/length prefilter removes names that provably cannot clear the
selection threshold before any edit-distance DP runs.

Prefilter invariants (losslessness proof sketch)
------------------------------------------------

The selector keeps a pair when ``sim(a, b) = 1 - d(a, b) / max(|a|, |b|)`` is
at least the threshold ``t``, where ``d`` is the unrestricted
Damerau–Levenshtein distance.  Both filters are derived from the per-pair edit
budget ``limit = edit_budget(t, max(|a|, |b|)) = int((1 - t) * max(|a|, |b|)) + 1``
(the same helper the kernel path in ``fuzzy_similarity`` uses), which satisfies
``limit > (1 - t) * max(|a|, |b|)``; hence ``sim(a, b) >= t`` implies
``d(a, b) <= limit`` with at least one full edit operation of slack, so no
floating-point rounding of the threshold comparison can be affected.

1. **Length bound** — every edit operation changes the string length by at
   most one, so ``d(a, b) >= ||a| - |b||``.  Names whose length difference
   exceeds ``limit`` cannot score ``>= t`` and are pruned without scoring.

2. **Trigram bound** — let ``G(x)`` be the set of padded character trigrams of
   ``x`` (:func:`~repro.matchers.string_metrics._ngrams` with ``size=3``).  A
   single Levenshtein operation destroys at most ``q = 3`` padded q-gram
   occurrences (the grams overlapping the edited position), and a
   Damerau–Levenshtein script of cost ``d`` can be rewritten as a Levenshtein
   script of cost at most ``2 d`` (each transposition step of cost ``c``
   becomes at most ``c + 1 <= 2 c`` substitutions/insertions/deletions).  A
   trigram of ``a`` that appears nowhere in ``b`` must have had every one of
   its occurrences destroyed, so the number of *distinct* trigrams of ``a``
   missing from ``b`` is at most ``2 q d``.  Therefore
   ``d(a, b) <= limit`` implies
   ``|G(a) ∩ G(b)| >= |G(a)| - 2 q * limit``, and a name can be pruned when
   its posting-list overlap count falls below that bound.  When the bound is
   ``<= 0`` nothing is pruned (the filter degrades gracefully instead of
   dropping candidates).

Both filters only ever *remove* pairs whose similarity is provably below the
threshold, so the batch path's surviving pairs — and, because the survivors
are scored with the exact kernel — the resulting ``MappingElementSets`` are
identical to the naive all-pairs loop.

The scan visits every length-compatible *unique name*, so its cost is bounded
by the repository's vocabulary, not its node count; it is the only candidate
scan, for in-memory and frozen indexes alike.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.schema.repository import RepositoryNodeRef, SchemaRepository
from repro.matchers.string_metrics import _ngrams, edit_budget

#: Size of the character q-grams in the blocking index (padded trigrams).
_GRAM_SIZE = 3

#: Distinct query q-grams that one unit of Damerau–Levenshtein cost can make
#: disappear (see the module docstring's proof sketch): ``2 * gram size``.
#: Derived, not hardcoded — the prefilter's losslessness depends on the two
#: staying in lockstep.
_GRAM_SLACK_PER_EDIT = 2 * _GRAM_SIZE

_VERSION_COUNTER = itertools.count(1)


class LRUMemo:
    """A tiny bounded least-recently-used memo (insertion-ordered dict based).

    Batch matchers use it to reuse per-query score tables across personal
    schemas — the paper's repeated-query / heavy-traffic scenario — without
    unbounded growth on adversarial workloads.  A lock guards the recency
    bookkeeping so matchers can be shared across concurrent matching runs
    (the memo ops are rare next to the kernel work they save).
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 0:
            raise ValueError(f"memo capacity must be non-negative, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: Hashable) -> Optional[Any]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
            return entry

    def put(self, key: Hashable, value: Any) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def keys(self) -> List[Hashable]:
        """The keys held, least recently used first."""
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        return len(self._entries)


class RepositoryNameIndex:
    """Repository nodes grouped by (case-folded) name, with blocking indexes.

    The index stores, per unique name key:

    * the list of :class:`RepositoryNodeRef` sharing the name, in global-id
      order (so fanned-out mapping elements sort exactly like the naive scan);
    * a length bucket (for the length-difference bound);
    * trigram posting lists (for the overlap bound).

    Instances are immutable snapshots; ``version`` is a process-unique token
    used as a memo key, and ``node_count`` lets caches detect a repository
    that has grown since the index was built.
    """

    gram_size = _GRAM_SIZE

    def __init__(self, repository: SchemaRepository, case_sensitive: bool = False) -> None:
        self.case_sensitive = case_sensitive
        self.version = next(_VERSION_COUNTER)
        self.repository_version = getattr(repository, "version", 0)
        self.node_count = repository.node_count
        keys: List[str] = []
        refs: List[List[RepositoryNodeRef]] = []
        key_to_id: Dict[str, int] = {}
        for ref, node in repository.iter_nodes():
            key = node.name if case_sensitive else node.name.lower()
            name_id = key_to_id.get(key)
            if name_id is None:
                key_to_id[key] = len(keys)
                keys.append(key)
                refs.append([ref])
            else:
                refs[name_id].append(ref)
        self.keys = keys
        self._refs = refs
        self._key_to_id = key_to_id

        # The blocking structures (length buckets + trigram posting lists) are
        # only needed by the fuzzy/n-gram prefilter paths; exact-name lookups
        # (find_by_name) and the token matcher never read them, so they are
        # built lazily on first use.
        self._ids_by_length: Optional[Dict[int, List[int]]] = None
        self._pairs_by_length: Dict[int, int] = {}
        self._gram_counts: List[int] = []
        self._postings: Dict[str, List[int]] = {}

    def _ensure_blocking(self) -> Dict[int, List[int]]:
        ids_by_length = self._ids_by_length
        if ids_by_length is not None:
            return ids_by_length
        ids_by_length = {}
        pairs_by_length: Dict[int, int] = {}
        gram_counts: List[int] = []
        postings: Dict[str, List[int]] = {}
        refs = self._refs
        for name_id, key in enumerate(self.keys):
            length = len(key)
            ids_by_length.setdefault(length, []).append(name_id)
            pairs_by_length[length] = pairs_by_length.get(length, 0) + len(refs[name_id])
            grams = _ngrams(key, self.gram_size)
            gram_counts.append(len(grams))
            for gram in grams:
                postings.setdefault(gram, []).append(name_id)
        self._pairs_by_length = pairs_by_length
        self._gram_counts = gram_counts
        self._postings = postings
        self._ids_by_length = ids_by_length
        return ids_by_length

    # -- construction / caching -------------------------------------------------

    @classmethod
    def for_repository(
        cls, repository: SchemaRepository, case_sensitive: bool = False
    ) -> "RepositoryNameIndex":
        """The repository's cached index, (re)built when the repository mutated.

        The cache lives on the repository object itself (one entry per case
        mode), is invalidated by every repository mutation (``add_tree`` /
        ``remove_tree``), and staleness is detected through the repository's
        mutation :attr:`~repro.schema.repository.SchemaRepository.version` —
        not the node count, which cannot see equal-size mutations (remove one
        tree, add another with the same number of nodes).
        """
        cache = repository._name_index_cache
        key = bool(case_sensitive)
        index = cache.get(key)
        if index is None or index.repository_version != getattr(repository, "version", 0):
            index = cls(repository, case_sensitive=case_sensitive)
            cache[key] = index
        return index

    def node_name_ids(self) -> List[int]:
        """Per-node name ids in global-id order (the snapshot wire form)."""
        ids = [0] * self.node_count
        for name_id, refs in enumerate(self._refs):
            for ref in refs:
                ids[ref.global_id] = name_id
        return ids

    def packed_name_table(self):
        """Lazily built code-point matrix of the keys for the batch DL kernel.

        ``None`` when the kernel cannot be used (an over-long or unencodable
        key).  Index instances are immutable snapshots, so the table is built
        at most once; incremental clones
        (:meth:`with_tree_added` / :meth:`with_tree_removed`) start without
        one and rebuild lazily against their own key list.  A frozen index
        packs its mapped keys here too, so loading a snapshot decodes no key
        before the first kernel call.
        """
        packed = getattr(self, "_packed_names", None)
        if packed is None:
            from repro.kernels.strings import PackedNameTable

            built = PackedNameTable.build(self.keys)
            # Cache the failure too (False) so unsupported key sets do not
            # retry the packing scan on every query.
            packed = self._packed_names = built if built is not None else False
        return packed or None

    # -- blocking persistence ----------------------------------------------------

    def ensure_blocking(self) -> None:
        """Force the lazy blocking structures (service warm-up / snapshot write)."""
        self._ensure_blocking()

    def blocking_payload(self) -> Optional[Dict[str, object]]:
        """Raw blocking structures for snapshots, ``None`` when not yet built."""
        if self._ids_by_length is None:
            return None
        return {"gram_counts": list(self._gram_counts), "postings": dict(self._postings)}

    # -- incremental updates -----------------------------------------------------

    def with_tree_added(self, repository: SchemaRepository, tree_id: int) -> "RepositoryNameIndex":
        """A new index equal to a fresh build after ``tree_id`` was added.

        Only the postings touched by the new tree are recomputed: the new
        tree's nodes are folded and appended to the existing per-name ref
        lists (copy-on-write — this index is immutable and stays valid), and
        trigram posting lists gain entries only for names first introduced by
        the new tree.  Because the new tree's global ids are larger than every
        existing id and its nodes are scanned in node-id order, the result is
        *identical* to rebuilding the index from scratch — same key order,
        same name ids, same ref order, same postings.
        """
        clone = RepositoryNameIndex.__new__(RepositoryNameIndex)
        clone.case_sensitive = self.case_sensitive
        clone.version = next(_VERSION_COUNTER)
        clone.repository_version = getattr(repository, "version", 0)
        clone.node_count = repository.node_count

        keys = list(self.keys)
        refs = list(self._refs)
        key_to_id = dict(self._key_to_id)
        touched: set = set()
        new_name_ids: List[int] = []
        tree = repository.tree(tree_id)
        offset = repository.tree_offset(tree_id)
        case_sensitive = self.case_sensitive
        for node_id in tree.node_ids():
            name = tree.node(node_id).name
            key = name if case_sensitive else name.lower()
            ref = RepositoryNodeRef(global_id=offset + node_id, tree_id=tree_id, node_id=node_id)
            name_id = key_to_id.get(key)
            if name_id is None:
                name_id = len(keys)
                key_to_id[key] = name_id
                keys.append(key)
                refs.append([ref])
                new_name_ids.append(name_id)
            else:
                if name_id not in touched:
                    refs[name_id] = list(refs[name_id])
                    touched.add(name_id)
                refs[name_id].append(ref)
        clone.keys = keys
        clone._refs = refs
        clone._key_to_id = key_to_id

        if self._ids_by_length is None:
            clone._reset_blocking()
        else:
            gram_counts = list(self._gram_counts)
            postings = dict(self._postings)
            for name_id in new_name_ids:
                grams = _ngrams(keys[name_id], self.gram_size)
                gram_counts.append(len(grams))
                for gram in grams:
                    existing = postings.get(gram)
                    postings[gram] = [*existing, name_id] if existing else [name_id]
            clone._gram_counts = gram_counts
            clone._postings = postings
            clone._rebuild_length_buckets()
        return clone

    def with_tree_removed(
        self, repository: SchemaRepository, removed_tree_id: int, removed_node_count: int
    ) -> "RepositoryNameIndex":
        """A new index valid after ``removed_tree_id`` was removed.

        Per-name ref lists are filtered and shifted (trees after the removed
        one slid down by one tree id and ``removed_node_count`` global ids);
        names that only occurred in the removed tree are dropped and the
        surviving name ids are compacted *in their existing order*, so trigram
        postings and gram counts are remapped without recomputing a single
        n-gram.  The result is observably equivalent to a fresh build — same
        name → refs mapping, same blocking decisions — though the internal
        name-id numbering may differ from a from-scratch scan (fresh builds
        number names by first occurrence over the surviving nodes; every
        consumer sorts its output, so this is invisible downstream).
        """
        clone = RepositoryNameIndex.__new__(RepositoryNameIndex)
        clone.case_sensitive = self.case_sensitive
        clone.version = next(_VERSION_COUNTER)
        clone.repository_version = getattr(repository, "version", 0)
        clone.node_count = repository.node_count

        keys: List[str] = []
        refs: List[List[RepositoryNodeRef]] = []
        key_to_id: Dict[str, int] = {}
        id_map: Dict[int, int] = {}
        for old_id, old_refs in enumerate(self._refs):
            survivors = [
                ref
                if ref.tree_id < removed_tree_id
                else RepositoryNodeRef(
                    global_id=ref.global_id - removed_node_count,
                    tree_id=ref.tree_id - 1,
                    node_id=ref.node_id,
                )
                for ref in old_refs
                if ref.tree_id != removed_tree_id
            ]
            if not survivors:
                continue
            new_id = len(keys)
            id_map[old_id] = new_id
            key_to_id[self.keys[old_id]] = new_id
            keys.append(self.keys[old_id])
            refs.append(survivors)
        clone.keys = keys
        clone._refs = refs
        clone._key_to_id = key_to_id

        if self._ids_by_length is None:
            clone._reset_blocking()
        else:
            clone._gram_counts = [
                count for old_id, count in enumerate(self._gram_counts) if old_id in id_map
            ]
            postings: Dict[str, List[int]] = {}
            for gram, name_ids in self._postings.items():
                remapped = [id_map[name_id] for name_id in name_ids if name_id in id_map]
                if remapped:
                    postings[gram] = remapped
            clone._postings = postings
            clone._rebuild_length_buckets()
        return clone

    def _reset_blocking(self) -> None:
        self._ids_by_length = None
        self._pairs_by_length = {}
        self._gram_counts = []
        self._postings = {}

    def _rebuild_length_buckets(self) -> None:
        """Recompute the (cheap) length-bucket structures from keys and refs.

        Called by the incremental constructors after the expensive trigram
        structures have been updated in place; a fresh pass over the unique
        names costs O(#names), far below re-deriving n-grams.
        """
        ids_by_length: Dict[int, List[int]] = {}
        pairs_by_length: Dict[int, int] = {}
        for name_id, key in enumerate(self.keys):
            length = len(key)
            ids_by_length.setdefault(length, []).append(name_id)
            pairs_by_length[length] = pairs_by_length.get(length, 0) + len(self._refs[name_id])
        self._pairs_by_length = pairs_by_length
        self._ids_by_length = ids_by_length

    # -- lookups ----------------------------------------------------------------

    @property
    def unique_name_count(self) -> int:
        return len(self.keys)

    def id_for(self, key: str) -> Optional[int]:
        """Name id of an exact (already folded) name key, or ``None``."""
        return self._key_to_id.get(key)

    def refs_for_id(self, name_id: int) -> List[RepositoryNodeRef]:
        """Node refs sharing a name, in global-id order (treat as read-only)."""
        return self._refs[name_id]

    def fanout(self, name_id: int) -> int:
        return len(self._refs[name_id])

    def gram_count(self, name_id: int) -> int:
        self._ensure_blocking()
        return self._gram_counts[name_id]

    def query_grams(self, query: str):
        """Padded trigram set of a (folded) query string."""
        return _ngrams(query, self.gram_size)

    def gram_overlap_counts(self, query_grams) -> Dict[int, int]:
        """``name_id -> |G(query) ∩ G(name)|`` for names sharing any trigram."""
        self._ensure_blocking()
        counts: Dict[int, int] = {}
        postings = self._postings
        get = counts.get
        for gram in query_grams:
            for name_id in postings.get(gram, ()):
                counts[name_id] = get(name_id, 0) + 1
        return counts

    # -- fuzzy-name blocking -----------------------------------------------------

    def fuzzy_candidates(self, query: str, threshold: float) -> Tuple[List[int], int]:
        """Name ids that may score ``>= threshold`` against ``query``.

        Applies the length-difference bound and the trigram overlap bound from
        the module docstring; both are lossless, so every name scoring at or
        above the threshold survives.  Returns ``(surviving name ids,
        pruned pair count)`` where the pair count weights each pruned name by
        its node fanout (for the ``comparisons_pruned`` counter).
        """
        query_length = len(query)
        ids_by_length = self._ensure_blocking()

        survivors: List[int] = []
        pruned_pairs = 0
        # The query has at most ``gram_ceiling`` padded grams, so a length
        # bucket whose edit slack reaches the ceiling cannot prune by overlap.
        # The gram set is built only once some bucket's ceiling bound is
        # positive, and the posting-list scan only once the exact bound is:
        # at typical thresholds the length bound does all the pruning and
        # neither would be read.
        gram_ceiling = query_length + self.gram_size - 1
        query_grams = None
        counts: Optional[Dict[int, int]] = None
        fanout = self.fanout
        for length, name_ids in ids_by_length.items():
            longest = length if length > query_length else query_length
            limit = edit_budget(threshold, longest)
            if abs(length - query_length) > limit:
                pruned_pairs += self._pairs_by_length[length]
                continue
            slack = limit * _GRAM_SLACK_PER_EDIT
            min_overlap = 0
            if gram_ceiling > slack:
                if query_grams is None:
                    query_grams = self.query_grams(query)
                min_overlap = len(query_grams) - slack
            if min_overlap > 0:
                if counts is None:
                    counts = self.gram_overlap_counts(query_grams)
                counts_get = counts.get
                for name_id in name_ids:
                    if counts_get(name_id, 0) < min_overlap:
                        pruned_pairs += fanout(name_id)
                    else:
                        survivors.append(name_id)
            else:
                survivors.extend(name_ids)
        return survivors, pruned_pairs
