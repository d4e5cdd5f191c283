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

Banded candidate generation (sublinear scan, same losslessness)
---------------------------------------------------------------

The linear prefilter still *visits* every length-compatible unique name.  The
banded path (:meth:`RepositoryNameIndex._banded_candidates`, opt-in via
:meth:`RepositoryNameIndex.enable_banded`, always on for frozen-snapshot
indexes) is a prefix-filter over the same trigram postings: let ``g`` be the
query's gram count and ``m`` the *weakest* overlap bound over every length
that can pass the length filter (``m = g - limit_max * 2q`` with ``limit_max``
the largest per-pair edit budget among admissible lengths — admissibility of
lengths above the query's is monotone, so ``limit_max`` is found by a short
upward scan).  Any name with overlap ``>= m`` must contain at least one gram
of **any** ``g - m + 1``-subset of the query's grams (missing all of them
caps the overlap at ``m - 1``), so the union of the ``g - m + 1`` *rarest*
query grams' posting lists is a lossless candidate band whenever ``m >= 2``.
Each banded candidate is then re-checked with the exact per-length bounds the
linear scan applies, so the surviving name set — and therefore every score,
ranking and counter downstream — is identical to the linear scan's.  When the
bound cannot be proven useful (``m <= 1``: low thresholds, tiny queries) the
index falls back to the linear scan unchanged.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

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
        self._banded_enabled = False

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

    @classmethod
    def from_serialized(
        cls,
        repository: SchemaRepository,
        case_sensitive: bool,
        keys: List[str],
        node_name_ids: Sequence[int],
    ) -> "RepositoryNameIndex":
        """Rebuild an index from its snapshot payload without scanning names.

        ``node_name_ids`` holds one name id per repository node in global-id
        order (the shape written by :mod:`repro.service.snapshot`), so the
        per-name ref lists fall out of a single pass over the repository's
        node refs — no name folding, no dict probing, and the global-id
        ordering within each list holds by construction.  Blocking structures
        stay lazy unless the snapshot installs them too.
        """
        if len(node_name_ids) != repository.node_count:
            raise ValueError(
                f"serialized name index covers {len(node_name_ids)} nodes but repository "
                f"{repository.name!r} has {repository.node_count}"
            )
        if node_name_ids and not 0 <= min(node_name_ids) <= max(node_name_ids) < len(keys):
            # A corrupt payload must fail loudly — negative ids would silently
            # file nodes under the wrong name via Python's tail indexing.
            raise ValueError(
                f"serialized name index references name ids outside [0, {len(keys)})"
            )
        clone = cls.__new__(cls)
        clone.case_sensitive = case_sensitive
        clone.version = next(_VERSION_COUNTER)
        clone.repository_version = getattr(repository, "version", 0)
        clone.node_count = repository.node_count
        refs: List[List[RepositoryNodeRef]] = [[] for _ in keys]
        for ref, name_id in zip(repository.node_refs(), node_name_ids):
            refs[name_id].append(ref)
        clone.keys = list(keys)
        clone._refs = refs
        clone._key_to_id = {key: name_id for name_id, key in enumerate(clone.keys)}
        clone._banded_enabled = False
        clone._reset_blocking()
        return clone

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
        one and rebuild lazily against their own key list.
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

    def install_blocking(self, gram_counts: List[int], postings: Dict[str, List[int]]) -> None:
        """Install deserialized blocking structures (snapshot load).

        The cheap length buckets are recomputed from the keys; only the
        trigram structures — the expensive part — come from the payload.
        """
        if len(gram_counts) != len(self.keys):
            raise ValueError(
                f"blocking payload has {len(gram_counts)} gram counts for "
                f"{len(self.keys)} names"
            )
        self._gram_counts = list(gram_counts)
        self._postings = {gram: list(ids) for gram, ids in postings.items()}
        self._rebuild_length_buckets()

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
        clone._banded_enabled = getattr(self, "_banded_enabled", False)

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
        clone._banded_enabled = getattr(self, "_banded_enabled", False)

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
        query_grams = self.query_grams(query) if threshold > 0.0 else ()
        query_gram_count = len(query_grams)
        if getattr(self, "_banded_enabled", False) and query_gram_count:
            banded = self._banded_candidates(query_length, query_grams, threshold)
            if banded is not None:
                return banded
        ids_by_length = self._ensure_blocking()

        survivors: List[int] = []
        pruned_pairs = 0
        # The posting-list scan is only paid for once some length bucket can
        # actually use the trigram bound (``min_overlap > 0`` needs a high
        # threshold); at typical thresholds the length bound does all the
        # pruning and the overlap counts would be discarded unread.
        counts: Optional[Dict[int, int]] = None
        for length, name_ids in ids_by_length.items():
            longest = length if length > query_length else query_length
            limit = edit_budget(threshold, longest)
            if abs(length - query_length) > limit:
                pruned_pairs += self._pairs_by_length[length]
                continue
            min_overlap = query_gram_count - limit * _GRAM_SLACK_PER_EDIT
            if min_overlap > 0:
                if counts is None:
                    counts = self.gram_overlap_counts(query_grams)
                counts_get = counts.get
                for name_id in name_ids:
                    if counts_get(name_id, 0) < min_overlap:
                        pruned_pairs += len(self._refs[name_id])
                    else:
                        survivors.append(name_id)
            else:
                survivors.extend(name_ids)
        return survivors, pruned_pairs

    # -- banded (prefix-filter) candidate generation ------------------------------

    @property
    def banded_enabled(self) -> bool:
        """Whether the sublinear banded candidate path may engage."""
        return getattr(self, "_banded_enabled", False)

    def enable_banded(self) -> "RepositoryNameIndex":
        """Opt this index into the banded candidate path (returns ``self``).

        Purely an access-path switch: whenever the band bound is provable the
        banded scan returns the exact same surviving name set (hence the same
        scores, rankings and counters) as the linear scan, and it silently
        falls back to the linear scan otherwise — see the module docstring's
        losslessness argument.  Incremental clones inherit the setting.
        """
        self._banded_enabled = True
        return self

    # The four hooks below are the banded scan's only view of the index data,
    # so a subclass backed by different storage (the frozen mmap index) can
    # reuse the algorithm — and its losslessness proof — unchanged.

    def _banded_prepare(self) -> None:
        """Make postings/length structures available for the banded scan."""
        self._ensure_blocking()

    def _banded_max_key_length(self) -> int:
        ids_by_length = self._ids_by_length
        return max(ids_by_length) if ids_by_length else 0

    def _banded_posting(self, gram: str):
        """Posting list of one gram (any int sequence; empty for unknown)."""
        return self._postings.get(gram, ())

    def _banded_name_length(self, name_id: int) -> int:
        return len(self.keys[name_id])

    def _banded_name_grams(self, name_id: int):
        return _ngrams(self.keys[name_id], self.gram_size)

    def _banded_candidates(
        self, query_length: int, query_grams, threshold: float
    ) -> Optional[Tuple[List[int], int]]:
        """Prefix-filter band scan, or ``None`` when the bound is unprovable.

        Computes ``limit_max``, the largest per-pair edit budget over every
        name length that can pass the length filter: lengths at or below the
        query's share ``edit_budget(threshold, query_length)``, and for longer
        lengths admissibility (``length - query_length <= edit_budget``) is
        monotone — the budget grows by less than one per unit of length — so
        one upward scan to the first violation finds the maximum.  With
        ``m = g - limit_max * 2q`` at least 2, every linear-scan survivor
        shares >= ``m`` grams with the query and is therefore found in the
        posting lists of the ``g - m + 1`` rarest query grams; each candidate
        is re-verified with the exact per-length bounds, so the survivor set
        is identical to the linear scan's.  Pruned pair accounting uses the
        identity ``sum(fanout) over all names == node_count``.
        """
        if threshold <= 0.0:
            return None
        self._banded_prepare()
        max_length = self._banded_max_key_length()
        if max_length <= 0:
            return None
        query_gram_count = len(query_grams)
        limit_max = edit_budget(threshold, query_length)
        length = query_length + 1
        while length <= max_length:
            limit = edit_budget(threshold, length)
            if length - query_length > limit:
                break
            if limit > limit_max:
                limit_max = limit
            length += 1
        min_required = query_gram_count - limit_max * _GRAM_SLACK_PER_EDIT
        if min_required <= 1:
            # m == 1 would make the band the union of *all* query grams'
            # postings — no better than the linear overlap scan; m <= 0 means
            # some admissible length cannot be pruned by overlap at all.
            return None
        prefix_size = query_gram_count - min_required + 1
        posting = self._banded_posting
        ranked = sorted(query_grams, key=lambda gram: (len(posting(gram)), gram))
        candidates: set = set()
        for gram in ranked[:prefix_size]:
            candidates.update(posting(gram))
        survivors: List[int] = []
        kept_pairs = 0
        name_length = self._banded_name_length
        name_grams = self._banded_name_grams
        fanout = self.fanout
        for name_id in sorted(candidates):
            length = name_length(name_id)
            longest = length if length > query_length else query_length
            limit = edit_budget(threshold, longest)
            if abs(length - query_length) > limit:
                continue
            min_overlap = query_gram_count - limit * _GRAM_SLACK_PER_EDIT
            if min_overlap > 0 and len(query_grams & name_grams(name_id)) < min_overlap:
                continue
            survivors.append(name_id)
            kept_pairs += fanout(name_id)
        return survivors, self.node_count - kept_pairs
