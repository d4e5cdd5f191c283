"""The sharded matching service: fan-out/merge over independent shards.

:class:`ShardedMatchingService` partitions a repository forest into ``N``
shards — every shard is a complete, independent
:class:`~repro.service.MatchingService` over its own sub-repository — and
answers queries by fanning them out across the shards and merging the
per-shard rankings.  The paper's element-clustering design keeps per-cluster
search independent; sharding pushes the same independence one level up: a
cluster never spans trees, a shard holds whole trees, so no search, cluster
or mapping ever crosses a shard boundary.

Exactness (sharded ≡ unsharded, bit for bit)
--------------------------------------------

The merged ranking is identical to the one the unsharded service produces,
for any shard count, because every pipeline stage distributes over trees:

* **element matching** scores (personal node, repository node) pairs
  independently, so the union of the shards' candidate tables *is* the
  unsharded table (modulo coordinates — see below);
* **clustering** must be tree-local, which the bundled partition clusterer is
  (fragmentation is a deterministic function of one tree); the constructor
  rejects shards configured with any other clusterer;
* **mapping generation** already runs per cluster; per-shard truncation in
  top-``k`` mode keeps each shard's ``k`` best, a superset of what the shard
  contributes to the global top-``k``;
* **ranking** merges with the same canonical
  :func:`~repro.mapping.ranking.ranking_sort_key` the unsharded service uses.

What does *not* distribute is the coordinate space: each shard numbers its
trees and global node ids from zero.  The service keeps the translation
tables (shard-local tree id → merged tree id, and the corresponding global-id
offsets) and rewrites every mapping and cluster report back into
merged-repository coordinates before merging — including the **cluster ids**:
shard-local ids are re-ranked into the exact ids the unsharded clusterer
would have assigned (cluster ids are ordinal in (tree, fragment) order and
the translation is order-preserving), so even score ties break identically.

The merged candidate table and cluster set are translated the same way, but
only when first read (:class:`MergedMatchResult`): no response reads them,
so a served query never pays for them.  The result keeps its shard results
and the translation tables of its query, so a later read builds exactly the
tables an eager merge would have.

Cross-shard incumbent sharing
-----------------------------

In top-``k`` mode all shards of one query share a single
:class:`~repro.mapping.engine.TopKPool` through per-shard
:class:`~repro.mapping.engine.TranslatingTopKPool` views (the view rewrites
realized signatures into merged coordinates so deduplication works on the
merged mapping identity).  A good mapping found on any shard raises the
pruning floor everywhere — the shard-level analogue of PR 3's cross-cluster
bound sharing, and exact for the same reason: the floor is always a realized,
distinct mapping score and complete policies never lose ties.

Batched front-end
-----------------

:meth:`ShardedMatchingService.match_many` answers a batch through the batch
front end every backend shares
(:meth:`~repro.api.matcher.MatcherAPIMixin._answer_batch`): identical
schemas (same fingerprint, same effective ``δ``/``top_k``) are deduplicated,
the set's result cache answers what it holds, and only the remaining misses
are dispatched — every (miss, shard) pair becomes one shard task, run inline
or, in resilient mode, on the fan-out's attempt threads.  The set caches for
its shards: a shard inside a set runs its pipeline directly and never reads
or writes a cache of its own.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.api.envelope import PROTOCOL_VERSION
from repro.api.matcher import MatcherAPIMixin
from repro.clustering.cluster import Cluster, ClusterSet
from repro.clustering.kmeans import ClusteringResult
from repro.errors import ConfigurationError, ShardError, UnknownTreeError
from repro.mapping.base import GenerationResult
from repro.mapping.engine import TopKPool, TranslatingTopKPool
from repro.mapping.model import SchemaMapping
from repro.mapping.ranking import merge_ranked
from repro.matchers.base import ElementMatcher
from repro.matchers.selection import MappingElement, MappingElementSets
from repro.schema.repository import RepositoryNodeRef, SchemaRepository
from repro.schema.serialization import tree_from_dict, tree_to_dict
from repro.resilience.fanout import ResiliencePolicy, ResilientFanout, TaskOutcome
from repro.schema.tree import SchemaTree
from repro.service.fingerprint import fingerprint_covers, schema_fingerprint
from repro.service.partition import PartitionClusterer
from repro.service.service import MatchingService
from repro.shard.router import ShardRouter, SizeBalancedRouter, check_shard_count
from repro.system.results import ClusterReport, MatchResult, ResultCache
from repro.utils.counters import CounterSet, ThreadSafeCounterSet
from repro.utils.timers import StageTimer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.resilience.deadline import Deadline


def copy_tree(tree: SchemaTree) -> SchemaTree:
    """An unregistered deep copy of a tree (same nodes, ``tree_id`` unset).

    Trees carry their registration (``tree_id``) and can belong to only one
    repository at a time, so building shard repositories from a live
    repository copies through the serialization round-trip — the same code
    path snapshots already trust for identity.
    """
    return tree_from_dict(tree_to_dict(tree))


def split_repository(
    repository: SchemaRepository, assignment: Sequence[int]
) -> List[SchemaRepository]:
    """Build one sub-repository per shard from an assignment.

    ``assignment[g]`` names the shard of tree ``g``.  Within a shard, trees
    are registered in ascending merged tree id — the invariant every
    translation table in this module relies on (shard-local tree order ≡
    merged tree order restricted to the shard).
    """
    if len(assignment) != repository.tree_count:
        raise ShardError(
            f"assignment covers {len(assignment)} trees, repository has {repository.tree_count}"
        )
    shard_count = max(assignment) + 1 if len(assignment) else 0
    shards = [
        SchemaRepository(name=f"{repository.name}-shard-{index}")
        for index in range(shard_count)
    ]
    for tree_id, shard_id in enumerate(assignment):
        if not 0 <= shard_id < shard_count:
            raise ShardError(f"tree {tree_id} assigned to invalid shard {shard_id}")
        shards[shard_id].add_tree(copy_tree(repository.tree(tree_id)))
    for index, shard in enumerate(shards):
        if shard.tree_count == 0:
            raise ShardError(f"shard {index} received no trees")
    return shards


class _ShardSignatureTranslator:
    """Rewrites one shard's mapping signatures into merged coordinates.

    A signature is the tuple of shard-local global node ids the mapping
    targets.  Local global ids are contiguous per local tree, so translation
    is "find the local tree by bisection, add that tree's offset delta".
    """

    __slots__ = ("starts", "deltas")

    def __init__(self, starts: Tuple[int, ...], deltas: Tuple[int, ...]) -> None:
        self.starts = starts
        self.deltas = deltas

    def __call__(self, signature: Tuple[int, ...]) -> Tuple[int, ...]:
        starts = self.starts
        deltas = self.deltas
        return tuple(
            local_id + deltas[bisect_right(starts, local_id) - 1] for local_id in signature
        )


def _failure_cause(outcome: TaskOutcome) -> Optional[str]:
    """Why a shard's task failed: its skip reason and its last error, as far as known."""
    if outcome.skipped_reason and outcome.error:
        return f"{outcome.skipped_reason} ({outcome.error})"
    return outcome.skipped_reason or outcome.error


def _run_shard_query(task) -> MatchResult:
    """Body of one shard fan-out task.

    Runs the shard's pipeline directly: the set's front end caches for its
    shards, and a result pruned against a pool shared with sibling shards is
    not the shard's own answer anyway.
    """
    shard, personal_schema, delta, top_k, pool, deadline = task
    return shard.system.match(
        personal_schema, delta=delta, top_k=top_k, shared_pool=pool, deadline=deadline
    )


class _MergeCoordinates:
    """Shard-local → merged coordinates as they stood when one query ran.

    ``local_to_global[s][l]`` is the merged tree id of shard ``s``'s local
    tree ``l``, ``global_offsets[g]`` the merged global id of tree ``g``'s
    first node, and ``cluster_map`` maps (shard id, local cluster id) to the
    merged cluster id.  The service replaces its tables on every mutation and
    never changes them in place, so holding them keeps this query's
    coordinates — plain data, with no reference to the service.
    """

    __slots__ = ("local_to_global", "global_offsets", "cluster_map")

    def __init__(
        self,
        local_to_global: Tuple[Tuple[int, ...], ...],
        global_offsets: Tuple[int, ...],
        cluster_map: Dict[Tuple[int, int], int],
    ) -> None:
        self.local_to_global = local_to_global
        self.global_offsets = global_offsets
        self.cluster_map = cluster_map

    def ref(self, shard_id: int, ref: RepositoryNodeRef) -> RepositoryNodeRef:
        tree_id = self.local_to_global[shard_id][ref.tree_id]
        return RepositoryNodeRef(
            global_id=self.global_offsets[tree_id] + ref.node_id,
            tree_id=tree_id,
            node_id=ref.node_id,
        )

    def element(self, shard_id: int, element: MappingElement) -> MappingElement:
        return MappingElement(
            personal_node_id=element.personal_node_id,
            ref=self.ref(shard_id, element.ref),
            similarity=element.similarity,
        )

    def mapping(self, shard_id: int, mapping: SchemaMapping) -> SchemaMapping:
        cluster_id = mapping.cluster_id
        if cluster_id is not None:
            cluster_id = self.cluster_map[(shard_id, cluster_id)]
        return SchemaMapping(
            assignment={
                node_id: self.element(shard_id, element)
                for node_id, element in mapping.assignment.items()
            },
            score=mapping.score,
            components=dict(mapping.components),
            target_edge_count=mapping.target_edge_count,
            tree_id=self.local_to_global[shard_id][mapping.tree_id],
            cluster_id=cluster_id,
        )


#: Serializes the first reads of merged results' deferred tables.  No
#: response reads them, so builds are rare; one module lock (rather than one
#: per result) keeps results picklable.
_BUILD_LOCK = threading.Lock()


class _BuiltOnFirstRead:
    """A :class:`MergedMatchResult` table, built by the named method on first read."""

    def __init__(self, builder: str) -> None:
        self.builder = builder

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, result, owner=None):
        if result is None:
            return self
        return result._table(self.name, self.builder)

    def __set__(self, result, value) -> None:
        # The dataclass constructor assigns a None placeholder; the table
        # itself only ever comes from the builder.
        if value is not None:
            raise AttributeError(f"a merged result builds its own {self.name}")


class MergedMatchResult(MatchResult):
    """A merged shard answer whose candidate table and cluster set build on first read.

    No response reads ``candidates`` or ``clustering`` (:mod:`repro.api.encode`
    renders mappings, counters, timers and cluster reports), so the merge
    leaves both to their first reader.  What the builds need is captured when
    the query ran: the surviving ``(shard id, result)`` pairs and the
    :class:`_MergeCoordinates` then in force.  A first read after a mutation,
    a reload of the set or a pickle round-trip therefore builds exactly the
    tables an eager merge would have.  Racing first readers get one object;
    once both tables exist the shard results are dropped.
    """

    candidates = _BuiltOnFirstRead("_merge_candidates")
    clustering = _BuiltOnFirstRead("_merge_clustering")

    def __init__(
        self,
        shard_pairs: Sequence[Tuple[int, MatchResult]],
        coordinates: _MergeCoordinates,
        **fields,
    ) -> None:
        self._shard_pairs = tuple(shard_pairs)
        self._coordinates = coordinates
        self._tables: Dict[str, object] = {}
        super().__init__(candidates=None, clustering=None, **fields)

    def _table(self, name: str, builder: str):
        tables = self._tables
        if name not in tables:
            with _BUILD_LOCK:
                if name not in tables:
                    tables[name] = getattr(self, builder)()
                    if len(tables) == 2:
                        self._shard_pairs = ()
        return tables[name]

    def _merge_candidates(self) -> MappingElementSets:
        """The union of the shards' candidate tables, in unsharded element order.

        The unsharded selector emits a node's elements in ascending global id
        (repository scan order); per shard the same holds locally, and
        translation is monotone within a shard, so sorting the translated
        union by global id reproduces the unsharded table exactly.  Built on
        the first read of :attr:`candidates`.
        """
        coordinates = self._coordinates
        node_ids = self._shard_pairs[0][1].candidates.personal_node_ids
        merged = MappingElementSets(node_ids)
        for node_id in node_ids:
            elements: List[MappingElement] = []
            for shard_id, result in self._shard_pairs:
                elements.extend(
                    coordinates.element(shard_id, element)
                    for element in result.candidates.elements_for(node_id)
                )
            elements.sort(key=lambda element: element.ref.global_id)
            for element in elements:
                merged.add(element)
        return merged

    def _merge_clustering(self) -> Optional[ClusteringResult]:
        """The shards' clusters in merged coordinates and merged cluster ids.

        Built on the first read of :attr:`clustering`.
        """
        coordinates = self._coordinates
        clusters: List[Optional[Cluster]] = [None] * len(coordinates.cluster_map)
        counters = CounterSet()
        elapsed = 0.0
        for shard_id, result in self._shard_pairs:
            if result.clustering is None:  # pragma: no cover - service always clusters
                return None
            counters.merge(result.clustering.counters)
            elapsed += result.clustering.elapsed_seconds
            for cluster in result.clustering.clusters:
                merged_id = coordinates.cluster_map[(shard_id, cluster.cluster_id)]
                clusters[merged_id] = Cluster(
                    cluster_id=merged_id,
                    tree_id=coordinates.local_to_global[shard_id][cluster.tree_id],
                    members={coordinates.ref(shard_id, member) for member in cluster.members},
                    centroid=(
                        None
                        if cluster.centroid is None
                        else coordinates.ref(shard_id, cluster.centroid)
                    ),
                )
        return ClusteringResult(
            clusters=ClusterSet(cluster for cluster in clusters if cluster is not None),
            counters=counters,
            elapsed_seconds=elapsed,
        )


class ShardedRepositoryView:
    """A read-only, merged-coordinate view over the shard repositories.

    Exposes the subset of the :class:`~repro.schema.repository.SchemaRepository`
    surface the front-ends (CLI printing, serve responses) read — tree lookup
    by merged id, sizes, a summary — without materializing a merged forest.
    The returned tree objects are the live shard trees: their ``tree_id``
    attribute is *shard-local*; treat them as read-only name/structure views.
    """

    def __init__(self, service: "ShardedMatchingService") -> None:
        self._service = service
        self.name = f"sharded({service.shard_count})"

    @property
    def tree_count(self) -> int:
        return self._service.tree_count

    @property
    def node_count(self) -> int:
        return self._service.node_count

    @property
    def version(self) -> int:
        """Sum of shard mutation versions — bumps whenever any shard mutates."""
        return sum(shard.repository.version for shard in self._service.shards)

    def tree(self, tree_id: int) -> SchemaTree:
        return self._service.tree(tree_id)

    def summary(self) -> Dict[str, int]:
        sizes = self._service._tree_sizes
        return {
            "trees": self.tree_count,
            "nodes": self.node_count,
            "largest_tree": max(sizes) if sizes else 0,
            "smallest_tree": min(sizes) if sizes else 0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardedRepositoryView(shards={self._service.shard_count}, trees={self.tree_count})"


class ShardedMatchingService(MatcherAPIMixin):
    """Fan-out/merge matching over ``N`` independent per-shard services.

    Construct via :meth:`from_repository` (split a repository in process) or
    :func:`repro.shard.manifest.load_shard_set` (load a persisted shard set).
    The direct constructor wires pre-built shards and validates the
    invariants the merge step depends on: every shard non-empty, tree-local
    (partition) clustering, and identical matching configuration across
    shards.

    Parameters
    ----------
    shards:
        One :class:`~repro.service.MatchingService` per shard.
    assignment:
        Merged tree id → shard id.  Within each shard, local tree order must
        follow merged tree order (as :func:`split_repository` guarantees).
    router:
        Placement policy for live :meth:`add_tree` calls (and recorded in
        manifests).  Defaults to :class:`~repro.shard.router.SizeBalancedRouter`.
    query_cache_size:
        Capacity of each segment of the set's result cache
        (:class:`~repro.system.results.ResultCache`): merged results keyed by
        (schema fingerprint, effective ``δ``, ``top_k``, shard-set version).
        ``0`` means no cache.  A hit in the recent segment returns the earlier
        :class:`MergedMatchResult` object without touching any shard; it
        holds the translated mappings and the shard results its candidate
        table and cluster set are built from on first read.  A hit in the
        reused segment returns a compact copy, which holds neither the shard
        results nor the tables.  The shards' own caches are never used.
    global_version:
        The shard-set version (manifest loads pass the manifest's value).
        Bumped by every live mutation.
    resilience:
        Optional :class:`~repro.resilience.ResiliencePolicy`.  When given,
        shard queries run through a :class:`~repro.resilience.ResilientFanout`
        (retries with seeded backoff, optional hedging, per-shard circuit
        breakers) instead of inline, and a shard that stays unreachable
        degrades the answer to the surviving shards — the merged result is
        then marked ``degraded`` and lists the ``skipped_shards``.  ``None``
        keeps the strict behaviour: any shard failure propagates.
    """

    backend_kind = "sharded"

    def __init__(
        self,
        shards: Sequence[MatchingService],
        assignment: Sequence[int],
        *,
        router: Optional[ShardRouter] = None,
        query_cache_size: int = 64,
        global_version: int = 1,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> None:
        if not shards:
            raise ShardError("a sharded service needs at least one shard")
        if query_cache_size < 0:
            raise ConfigurationError(
                f"query_cache_size must be non-negative, got {query_cache_size}"
            )
        self.shards: List[MatchingService] = list(shards)
        self._assignment: List[int] = list(assignment)
        self.router = router or SizeBalancedRouter()
        self.query_cache_size = query_cache_size
        self._result_cache = ResultCache(query_cache_size)
        self.global_version = global_version
        # Thread-safe: the asyncio server runs concurrent queries against one
        # service instance from thread-pool workers.
        self.counters = ThreadSafeCounterSet()
        self.resilience = resilience
        # One fanout per service: breakers and fault-injection call counters
        # must persist across queries to be meaningful.
        self._fanout: Optional[ResilientFanout] = (
            None
            if resilience is None
            else ResilientFanout(resilience, len(shards), counters=self.counters)
        )
        self._validate_shards()
        self._rebuild_translation()
        # Per-shard router loads are only needed for live add_tree placement
        # and may be expensive to compute (the affinity router fragments every
        # tree), so they materialize on first use.
        self._shard_loads: Optional[List[int]] = None
        self.repository = ShardedRepositoryView(self)

    # -- invariants -----------------------------------------------------------

    @staticmethod
    def _shard_config(shard: MatchingService) -> tuple:
        """Everything that must agree across shards for the merge to be exact.

        A configuration mismatch would not crash — it would silently produce
        a ranking that differs from the unsharded service — so every input
        that shapes stage 1-3 results participates: thresholds, the matcher
        (by snapshot descriptor, falling back to its type for custom
        matchers) and the partition's fragment size.
        """
        from repro.service.snapshot import _matcher_config

        matcher = shard.matcher
        return (
            shard.delta,
            shard.element_threshold,
            _matcher_config(matcher) or f"custom:{type(matcher).__qualname__}",
            None if shard.partition is None else shard.partition.max_fragment_size,
        )

    def _validate_shards(self) -> None:
        reference = self._shard_config(self.shards[0])
        for index, shard in enumerate(self.shards):
            if shard.repository.tree_count == 0:
                raise ShardError(f"shard {index} serves an empty repository")
            if shard.variant_name != PartitionClusterer.name:
                raise ShardError(
                    f"shard {index} uses clusterer {shard.variant_name!r}; the fan-out "
                    "merge is only exact for the tree-local 'partition' clusterer"
                )
            config = self._shard_config(shard)
            if config != reference:
                raise ShardError(
                    f"shard {index} is configured with {config} but shard 0 with "
                    f"{reference}; all shards must share one matching configuration "
                    "(delta, element threshold, batch mode, matcher, fragment size)"
                )
        counts = [0] * len(self.shards)
        for tree_id, shard_id in enumerate(self._assignment):
            if not 0 <= shard_id < len(self.shards):
                raise ShardError(f"tree {tree_id} assigned to unknown shard {shard_id}")
            counts[shard_id] += 1
        for index, shard in enumerate(self.shards):
            if counts[index] != shard.repository.tree_count:
                raise ShardError(
                    f"assignment gives shard {index} {counts[index]} trees but its "
                    f"repository holds {shard.repository.tree_count}"
                )

    def _rebuild_translation(self) -> None:
        """Recompute the shard-local → merged coordinate tables.

        ``_local_to_global[s][l]`` is the merged tree id of shard ``s``'s
        local tree ``l``; ``_global_offsets[g]`` is the merged global id of
        tree ``g``'s first node and ``_tree_sizes[g]`` its node count;
        ``_translators[s]`` rewrites shard-local global ids (and thus
        signatures) into merged ones.  Sizes are read off the shards' tree
        offsets, so a frozen shard never materializes a tree here.  The
        tables are replaced, never changed in place: merged results keep
        the ones their query ran with (:class:`_MergeCoordinates`).
        """
        local_to_global: List[List[int]] = [[] for _ in self.shards]
        self._merged_to_local: List[Tuple[int, int]] = []
        for tree_id, shard_id in enumerate(self._assignment):
            self._merged_to_local.append((shard_id, len(local_to_global[shard_id])))
            local_to_global[shard_id].append(tree_id)
        local_offsets = []
        sizes = [0] * len(self._assignment)
        for shard, trees in zip(self.shards, local_to_global):
            offsets = [shard.repository.tree_offset(local_id) for local_id in range(len(trees))]
            ends = offsets[1:] + [shard.repository.node_count]
            for tree_id, start, end in zip(trees, offsets, ends):
                sizes[tree_id] = end - start
            local_offsets.append(offsets)
        global_offsets = []
        total = 0
        for size in sizes:
            global_offsets.append(total)
            total += size
        self._local_to_global = tuple(tuple(trees) for trees in local_to_global)
        self._global_offsets = tuple(global_offsets)
        self._tree_sizes = tuple(sizes)
        self._total_nodes = total
        self._translators = [
            _ShardSignatureTranslator(
                tuple(offsets),
                tuple(global_offsets[tree_id] - start for tree_id, start in zip(trees, offsets)),
            )
            for trees, offsets in zip(local_to_global, local_offsets)
        ]

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_repository(
        cls,
        repository: SchemaRepository,
        shard_count: int,
        *,
        router: Optional[ShardRouter] = None,
        matcher: Optional[ElementMatcher] = None,
        element_threshold: float = 0.6,
        delta: float = 0.75,
        query_cache_size: int = 64,
        partition_max_fragment_size: int = 20,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> "ShardedMatchingService":
        """Split a repository into ``shard_count`` shards and serve them.

        The source repository is left untouched (shards hold copies of its
        trees); every shard gets the same matching configuration and the
        snapshot-friendly partition clusterer the merge step requires.
        """
        active_router = router or SizeBalancedRouter()
        check_shard_count(shard_count, repository.tree_count)
        assignment = active_router.assign(repository, shard_count)
        shard_repositories = split_repository(repository, assignment)
        if len(shard_repositories) != shard_count:
            raise ShardError(
                f"router {active_router.name!r} used {len(shard_repositories)} of "
                f"{shard_count} shards (every shard needs at least one tree)"
            )
        shards = [
            MatchingService(
                shard_repository,
                matcher=matcher,
                element_threshold=element_threshold,
                delta=delta,
                query_cache_size=query_cache_size,
                partition_max_fragment_size=partition_max_fragment_size,
            )
            for shard_repository in shard_repositories
        ]
        return cls(
            shards,
            assignment,
            router=active_router,
            query_cache_size=query_cache_size,
            resilience=resilience,
        )

    # -- accessors ------------------------------------------------------------

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    @property
    def tree_count(self) -> int:
        return len(self._assignment)

    @property
    def node_count(self) -> int:
        return self._total_nodes

    @property
    def delta(self) -> float:
        return self.shards[0].delta

    @property
    def element_threshold(self) -> float:
        return self.shards[0].element_threshold

    @property
    def assignment(self) -> List[int]:
        """Merged tree id → shard id (a copy; mutate via add/remove/rebalance)."""
        return list(self._assignment)

    @property
    def query_cache_len(self) -> int:
        return len(self._result_cache)

    def tree(self, tree_id: int) -> SchemaTree:
        """The tree with merged id ``tree_id`` (a live, shard-local object)."""
        if not 0 <= tree_id < len(self._assignment):
            raise UnknownTreeError(tree_id, context=f"sharded repository ({self.tree_count} trees)")
        shard_id, local_id = self._merged_to_local[tree_id]
        return self.shards[shard_id].repository.tree(local_id)

    def build_derived_state(self) -> None:
        """Eagerly warm every shard (indexes, oracles, partitions)."""
        for shard in self.shards:
            shard.build_derived_state()

    def close(self) -> None:
        """Release the resilient fan-out's thread pools (if any were started)."""
        if self._fanout is not None:
            self._fanout.close()

    def _loads(self) -> List[int]:
        """Current per-shard loads in the router's weight unit (lazily built)."""
        if self._shard_loads is None:
            self._shard_loads = [
                sum(
                    self.router.tree_weight(shard.repository.tree(local_id))
                    for local_id in range(shard.repository.tree_count)
                )
                for shard in self.shards
            ]
        return self._shard_loads

    # -- queries --------------------------------------------------------------

    def _match_schema(
        self,
        personal_schema: SchemaTree,
        delta: Optional[float] = None,
        top_k: Optional[int] = None,
        deadline: Optional["Deadline"] = None,
    ) -> MatchResult:
        """Match one personal schema across all shards and merge the ranking.

        Semantics (and results, bit for bit) are those of the unsharded
        :meth:`MatchingService.match <repro.service.MatchingService.match>`
        over the merged repository.  Behind the public :meth:`match
        <repro.api.matcher.MatcherAPIMixin.match>` shim, which also accepts
        typed :class:`~repro.api.envelope.MatchRequest` envelopes.
        """
        return self._match_many_schemas(
            [personal_schema], delta=delta, top_k=top_k, deadline=deadline
        )[0]

    def _match_many_schemas(
        self,
        personal_schemas: Sequence[SchemaTree],
        delta: Optional[float] = None,
        top_k: Optional[int] = None,
        deadline: Optional["Deadline"] = None,
    ) -> List[MatchResult]:
        """Answer a batch of queries; result ``i`` belongs to schema ``i``.

        Through the batch front end
        (:meth:`~repro.api.matcher.MatcherAPIMixin._answer_batch`): equal
        keys share one result object, cached merged results are served
        without touching any shard, and the remaining misses fan out as one
        task per (query, shard) pair (:meth:`_fan_out`).
        """
        return self._answer_batch(
            personal_schemas,
            delta,
            top_k,
            lambda misses: self._fan_out(misses, delta, top_k, deadline),
        )

    def _result_key(self, personal_schema, effective_delta, top_k) -> Optional[tuple]:
        if not fingerprint_covers(self.shards[0].matcher):
            return None
        fingerprint = schema_fingerprint(personal_schema)
        version = (self.global_version, self.repository.version)
        return (fingerprint, effective_delta, top_k, version)

    def _fan_out(
        self,
        personal_schemas: Sequence[SchemaTree],
        delta: Optional[float],
        top_k: Optional[int],
        deadline: Optional["Deadline"],
    ) -> List[MatchResult]:
        """One merged result per schema, from one task per (schema, shard) pair.

        In top-k mode the tasks of one schema share one (translated)
        incumbent pool.
        """
        tasks = []
        for schema in personal_schemas:
            pool = TopKPool(top_k) if top_k is not None else None
            for shard_id, shard in enumerate(self.shards):
                view = (
                    None
                    if pool is None
                    else TranslatingTopKPool(pool, self._translators[shard_id])
                )
                tasks.append((shard, schema, delta, top_k, view, deadline))
        self.counters.increment("shard_queries", len(tasks))
        if self._fanout is not None:
            # Resilient mode: the fanout's own thread pools run the shard
            # calls (with retries, hedging and circuit breaking).
            fan_tasks = [
                (index % self.shard_count, task) for index, task in enumerate(tasks)
            ]
            outcomes = self._fanout.run(_run_shard_query, fan_tasks, deadline=deadline)
        else:
            outcomes = None
            raw = [_run_shard_query(task) for task in tasks]
        merged_results = []
        for start in range(0, len(tasks), self.shard_count):
            if outcomes is None:
                pairs = list(enumerate(raw[start : start + self.shard_count]))
                skipped: Tuple[int, ...] = ()
            else:
                window = outcomes[start : start + self.shard_count]
                pairs = [(outcome.task_id, outcome.result) for outcome in window if outcome.ok]
                skipped = tuple(outcome.task_id for outcome in window if not outcome.ok)
                if not pairs:
                    reasons = "; ".join(
                        f"shard {outcome.task_id}: {_failure_cause(outcome)}" for outcome in window
                    )
                    raise ShardError(f"all {self.shard_count} shards failed ({reasons})")
            merged = self._merge_results(pairs, top_k, skipped=skipped)
            if merged.degraded:
                self.counters.increment("degraded_queries")
                self.counters.increment("shards_skipped", len(skipped))
            merged_results.append(merged)
        return merged_results

    # -- merge ---------------------------------------------------------------

    def _merge_results(
        self,
        shard_pairs: Sequence[Tuple[int, MatchResult]],
        top_k: Optional[int],
        skipped: Tuple[int, ...] = (),
    ) -> MatchResult:
        """Merge ``(shard id, result)`` pairs into one merged-coordinate :class:`MatchResult`.

        Builds what a response reads — the translated, ranked mappings, the
        cluster reports, counters, timers and flags — and leaves the
        candidate table and the cluster set to their first reader
        (:class:`MergedMatchResult`).  In strict mode every shard contributes
        a pair and ``skipped`` is empty.  In resilient mode unreachable
        shards are absent from ``shard_pairs`` and listed in ``skipped``
        instead — the merge then covers the surviving shards only and the
        result is marked ``degraded`` (with the skipped ids) so callers can
        tell the answer from the canonical full-repository one.
        """
        coordinates = _MergeCoordinates(
            self._local_to_global, self._global_offsets, self._merged_cluster_ids(shard_pairs)
        )
        mappings = merge_ranked(
            [
                [coordinates.mapping(shard_id, mapping) for mapping in result.mappings]
                for shard_id, result in shard_pairs
            ]
        )
        if top_k is not None:
            del mappings[top_k:]

        generation = GenerationResult(mappings=mappings)
        counters = CounterSet()
        timers = StageTimer()
        for _shard_id, result in shard_pairs:
            generation.counters.merge(result.generation.counters)
            generation.elapsed_seconds += result.generation.elapsed_seconds
            counters.merge(result.counters)
            timers.merge(result.timers)

        return MergedMatchResult(
            shard_pairs,
            coordinates,
            variant_name=shard_pairs[0][1].variant_name,
            mappings=mappings,
            generation=generation,
            timers=timers,
            cluster_reports=self._merge_reports(shard_pairs, coordinates),
            counters=counters,
            top_k=top_k,
            partial=any(result.partial for _shard_id, result in shard_pairs),
            degraded=bool(skipped),
            skipped_shards=tuple(sorted(skipped)),
        )

    def _merged_cluster_ids(
        self, shard_pairs: Sequence[Tuple[int, MatchResult]]
    ) -> Dict[Tuple[int, int], int]:
        """(shard id, local cluster id) → merged cluster id.

        Tree-local clusterers number clusters ordinally in (tree, fragment)
        order, and shard-local tree order follows merged tree order, so
        re-ranking every shard's clusters by (merged tree id, local cluster
        id) reproduces exactly the ids one clustering pass over the merged
        repository would assign.  (In a degraded merge the re-ranking covers
        the surviving shards only, so ids are ordinal within that subset.)
        """
        entries: List[Tuple[int, int, int]] = []
        for shard_id, result in shard_pairs:
            if result.clustering is None:  # pragma: no cover - service always clusters
                continue
            local_to_global = self._local_to_global[shard_id]
            for cluster in result.clustering.clusters:
                entries.append((local_to_global[cluster.tree_id], cluster.cluster_id, shard_id))
        entries.sort()
        return {
            (shard_id, local_id): merged_id
            for merged_id, (_tree, local_id, shard_id) in enumerate(entries)
        }

    @staticmethod
    def _merge_reports(
        shard_pairs: Sequence[Tuple[int, MatchResult]], coordinates: _MergeCoordinates
    ) -> List[ClusterReport]:
        reports: List[ClusterReport] = []
        for shard_id, result in shard_pairs:
            local_to_global = coordinates.local_to_global[shard_id]
            reports.extend(
                ClusterReport(
                    cluster_id=coordinates.cluster_map[(shard_id, report.cluster_id)],
                    tree_id=local_to_global[report.tree_id],
                    member_count=report.member_count,
                    mapping_element_count=report.mapping_element_count,
                    search_space=report.search_space,
                )
                for report in result.cluster_reports
            )
        reports.sort(key=lambda report: report.cluster_id)
        return reports

    # -- incremental updates --------------------------------------------------

    def add_tree(self, tree: SchemaTree) -> int:
        """Register a tree on the shard the router places it on.

        Returns the tree's *merged* id (always ``tree_count`` before the
        call, mirroring the append-only unsharded id assignment).
        """
        merged_id = len(self._assignment)
        weight = self.router.tree_weight(tree)
        shard_id = self.router.place(tree, self._loads(), merged_id)
        if not 0 <= shard_id < self.shard_count:
            raise ShardError(
                f"router {self.router.name!r} placed tree on unknown shard {shard_id}"
            )
        self.shards[shard_id].add_tree(tree)
        self._assignment.append(shard_id)
        self._loads()[shard_id] += weight
        self._rebuild_translation()
        self._result_cache.clear()
        self.global_version += 1
        self.counters.increment("trees_added")
        return merged_id

    def remove_tree(self, tree_id: int) -> SchemaTree:
        """Unregister the tree with merged id ``tree_id``.

        Later trees' merged ids slide down by one, exactly as in the
        unsharded repository.  Removing the last tree of a shard is refused
        (every shard must stay non-empty); rebalance to fewer shards instead.
        """
        if not 0 <= tree_id < len(self._assignment):
            raise UnknownTreeError(tree_id, context=f"sharded repository ({self.tree_count} trees)")
        shard_id, local_id = self._merged_to_local[tree_id]
        shard = self.shards[shard_id]
        if shard.repository.tree_count <= 1:
            raise ShardError(
                f"removing tree {tree_id} would empty shard {shard_id}; "
                "rebalance to fewer shards instead"
            )
        removed = shard.remove_tree(local_id)
        del self._assignment[tree_id]
        if self._shard_loads is not None:
            self._shard_loads[shard_id] -= self.router.tree_weight(removed)
        self._rebuild_translation()
        self._result_cache.clear()
        self.global_version += 1
        self.counters.increment("trees_removed")
        return removed

    # -- reporting ------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Operational summary with a per-shard breakdown.

        The top level mirrors :meth:`MatchingService.stats
        <repro.service.MatchingService.stats>` in merged coordinates (sizes,
        cache shape, counters); ``per_shard`` holds each shard's
        own stats dict.
        """
        summary: Dict[str, object] = dict(self.repository.summary())
        summary["backend"] = self.backend_kind
        summary["protocol_version"] = PROTOCOL_VERSION
        summary["shards"] = self.shard_count
        summary["router"] = self.router.name
        summary["global_version"] = self.global_version
        summary["repository_version"] = self.repository.version
        summary["query_cache_capacity"] = self.query_cache_size
        summary["query_cache_entries"] = len(self._result_cache)
        if self._fanout is not None:
            summary["resilience"] = self.resilience.describe()
            summary["breaker_states"] = self._fanout.breaker_states()
        summary.update(self.counters.as_dict())
        summary["per_shard"] = [
            dict(shard.stats(), shard=shard_id)
            for shard_id, shard in enumerate(self.shards)
        ]
        return summary

    def _capabilities(self):
        capabilities = super()._capabilities() | {"mutations", "shards"}
        if self._fanout is not None:
            capabilities |= {"resilience"}
        return capabilities

    def _describe_extra(self) -> Dict[str, object]:
        return {
            "variant": PartitionClusterer.name,
            "shards": self.shard_count,
            "router": self.router.name,
            "query_cache_capacity": self.query_cache_size,
            "resilience": None if self.resilience is None else self.resilience.describe(),
            "per_shard": [
                {
                    "shard": shard_id,
                    "trees": shard.repository.tree_count,
                    "nodes": shard.repository.node_count,
                }
                for shard_id, shard in enumerate(self.shards)
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedMatchingService(shards={self.shard_count}, trees={self.tree_count}, "
            f"router={self.router.name!r})"
        )
