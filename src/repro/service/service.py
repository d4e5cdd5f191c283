"""The long-lived matching service facade.

The paper assumes a repository that is indexed and clustered *once* and then
queried by many personal schemas; the experiment harness instead rebuilt every
piece of derived state per process.  :class:`MatchingService` closes that gap:
it owns a :class:`~repro.system.bellflower.Bellflower` pipeline together with
all of its derived state — the batch matcher's name/trigram index, the
per-tree labeling distance oracles and an optional precomputed repository
partition — and keeps that state *live* across repository mutations and
queries:

* **snapshots** — :func:`repro.service.snapshot.write_snapshot` /
  :func:`~repro.service.snapshot.load_snapshot` persist the repository plus
  every piece of derived state, so a service process starts from one mapped
  file instead of recomputing (see ``benchmarks/bench_service_query.py``
  for the cold-load vs snapshot-load numbers);
* **incremental updates** — :meth:`add_tree` / :meth:`remove_tree` mutate the
  repository and patch only the affected index postings, oracle rows and
  partition entries, with results provably identical to a full rebuild
  (``tests/service/test_incremental.py`` pins the equivalence);
* **cached queries** — a bounded LRU of final results keyed by a
  personal-schema fingerprint answers repeated queries without running the
  pipeline (the heavy-traffic scenario).

Example
-------
>>> from repro.service import MatchingService
>>> from repro.workload import RepositoryGenerator, RepositoryProfile, paper_personal_schema
>>> repository = RepositoryGenerator(RepositoryProfile(target_node_count=2000)).generate()
>>> service = MatchingService(repository, element_threshold=0.45)
>>> result = service.match(paper_personal_schema())   # cold: runs + caches
>>> result = service.match(paper_personal_schema())   # warm: the stored result
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.api.envelope import PROTOCOL_VERSION
from repro.api.matcher import MatcherAPIMixin
from repro.clustering.kmeans import Clusterer
from repro.clustering.reclustering import ReclusteringStrategy
from repro.errors import ConfigurationError
from repro.labeling.distance import RepositoryDistanceOracle
from repro.mapping.base import MappingGenerator
from repro.matchers.base import BatchElementMatcher, ElementMatcher
from repro.objective.base import ObjectiveFunction
from repro.resilience.deadline import Deadline
from repro.schema.repository import SchemaRepository
from repro.schema.tree import SchemaTree
from repro.service.fingerprint import fingerprint_covers, schema_fingerprint
from repro.service.partition import PartitionClusterer, RepositoryPartition
from repro.system.bellflower import Bellflower
from repro.system.results import DEFAULT_QUERY_CACHE_SIZE, MatchResult, ResultCache
from repro.system.variants import clustering_variant
from repro.utils.counters import ThreadSafeCounterSet


class MatchingService(MatcherAPIMixin):
    """A persistent, incrementally updatable matching facade over Bellflower.

    Parameters
    ----------
    repository:
        The repository forest to serve (must be non-empty, as for
        :class:`~repro.system.bellflower.Bellflower`).
    matcher, objective, generator:
        Forwarded to the underlying pipeline (defaults as there).
    clusterer / variant:
        Mutually exclusive cluster configuration: an explicit
        :class:`~repro.clustering.kmeans.Clusterer` instance, a named preset
        from :func:`~repro.system.variants.clustering_variant`, or — the
        default when both are omitted — a snapshot-friendly
        :class:`~repro.service.partition.PartitionClusterer` over a
        :class:`~repro.service.partition.RepositoryPartition` (precomputed
        offline fragments; the only clusterer whose state a snapshot can
        persist, because k-means clusters depend on the query).
    element_threshold, delta:
        As for :class:`~repro.system.bellflower.Bellflower`.
    query_cache_size:
        Capacity of the result cache (:class:`~repro.system.results.ResultCache`):
        the number of final results it keeps, as compact copies, keyed by
        (schema fingerprint, effective ``δ``, ``top_k``, repository version)
        and evicted least recently used first.  ``0`` means no cache.
        Default ``DEFAULT_QUERY_CACHE_SIZE`` (1,024).
    partition_max_fragment_size, partition_reclustering:
        Shape of the default repository partition (ignored when ``clusterer``
        or ``variant`` is given).
    """

    backend_kind = "service"

    def __init__(
        self,
        repository: SchemaRepository,
        *,
        matcher: Optional[ElementMatcher] = None,
        objective: Optional[ObjectiveFunction] = None,
        generator: Optional[MappingGenerator] = None,
        clusterer: Optional[Clusterer] = None,
        variant: Optional[str] = None,
        element_threshold: float = 0.6,
        delta: float = 0.75,
        query_cache_size: int = DEFAULT_QUERY_CACHE_SIZE,
        partition_max_fragment_size: int = 20,
        partition_reclustering: Optional[ReclusteringStrategy] = None,
    ) -> None:
        if clusterer is not None and variant is not None:
            raise ConfigurationError("pass either clusterer or variant, not both")
        if query_cache_size < 0:
            raise ConfigurationError(
                f"query_cache_size must be non-negative, got {query_cache_size}"
            )
        self.partition: Optional[RepositoryPartition] = None
        self._variant_name: Optional[str] = None
        if variant == PartitionClusterer.name:
            # "partition" is the name the service itself reports (and snapshots
            # record); accept it even though it is not a system-variant preset.
            variant = None
        if isinstance(clusterer, PartitionClusterer):
            # Adopt the clusterer's partition so incremental mutations keep
            # maintaining it — otherwise remove_tree would leave the clusterer
            # reading the wrong trees' fragment maps.
            self.partition = clusterer.partition
            self._variant_name = PartitionClusterer.name
        if clusterer is None:
            if variant is None:
                self.partition = RepositoryPartition(
                    max_fragment_size=partition_max_fragment_size,
                    reclustering=partition_reclustering,
                )
                clusterer = PartitionClusterer(self.partition)
                self._variant_name = PartitionClusterer.name
            else:
                spec = clustering_variant(variant)
                clusterer = spec.make_clusterer()
                self._variant_name = spec.name
        self.query_cache_size = query_cache_size
        self._result_cache = ResultCache(query_cache_size)
        # Thread-safe: the asyncio server runs concurrent queries against one
        # service instance from thread-pool workers.
        self.counters = ThreadSafeCounterSet()
        self._system = Bellflower(
            repository,
            matcher=matcher,
            objective=objective,
            generator=generator,
            clusterer=clusterer,
            element_threshold=element_threshold,
            delta=delta,
            variant_name=self._variant_name,
        )

    # -- accessors ----------------------------------------------------------

    @property
    def repository(self) -> SchemaRepository:
        return self._system.repository

    @property
    def matcher(self) -> ElementMatcher:
        return self._system.matcher

    @property
    def oracle(self) -> RepositoryDistanceOracle:
        return self._system.oracle

    @property
    def system(self) -> Bellflower:
        """The underlying pipeline (for harness-style stage-level access)."""
        return self._system

    @property
    def element_threshold(self) -> float:
        return self._system.element_threshold

    @property
    def delta(self) -> float:
        return self._system.delta

    @property
    def variant_name(self) -> Optional[str]:
        """Preset name the service was configured with (``None`` for a custom clusterer)."""
        return self._variant_name

    @property
    def query_cache_len(self) -> int:
        return len(self._result_cache)

    # -- warm-up -------------------------------------------------------------

    def build_derived_state(self) -> None:
        """Eagerly materialize everything a snapshot would persist.

        Builds the batch matcher's name index, every per-tree distance oracle
        and (for the partition clusterer) every tree's fragments.  A serving
        process calls this once at start-up — or skips it entirely by loading
        a snapshot — so that no query pays first-touch construction costs.
        """
        matcher = self._system.matcher
        if isinstance(matcher, BatchElementMatcher) and getattr(matcher, "supports_batch", False):
            matcher.name_index(self.repository).ensure_blocking()
        self.oracle.build_all()
        if self.partition is not None:
            self.partition.build_all(self.repository, self.oracle)

    # -- queries -------------------------------------------------------------

    def _match_schema(
        self,
        personal_schema: SchemaTree,
        delta: Optional[float] = None,
        top_k: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ) -> MatchResult:
        """Match one personal schema: a batch of one through :meth:`_match_many_schemas`.

        This is the legacy entry point behind the public :meth:`match
        <repro.api.matcher.MatcherAPIMixin.match>` shim — ``match(tree,
        delta=..., top_k=...)`` lands here unchanged, ``match(MatchRequest)``
        reaches the same batch path via the typed dispatch, so both paths are
        bit-identical.  ``top_k`` restricts the query to the ``k`` best
        mappings (see :meth:`Bellflower.match
        <repro.system.bellflower.Bellflower.match>`); ``None`` keeps the
        complete ``Δ >= δ`` semantics.
        """
        return self._match_many_schemas(
            [personal_schema], delta=delta, top_k=top_k, deadline=deadline
        )[0]

    def _match_many_schemas(
        self,
        personal_schemas: Sequence[SchemaTree],
        delta: Optional[float] = None,
        top_k: Optional[int] = None,
        deadline: Optional[Deadline] = None,
    ) -> List[MatchResult]:
        """Answer a batch of queries; result ``i`` belongs to schema ``i``.

        Through the batch front end
        (:meth:`~repro.api.matcher.MatcherAPIMixin._answer_batch`): equal
        keys share one result object, the result cache answers what it
        holds, and every other query runs the pipeline.  A hit returns the
        stored object, so cached and uncached answers are bit-identical
        (only stage timers and counters differ).  The version in the key
        makes a stale hit impossible even when the repository is mutated
        directly, bypassing :meth:`add_tree`/:meth:`remove_tree` (which
        also clear the cache).
        """
        return self._answer_batch(
            personal_schemas,
            delta,
            top_k,
            lambda misses: [
                self._system.match(schema, delta=delta, top_k=top_k, deadline=deadline)
                for schema in misses
            ],
        )

    def _result_key(self, personal_schema, effective_delta, top_k) -> Optional[tuple]:
        if not fingerprint_covers(self.matcher):
            return None
        fingerprint = schema_fingerprint(personal_schema)
        return (fingerprint, effective_delta, top_k, self.repository.version)

    # -- incremental updates --------------------------------------------------

    def add_tree(self, tree: SchemaTree) -> int:
        """Register a new tree, patching derived state instead of rebuilding.

        Every cached name index gains only the new tree's postings
        (:meth:`~repro.matchers.index.RepositoryNameIndex.with_tree_added`),
        existing oracle rows stay untouched (the new tree's oracle builds on
        first use), and the partition fragments only the new tree.  The
        resulting service state is provably identical to one built from
        scratch over the enlarged forest — the repository's id assignment is
        append-only, and every maintained structure is per-tree or
        append-compatible.
        """
        repository = self.repository
        indexes = repository.cached_name_indexes()
        tree_id = repository.add_tree(tree)
        for index in indexes.values():
            repository.install_name_index(index.with_tree_added(repository, tree_id))
        if self.partition is not None:
            self.partition.on_tree_added(repository, tree_id, self.oracle)
        self._result_cache.clear()
        self.counters.increment("trees_added")
        return tree_id

    def remove_tree(self, tree_id: int) -> SchemaTree:
        """Unregister a tree, patching derived state instead of rebuilding.

        Name-index postings referencing the tree are dropped and later trees'
        references shifted; the tree's oracle row is evicted (later rows are
        re-keyed, their tables are untouched and stay valid); the partition
        drops one entry.  Equivalent to a rebuild over the surviving forest
        because :meth:`SchemaRepository.remove_tree` leaves the repository
        indistinguishable from one freshly built from the survivors.
        """
        if self.repository.tree_count <= 1:
            raise ConfigurationError("cannot remove the last tree of a served repository")
        repository = self.repository
        indexes = repository.cached_name_indexes()
        removed_node_count = repository.tree(tree_id).node_count
        removed = repository.remove_tree(tree_id)
        for index in indexes.values():
            repository.install_name_index(
                index.with_tree_removed(repository, tree_id, removed_node_count)
            )
        self.oracle.on_tree_removed(tree_id)
        if self.partition is not None:
            self.partition.on_tree_removed(tree_id)
        self._result_cache.clear()
        self.counters.increment("trees_removed")
        return removed

    # -- reporting ------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """Operational summary (repository sizes, cache state, service counters).

        Everything a monitoring endpoint needs in one JSON-serializable dict:
        repository sizes and mutation version, the clustering variant,
        query-cache shape and hit/miss counters, and every service counter.
        """
        summary: Dict[str, object] = dict(self.repository.summary())
        summary["backend"] = self.backend_kind
        summary["protocol_version"] = PROTOCOL_VERSION
        summary["repository_version"] = self.repository.version
        summary["variant"] = self._variant_name or self._system.clusterer.name
        summary["built_oracles"] = self.oracle.built_oracle_count
        summary["query_cache_capacity"] = self.query_cache_size
        summary["query_cache_entries"] = len(self._result_cache)
        if self.partition is not None:
            summary["partitioned_trees"] = self.partition.built_tree_count
        summary.update(self.counters.as_dict())
        return summary

    def _capabilities(self):
        return super()._capabilities() | {"mutations"}

    def _describe_extra(self) -> Dict[str, object]:
        return {
            "variant": self._variant_name or self._system.clusterer.name,
            "query_cache_capacity": self.query_cache_size,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MatchingService(repository={self.repository.name!r}, "
            f"trees={self.repository.tree_count}, variant={self._variant_name!r})"
        )
