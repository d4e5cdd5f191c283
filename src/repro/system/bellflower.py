"""The Bellflower matching system (Figs. 2 and 3 of the paper).

:class:`Bellflower` wires the stages together:

1. **element matching** — the element matcher compares every personal-schema
   node with every repository node; pairs above the element threshold become
   mapping elements;
2. **clustering** (optional) — the clusterer groups the mapping elements into
   clusters; without a clusterer every repository tree acts as one cluster
   (the paper's "tree clusters" / non-clustered configuration);
3. **mapping generation** — the generator searches every *useful* cluster for
   complete schema mappings with ``Δ(s, t) >= δ``;
4. **ranking** — per-cluster mappings are merged into one list ordered by
   similarity index.

The facade exposes the intermediate products (candidate sets, clusters) so the
experiment harness can reuse one element-matching pass across many clustering
variants, exactly as the paper's experiments do.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.api.envelope import PROTOCOL_VERSION
from repro.api.matcher import MatcherAPIMixin
from repro.api.validation import validate_query, validate_top_k
from repro.clustering.baselines import TreeClusterer
from repro.clustering.cluster import split_candidates
from repro.clustering.kmeans import Clusterer, ClusteringResult
from repro.errors import ConfigurationError
from repro.labeling.distance import RepositoryDistanceOracle
from repro.mapping.base import GenerationResult, MappingGenerator
from repro.mapping.branch_and_bound import BranchAndBoundGenerator
from repro.mapping.engine import TopKPool
from repro.mapping.model import MappingProblem
from repro.mapping.ranking import merge_ranked
from repro.mapping.search_space import candidate_search_space
from repro.matchers.base import ElementMatcher
from repro.matchers.name import FuzzyNameMatcher
from repro.matchers.selection import MappingElementSelector, MappingElementSets
from repro.objective.base import ObjectiveFunction
from repro.objective.bellflower import BellflowerObjective
from repro.resilience.deadline import Deadline
from repro.schema.repository import SchemaRepository
from repro.schema.tree import SchemaTree
from repro.system.results import ClusterReport, MatchResult
from repro.utils.counters import CounterSet
from repro.utils.executor import TaskExecutor
from repro.utils.timers import StageTimer


class Bellflower(MatcherAPIMixin):
    """An experimental clustered schema matching system.

    Parameters
    ----------
    repository:
        The repository schema ``R`` (a forest of schema trees).
    matcher:
        Element matcher; defaults to the paper's fuzzy name matcher.
    objective:
        Objective function; defaults to :class:`BellflowerObjective` with
        ``α = 0.5``.
    generator:
        Mapping generator; defaults to Branch-and-Bound.
    clusterer:
        The clustering component.  ``None`` selects the non-clustered baseline
        (one cluster per repository tree).
    element_threshold:
        Minimum element similarity for a pair to become a mapping element.
    delta:
        Default objective-function threshold ``δ`` for :meth:`match`.
    use_batch_matching:
        Forwarded to :class:`MappingElementSelector`: ``None`` (default) uses
        the indexed batch element-matching path whenever the matcher supports
        it, ``False`` forces the exact per-pair scan.  Both produce identical
        mapping elements; the batch path is several times faster on large
        repositories.
    executor:
        Optional :class:`~repro.utils.executor.TaskExecutor` the per-cluster
        mapping generation is dispatched through (``None`` runs clusters
        serially inline).  Executors return results in cluster order, so the
        merged ranking, counters and reports are identical for every executor.
    """

    backend_kind = "bellflower"

    def __init__(
        self,
        repository: SchemaRepository,
        matcher: Optional[ElementMatcher] = None,
        objective: Optional[ObjectiveFunction] = None,
        generator: Optional[MappingGenerator] = None,
        clusterer: Optional[Clusterer] = None,
        element_threshold: float = 0.6,
        delta: float = 0.75,
        variant_name: Optional[str] = None,
        use_batch_matching: Optional[bool] = None,
        executor: Optional[TaskExecutor] = None,
    ) -> None:
        if repository.tree_count == 0:
            raise ConfigurationError("Bellflower needs a non-empty schema repository")
        if not 0.0 <= delta <= 1.0:
            raise ConfigurationError(f"delta must be in [0, 1], got {delta}")
        self.repository = repository
        self.matcher = matcher or FuzzyNameMatcher()
        self.objective = objective or BellflowerObjective(alpha=0.5)
        self.generator = generator or BranchAndBoundGenerator()
        self.clusterer = clusterer or TreeClusterer()
        self.element_threshold = element_threshold
        self.delta = delta
        self.variant_name = variant_name or self.clusterer.name
        self.use_batch_matching = use_batch_matching
        self.executor = executor
        self.oracle = RepositoryDistanceOracle(repository)

    # -- stage 1: element matching -------------------------------------------------

    def element_matching(
        self, personal_schema: SchemaTree, counters: Optional[CounterSet] = None
    ) -> MappingElementSets:
        """Run the element matcher over (personal schema × repository)."""
        selector = MappingElementSelector(
            self.matcher,
            threshold=self.element_threshold,
            use_batch=self.use_batch_matching,
        )
        return selector.select(personal_schema, self.repository, counters=counters)

    # -- stage 2: clustering ---------------------------------------------------------

    def cluster_candidates(self, candidates: MappingElementSets) -> ClusteringResult:
        """Group mapping elements into clusters using the configured clusterer."""
        return self.clusterer.cluster(candidates, self.repository, oracle=self.oracle)

    # -- stage 3 + 4: mapping generation and ranking -----------------------------------

    def generate_mappings(
        self,
        personal_schema: SchemaTree,
        candidates: MappingElementSets,
        clustering: ClusteringResult,
        delta: float,
        top_k: Optional[int] = None,
        shared_pool: Optional[TopKPool] = None,
        deadline: Optional[Deadline] = None,
    ) -> tuple[GenerationResult, List[ClusterReport]]:
        """Search every useful cluster and merge the per-cluster results.

        The candidate table is divided among all clusters in one pass
        (:func:`~repro.clustering.cluster.split_candidates`); only the useful
        clusters get a restricted table and a search.  The per-cluster
        searches are independent (each gets its own restricted candidate sets
        and its own result object); when an ``executor`` is configured they
        are dispatched through it and gathered back *in cluster order*, so
        mappings, counters and reports are bit-identical to the serial path.
        With an executor, ``elapsed_seconds`` remains the sum of per-cluster
        search times (CPU time), which can exceed the wall-clock
        ``generation`` stage timer.

        ``top_k`` restricts the search to the ``k`` best mappings overall: the
        per-cluster problems then share one
        :class:`~repro.mapping.engine.TopKPool` incumbent, so a good mapping
        found in any cluster raises the pruning floor for all of them.  The
        returned *mappings* stay deterministic across executors (see
        :mod:`repro.mapping.engine`); the pruning *counters* become
        timing-dependent under concurrent executors.

        ``shared_pool`` widens the incumbent sharing beyond this query: a
        caller coordinating several pipelines over one logical repository —
        the shard fan-out — passes the same pool (or a per-shard
        :class:`~repro.mapping.engine.TranslatingTopKPool` view over it) to
        every one of them, so a good mapping found by any participating
        service raises the pruning floor for all.  Ignored without ``top_k``
        (the complete ``Δ >= δ`` search admits no incumbent pruning).

        ``deadline`` makes the per-cluster searches *anytime*: each problem
        polls it cooperatively and, on expiry, contributes the mappings it
        realized so far.  The merged counters then carry ``deadline_expired``
        (the number of cluster searches cut short) and the caller marks the
        result partial.
        """
        validate_top_k(top_k)
        pool = None
        if top_k is not None:
            pool = shared_pool if shared_pool is not None else TopKPool(top_k)
        merged = GenerationResult()
        reports: List[ClusterReport] = []
        problems: List[MappingProblem] = []
        for cluster, restricted in split_candidates(clustering.clusters, candidates).useful():
            problems.append(
                MappingProblem(
                    personal_schema=personal_schema,
                    candidates=restricted,
                    oracle=self.oracle,
                    objective=self.objective,
                    delta=delta,
                    cluster_id=cluster.cluster_id,
                    top_k=top_k,
                    shared_pool=pool,
                    deadline=deadline,
                )
            )
            reports.append(
                ClusterReport(
                    cluster_id=cluster.cluster_id,
                    tree_id=cluster.tree_id,
                    member_count=cluster.size,
                    mapping_element_count=restricted.total(),
                    search_space=candidate_search_space(restricted),
                )
            )
        if self.executor is not None:
            results = self.executor.map(self.generator.generate, problems)
        else:
            results = [self.generator.generate(problem) for problem in problems]
        per_cluster_mappings = []
        for result in results:
            per_cluster_mappings.append(result.mappings)
            merged.counters.merge(result.counters)
            merged.elapsed_seconds += result.elapsed_seconds
        merged.mappings = merge_ranked(per_cluster_mappings)
        if top_k is not None:
            del merged.mappings[top_k:]
        return merged, reports

    # -- the full pipeline --------------------------------------------------------------

    def _match_schema(
        self,
        personal_schema: SchemaTree,
        delta: Optional[float] = None,
        candidates: Optional[MappingElementSets] = None,
        top_k: Optional[int] = None,
        shared_pool: Optional[TopKPool] = None,
        deadline: Optional[Deadline] = None,
    ) -> MatchResult:
        """Run the full pipeline and return a :class:`MatchResult`.

        This is the legacy entry point behind the public :meth:`match
        <repro.api.matcher.MatcherAPIMixin.match>` shim — ``match(tree,
        delta=..., top_k=...)`` lands here unchanged, ``match(MatchRequest)``
        lands here via the typed dispatch, so both paths are bit-identical.

        ``candidates`` allows the caller to supply a precomputed element-matching
        result, which the experiment harness uses to hold the element stage
        constant while varying the clusterer.  ``top_k`` limits the result to
        the ``k`` best mappings and lets the generator prune against the best
        scores found so far across *all* clusters (cross-cluster bound
        sharing); ``None`` keeps the complete ``Δ >= δ`` semantics.
        ``shared_pool`` additionally shares that incumbent with sibling
        pipelines of the same logical query (shard fan-out; see
        :meth:`generate_mappings`).  ``deadline`` bounds the generation stage
        cooperatively; an expired deadline yields a result with
        ``partial=True`` holding the mappings found so far.
        """
        if personal_schema.node_count == 0:
            raise ConfigurationError("cannot match an empty personal schema")
        validate_query(delta, top_k)
        effective_delta = self.delta if delta is None else delta
        timers = StageTimer()
        counters = CounterSet()

        if candidates is None:
            with timers.measure("element_matching"):
                candidates = self.element_matching(personal_schema, counters=counters)
        counters.set("mapping_elements", candidates.total())

        with timers.measure("clustering"):
            clustering = self.cluster_candidates(candidates)

        with timers.measure("generation"):
            generation, reports = self.generate_mappings(
                personal_schema,
                candidates,
                clustering,
                effective_delta,
                top_k=top_k,
                shared_pool=shared_pool,
                deadline=deadline,
            )

        counters.merge(generation.counters)
        counters.merge(clustering.counters)
        partial = generation.counters.get("deadline_expired") > 0
        if partial:
            counters.set("partials_returned", 1)

        return MatchResult(
            variant_name=self.variant_name,
            mappings=generation.mappings,
            candidates=candidates,
            clustering=clustering,
            generation=generation,
            timers=timers,
            cluster_reports=reports,
            counters=counters,
            top_k=top_k,
            partial=partial,
        )

    def _result_key(self, personal_schema, effective_delta, top_k) -> Optional[tuple]:
        """Deduplicates a batch (the inherited front end; the pipeline keeps no cache)."""
        # Imported lazily: the service package imports this module at load time.
        from repro.service.fingerprint import fingerprint_covers, schema_fingerprint

        if not fingerprint_covers(self.matcher):
            return None
        fingerprint = schema_fingerprint(personal_schema)
        return (fingerprint, effective_delta, top_k, self.repository.version)

    # -- reporting ------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        """The uniform operational summary (the pipeline itself is stateless)."""
        summary: Dict[str, object] = dict(self.repository.summary())
        summary["backend"] = self.backend_kind
        summary["protocol_version"] = PROTOCOL_VERSION
        summary["variant"] = self.variant_name
        summary["executor"] = "serial" if self.executor is None else self.executor.name
        summary["delta"] = self.delta
        summary["element_threshold"] = self.element_threshold
        return summary

    def _describe_extra(self) -> Dict[str, object]:
        return {
            "variant": self.variant_name,
            "generator": self.generator.name,
            "matcher": type(self.matcher).__name__,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Bellflower(repository={self.repository.name!r}, clusterer={self.clusterer.name!r}, "
            f"generator={self.generator.name!r}, delta={self.delta})"
        )
