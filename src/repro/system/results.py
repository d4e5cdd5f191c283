"""Result objects returned by a Bellflower matching run, and the cache that keeps them.

A :class:`MatchResult` carries everything the paper's Table 1 reports for one
(clustering variant, matching problem) pair: the ranked mappings, the
properties of the useful clusters, the search-space size, the partial-mapping
counters of the generator, and per-stage wall-clock times.  A
:class:`ResultCache` keeps final results for the batch front end to answer
repeated queries with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

from repro.clustering.kmeans import ClusteringResult
from repro.mapping.base import GenerationResult
from repro.mapping.model import SchemaMapping
from repro.matchers.index import LRUMemo
from repro.matchers.selection import MappingElementSets
from repro.utils.counters import CounterSet
from repro.utils.timers import StageTimer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.envelope import MappingRecord


@dataclass(frozen=True)
class ClusterReport:
    """Summary of one useful cluster (used by reports and Figure 4's histogram)."""

    cluster_id: int
    tree_id: int
    member_count: int
    mapping_element_count: int
    search_space: int


@dataclass
class MatchResult:
    """The outcome of one matching run (one variant, one personal schema)."""

    variant_name: str
    mappings: List[SchemaMapping]
    #: The element-matching table the run clustered, or ``None`` on a
    #: compact answer (:meth:`compact`), which keeps only what a response
    #: renders.
    candidates: Optional[MappingElementSets]
    #: The clusters the run searched; ``None`` on a compact answer too.
    clustering: Optional[ClusteringResult]
    generation: GenerationResult
    timers: StageTimer = field(default_factory=StageTimer)
    cluster_reports: List[ClusterReport] = field(default_factory=list)
    counters: CounterSet = field(default_factory=CounterSet)
    #: The ``top_k`` the query ran with (``None``: complete ``Δ >= δ`` search).
    top_k: Optional[int] = None
    #: The query deadline expired: ``mappings`` are the incumbents found so
    #: far, not the complete ranking.  Partial results are never cached.
    partial: bool = False
    #: One or more shards were skipped (dead / breaker-open); the ranking
    #: covers only the surviving shards listed out of ``skipped_shards``.
    degraded: bool = False
    #: Shard ids the sharded service skipped for a degraded answer.
    skipped_shards: Tuple[int, ...] = ()
    #: Wire records :func:`repro.api.encode.match_response` rendered for this
    #: result: ``(repository version, records by rank)``, ``None`` at ranks
    #: no page has shown yet.  A result the result cache shares keeps them,
    #: so a repeated query pays only for paging.
    rendered_records: Optional[Tuple[int, List[Optional["MappingRecord"]]]] = field(
        default=None, repr=False, compare=False
    )

    # -- Table 1a style properties -------------------------------------------------

    @property
    def useful_cluster_count(self) -> int:
        return len(self.cluster_reports)

    @property
    def average_mapping_elements_per_cluster(self) -> float:
        if not self.cluster_reports:
            return 0.0
        return sum(report.mapping_element_count for report in self.cluster_reports) / len(self.cluster_reports)

    @property
    def search_space(self) -> int:
        """Total number of complete mappings the generator would have to consider."""
        return sum(report.search_space for report in self.cluster_reports)

    # -- Table 1b style properties -------------------------------------------------

    @property
    def partial_mappings(self) -> int:
        return self.generation.partial_mappings

    @property
    def mapping_count(self) -> int:
        return len(self.mappings)

    @property
    def clustering_seconds(self) -> float:
        return self.timers.elapsed().get("clustering", 0.0)

    @property
    def generation_seconds(self) -> float:
        return self.timers.elapsed().get("generation", 0.0)

    @property
    def element_matching_seconds(self) -> float:
        return self.timers.elapsed().get("element_matching", 0.0)

    @property
    def total_seconds(self) -> float:
        return self.timers.total()

    def signatures(self) -> set:
        """Canonical identities of all discovered mappings (for preservation metrics)."""
        return {mapping.signature() for mapping in self.mappings}

    def ranking_key(self) -> List[tuple]:
        """Canonical (score, signature) list — the bit-identity of a ranking.

        Two results with equal ranking keys hold the same mappings, in the
        same order, with identical scores.  The service-layer equivalence
        tests, the incremental example and the snapshot benchmark all compare
        results through this one definition so the notion of "bit-identical"
        cannot drift between them.
        """
        return [(mapping.score, mapping.signature()) for mapping in self.mappings]

    def compact(self) -> "MatchResult":
        """A plain result holding only what a response renders.

        The copy shares the mappings, counters, timers, cluster reports, flags
        and rendered records, and drops the candidate table, the cluster set
        and (on a merged shard answer) the shard results, which together hold
        most of a result's objects.  It reads neither ``candidates`` nor
        ``clustering``, so a merged answer builds neither table for it.
        """
        return MatchResult(
            variant_name=self.variant_name,
            mappings=self.mappings,
            candidates=None,
            clustering=None,
            generation=self.generation,
            timers=self.timers,
            cluster_reports=self.cluster_reports,
            counters=self.counters,
            top_k=self.top_k,
            partial=self.partial,
            degraded=self.degraded,
            skipped_shards=self.skipped_shards,
            rendered_records=self.rendered_records,
        )

    def summary(self) -> Dict[str, object]:
        """A flat dictionary used by reports and benchmark output."""
        return {
            "variant": self.variant_name,
            "useful_clusters": self.useful_cluster_count,
            "avg_mapping_elements": round(self.average_mapping_elements_per_cluster, 1),
            "search_space": self.search_space,
            "partial_mappings": self.partial_mappings,
            "mappings": self.mapping_count,
            "clustering_seconds": round(self.clustering_seconds, 3),
            "generation_seconds": round(self.generation_seconds, 3),
            "total_seconds": round(self.total_seconds, 3),
        }


class ResultCache:
    """Final results of earlier queries, in two LRU segments of ``capacity`` each.

    The *recent* segment takes every whole answer and, while it holds a key,
    answers it with the stored object.  A hit there also keeps a
    :meth:`~MatchResult.compact` copy of the answer in the *reused* segment,
    which goes on answering the key after one-off queries have pushed it out
    of the recent one.  Repeats therefore keep their answers at a fraction of
    a full result's memory, while a stream without repeats never writes the
    reused segment and evicts exactly as one LRU of ``capacity`` would.
    ``len()`` counts the distinct keys the two segments hold.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.recent = LRUMemo(capacity)
        self.reused = LRUMemo(capacity)

    def get(self, key: Hashable) -> Optional[MatchResult]:
        result = self.recent.get(key)
        if result is None:
            return self.reused.get(key)
        if self.reused.get(key) is None:
            self.reused.put(key, result.compact())
        return result

    def put(self, key: Hashable, result: MatchResult) -> None:
        self.recent.put(key, result)

    def clear(self) -> None:
        self.recent.clear()
        self.reused.clear()

    def __len__(self) -> int:
        return len(set(self.recent.keys()).union(self.reused.keys()))
