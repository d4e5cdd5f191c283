"""Element matching stage: producing *mapping elements*.

Step 2-3 of the paper's architecture: every personal-schema element is compared
against every repository element; pairs whose similarity index clears a
threshold become *mapping elements*.  :class:`MappingElementSets` is the data
structure handed to the clusterer (step c) and to the mapping generator (step
4): for each personal node it stores the candidate repository nodes with their
similarity indexes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import MatcherError
from repro.matchers.base import BatchElementMatcher, ElementMatcher, MatchContext
from repro.schema.repository import RepositoryNodeRef, SchemaRepository
from repro.schema.tree import SchemaTree
from repro.utils.counters import CounterSet


@dataclass(frozen=True, order=True)
class MappingElement:
    """One candidate element mapping ``n -> n'`` with its similarity index.

    Ordering is by (personal node, global repository id) so sorted collections
    of mapping elements are deterministic regardless of discovery order.
    """

    personal_node_id: int
    ref: RepositoryNodeRef
    similarity: float = field(compare=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MappingElement(n={self.personal_node_id}, n'={self.ref.global_id}, "
            f"sim={self.similarity:.3f})"
        )


class MappingElementSets:
    """Mapping elements grouped by personal-schema node (the paper's ``MEn`` sets)."""

    def __init__(self, personal_node_ids: Sequence[int]) -> None:
        if not personal_node_ids:
            raise MatcherError("a mapping-element collection needs at least one personal node")
        self._sets: Dict[int, List[MappingElement]] = {node_id: [] for node_id in personal_node_ids}

    def add(self, element: MappingElement) -> None:
        if element.personal_node_id not in self._sets:
            raise MatcherError(
                f"personal node {element.personal_node_id} is not part of this matching problem"
            )
        self._sets[element.personal_node_id].append(element)

    @property
    def personal_node_ids(self) -> List[int]:
        return list(self._sets)

    def elements_for(self, personal_node_id: int) -> List[MappingElement]:
        """The node's mapping elements, in insertion order.

        Returns the live internal list (no defensive copy — this is on the hot
        path of every clusterer and generator); callers must treat it as
        read-only.
        """
        elements = self._sets.get(personal_node_id)
        if elements is None:
            raise MatcherError(f"personal node {personal_node_id} is not part of this matching problem")
        return elements

    def all_elements(self) -> List[MappingElement]:
        """Every mapping element as a fresh flat list.

        Prefer :meth:`iter_all_elements` on hot read paths that only iterate.
        """
        return [element for elements in self._sets.values() for element in elements]

    def iter_all_elements(self) -> Iterator[MappingElement]:
        """Iterate over every mapping element without materializing a list."""
        for elements in self._sets.values():
            yield from elements

    def sizes(self) -> Dict[int, int]:
        """Number of mapping elements per personal node (``|MEn|``)."""
        return {node_id: len(elements) for node_id, elements in self._sets.items()}

    def total(self) -> int:
        return sum(len(elements) for elements in self._sets.values())

    def smallest_set_node(self) -> int:
        """The personal node with the fewest mapping elements (``MEmin``).

        Used by the paper's centroid initialization heuristic: every element of
        the smallest set is declared an initial centroid.
        """
        return min(self._sets, key=lambda node_id: (len(self._sets[node_id]), node_id))

    @classmethod
    def from_filtered(cls, sets: Dict[int, List[MappingElement]]) -> "MappingElementSets":
        """Wrap per-node lists filtered out of an existing collection.

        ``sets`` must hold every personal node of the source collection, in
        its order, and each list must keep a subset of that node's elements in
        their original order.  Such elements are already validated and
        ordered, so they are neither re-checked nor copied: the lists are
        adopted as they are.
        """
        filtered = cls.__new__(cls)
        filtered._sets = sets
        return filtered

    def restrict_to_refs(self, global_ids: Set[int]) -> "MappingElementSets":
        """A copy containing only mapping elements whose repository node is in ``global_ids``.

        Filtering keeps each node's elements in their order.  One call scans
        the whole table, so this is the single-cluster path
        (:meth:`Cluster.restricted_candidates
        <repro.clustering.cluster.Cluster.restricted_candidates>`) and the
        reference the tests hold :func:`~repro.clustering.cluster.split_candidates`
        to; the mapping generator and every other loop over many clusters
        split the table once instead of calling this per cluster.
        """
        return MappingElementSets.from_filtered(
            {
                node_id: [element for element in elements if element.ref.global_id in global_ids]
                for node_id, elements in self._sets.items()
            }
        )

    def is_complete(self) -> bool:
        """True when every personal node has at least one candidate (a *useful* set)."""
        return all(self._sets.values())

    def __iter__(self) -> Iterator[Tuple[int, List[MappingElement]]]:
        return iter(self._sets.items())

    def __len__(self) -> int:
        return len(self._sets)


class MappingElementSelector:
    """Runs an element matcher over (personal schema × repository) and selects candidates.

    Parameters
    ----------
    matcher:
        The element matcher (or combination) producing similarity indexes.
    threshold:
        Minimum similarity index for a pair to become a mapping element.  The
        paper keeps pairs with a "non-zero" index; a small positive threshold is
        the practical equivalent and keeps candidate lists (and thus the search
        space) meaningful.
    top_k:
        Optional cap on the number of candidates kept per personal node (best
        ``k`` by similarity).  ``None`` keeps everything above the threshold.
    use_batch:
        ``None`` (the default) dispatches to the indexed batch path whenever
        the matcher is a :class:`BatchElementMatcher`; ``False`` forces the
        exact per-pair loop (useful for benchmarking and equivalence tests);
        ``True`` requires batch support and raises when the matcher has none.
        Both paths produce identical mapping-element sets and identical
        ``element_comparisons`` / ``mapping_elements`` counters; the batch
        path additionally reports ``comparisons_pruned`` (pairs eliminated by
        the lossless prefilter) and ``index_hits`` (pairs answered from the
        name index's fan-out or the cross-query memo).
    """

    def __init__(
        self,
        matcher: ElementMatcher,
        threshold: float = 0.5,
        top_k: Optional[int] = None,
        use_batch: Optional[bool] = None,
    ) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise MatcherError(f"selection threshold must be in [0, 1], got {threshold}")
        if top_k is not None and top_k < 1:
            raise MatcherError(f"top_k must be positive when given, got {top_k}")
        self.matcher = matcher
        self.threshold = threshold
        self.top_k = top_k
        self.use_batch = use_batch

    def _batch_capable(self) -> bool:
        return (
            isinstance(self.matcher, BatchElementMatcher)
            and bool(getattr(self.matcher, "supports_batch", False))
            and not getattr(self.matcher, "is_structural", False)
        )

    def select(
        self,
        personal_schema: SchemaTree,
        repository: SchemaRepository,
        counters: Optional[CounterSet] = None,
    ) -> MappingElementSets:
        """Compare every personal node with every repository node and keep candidates."""
        counters = counters if counters is not None else CounterSet()
        personal_ids = list(personal_schema.node_ids())
        sets = MappingElementSets(personal_ids)

        if self.use_batch or (self.use_batch is None and self._batch_capable()):
            if not self._batch_capable():
                raise MatcherError(
                    f"matcher {self.matcher!r} does not support batch selection"
                )
            return self._select_batch(personal_schema, repository, sets, personal_ids, counters)

        needs_context = getattr(self.matcher, "is_structural", False)
        for personal_id in personal_ids:
            personal_node = personal_schema.node(personal_id)
            candidates: List[MappingElement] = []
            for ref, repository_node in repository.iter_nodes():
                context = None
                if needs_context:
                    context = MatchContext(
                        personal_schema=personal_schema,
                        repository=repository,
                        personal_node_id=personal_id,
                        repository_ref=ref,
                    )
                score = self.matcher(personal_node, repository_node, context)
                counters.increment("element_comparisons")
                if score >= self.threshold and score > 0.0:
                    candidates.append(
                        MappingElement(personal_node_id=personal_id, ref=ref, similarity=score)
                    )
            self._keep(sets, personal_id, candidates, counters)
        return sets

    def _select_batch(
        self,
        personal_schema: SchemaTree,
        repository: SchemaRepository,
        sets: MappingElementSets,
        personal_ids: Sequence[int],
        counters: CounterSet,
    ) -> MappingElementSets:
        """The indexed, deduplicated, pruned element-matching pipeline.

        Each personal name is scored once per *unique* repository name (see
        :meth:`BatchElementMatcher.batch_scores`) and the score is fanned out
        to every node sharing the name.  The matcher's prefilter only removes
        pairs that provably score below the threshold, and survivors carry the
        exact similarity, so the produced sets — including ``top_k``
        tie-breaking, which orders by ``(-similarity, global_id)`` exactly as
        the naive loop does — are identical to the per-pair scan.
        """
        matcher = self.matcher
        assert isinstance(matcher, BatchElementMatcher)
        index = matcher.name_index(repository)
        node_count = repository.node_count
        threshold = self.threshold
        for personal_id in personal_ids:
            personal_node = personal_schema.node(personal_id)
            scores = matcher.batch_scores(personal_node.name, index, threshold, counters)
            counters.increment("element_comparisons", node_count)
            candidates: List[MappingElement] = []
            for name_id, score in scores.items():
                if score >= threshold and score > 0.0:
                    for ref in index.refs_for_id(name_id):
                        candidates.append(
                            MappingElement(personal_node_id=personal_id, ref=ref, similarity=score)
                        )
            self._keep(sets, personal_id, candidates, counters)
        return sets

    def _keep(
        self,
        sets: MappingElementSets,
        personal_id: int,
        candidates: List[MappingElement],
        counters: CounterSet,
    ) -> None:
        """Apply the shared top-k / ordering / counting tail of both paths."""
        if self.top_k is not None and len(candidates) > self.top_k:
            candidates.sort(key=lambda element: (-element.similarity, element.ref.global_id))
            candidates = candidates[: self.top_k]
        for element in sorted(candidates):
            sets.add(element)
        counters.increment("mapping_elements", len(candidates))
