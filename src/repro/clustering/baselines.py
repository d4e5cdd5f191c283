"""Baseline clusterers: tree clusters and offline fragments.

*Tree clusters* is the paper's non-clustered reference point: "each tree in the
repository is treated as one cluster".  The mapping generator then searches
every repository tree exhaustively, which is exactly what a matcher without the
clustering step would do.

*Fragments* emulate the offline fragmentation proposed by Rahm, Do and Maßmann
for matching large XML schemas: schemas are split into syntactic substructures
ahead of time, independently of the personal schema.  The comparison between
on-line, personal-schema-aware k-means clusters and off-line fragments is one
of the ablation benchmarks.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

from repro.clustering.cluster import clusters_from_groups
from repro.clustering.kmeans import Clusterer, ClusteringResult
from repro.errors import ClusteringError
from repro.labeling.distance import RepositoryDistanceOracle
from repro.matchers.selection import MappingElementSets
from repro.schema.repository import RepositoryNodeRef, SchemaRepository
from repro.schema.tree import SchemaTree
from repro.utils.counters import CounterSet


class TreeClusterer(Clusterer):
    """The non-clustered baseline: one cluster per repository tree."""

    name = "tree-clusters"

    def cluster(
        self,
        candidates: MappingElementSets,
        repository: SchemaRepository,
        oracle: Optional[RepositoryDistanceOracle] = None,
    ) -> ClusteringResult:
        started = time.perf_counter()
        counters = CounterSet()
        by_tree: Dict[tuple, set] = {}
        for element in candidates.iter_all_elements():
            by_tree.setdefault((element.ref.tree_id,), set()).add(element.ref)

        clusters = clusters_from_groups(by_tree)
        counters.set("iterations", 0)
        counters.set("clustered_items", sum(len(members) for members in by_tree.values()))
        return ClusteringResult(
            clusters=clusters, counters=counters, elapsed_seconds=time.perf_counter() - started
        )


def fragment_tree(tree: SchemaTree, max_fragment_size: int) -> Dict[int, int]:
    """Assign every node of ``tree`` to a fragment id (local to the tree).

    A subtree of at most ``max_fragment_size`` nodes becomes one fragment;
    larger subtrees delegate to their children, the splitting node anchoring
    its own (small) fragment so it is never lost.  Deterministic in the tree
    alone, which is what lets :class:`repro.service.RepositoryPartition`
    refragment a single tree on incremental updates and provably match a full
    rebuild.
    """
    if max_fragment_size < 1:
        raise ClusteringError(f"max_fragment_size must be positive, got {max_fragment_size}")
    assignment: Dict[int, int] = {}
    next_fragment = 0
    sizes = tree.subtree_sizes()

    def assign_subtree(node_id: int, fragment: int) -> None:
        for descendant in tree.preorder(node_id):
            assignment[descendant] = fragment

    def split(node_id: int) -> None:
        nonlocal next_fragment
        if sizes[node_id] <= max_fragment_size:
            assign_subtree(node_id, next_fragment)
            next_fragment += 1
            return
        # The splitting node anchors its own (small) fragment so it is never lost.
        assignment[node_id] = next_fragment
        next_fragment += 1
        for child_id in tree.children_ids(node_id):
            split(child_id)

    split(tree.root_id)
    return assignment


class FragmentClusterer(Clusterer):
    """Offline, personal-schema-agnostic fragmentation of repository trees.

    Every repository tree is recursively split into fragments of at most
    ``max_fragment_size`` nodes: a subtree small enough becomes one fragment,
    larger subtrees delegate to their children (the splitting node itself joins
    the fragment of each child so that paths crossing the split remain partly
    covered).  Mapping elements are then grouped by fragment membership.
    """

    name = "fragments"

    def __init__(self, max_fragment_size: int = 20) -> None:
        if max_fragment_size < 1:
            raise ClusteringError(f"max_fragment_size must be positive, got {max_fragment_size}")
        self.max_fragment_size = max_fragment_size

    def _fragment_tree(self, tree: SchemaTree) -> Dict[int, int]:
        return fragment_tree(tree, self.max_fragment_size)

    def cluster(
        self,
        candidates: MappingElementSets,
        repository: SchemaRepository,
        oracle: Optional[RepositoryDistanceOracle] = None,
    ) -> ClusteringResult:
        started = time.perf_counter()
        counters = CounterSet()

        # Fragment only the trees that actually contain mapping elements.
        trees_with_elements = {element.ref.tree_id for element in candidates.iter_all_elements()}
        fragment_of: Dict[int, Dict[int, int]] = {}
        for tree_id in trees_with_elements:
            fragment_of[tree_id] = self._fragment_tree(repository.tree(tree_id))
            counters.increment("fragmented_trees")

        grouped: Dict[tuple, set] = {}
        for element in candidates.iter_all_elements():
            key = (element.ref.tree_id, fragment_of[element.ref.tree_id][element.ref.node_id])
            grouped.setdefault(key, set()).add(element.ref)

        clusters = clusters_from_groups(grouped)
        counters.set("iterations", 0)
        counters.set("clustered_items", sum(len(m) for m in grouped.values()))
        return ClusteringResult(
            clusters=clusters, counters=counters, elapsed_seconds=time.perf_counter() - started
        )
