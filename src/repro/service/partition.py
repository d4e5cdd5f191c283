"""Precomputed repository partitions and the clusterer that serves them.

The paper's k-means clusters depend on the query (they group the *mapping
elements* of one personal schema), so they cannot be precomputed.  What *can*
be precomputed — and therefore snapshotted and updated incrementally — is an
offline, personal-schema-agnostic partition of every repository tree into
fragments (the Rahm-style baseline of
:class:`~repro.clustering.baselines.FragmentClusterer`), optionally
post-processed by a :class:`~repro.clustering.reclustering.ReclusteringStrategy`
(e.g. *join & remove* to merge adjacent slivers and drop single-node
fragments).

Locality argument (why incremental updates equal a full rebuild)
----------------------------------------------------------------

Fragmentation is a deterministic function of one tree
(:func:`~repro.clustering.baselines.fragment_tree`), and every bundled
reclustering strategy is *tree-local*: join only merges clusters whose
centroids share a tree (cross-tree distance is infinite), and remove inspects
each cluster in isolation.  The partition of tree ``T`` therefore never
depends on any other tree, so recomputing only the added tree's entry (or
deleting only the removed tree's entry and re-keying the rest) produces
exactly the partition a full rebuild would — the equivalence the service's
incremental-update tests pin.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.clustering.baselines import fragment_tree
from repro.clustering.cluster import Cluster, clusters_from_groups
from repro.clustering.distance import PathLengthDistance
from repro.clustering.kmeans import Clusterer, ClusteringResult
from repro.clustering.reclustering import ReclusteringStrategy
from repro.errors import ClusteringError
from repro.labeling.distance import RepositoryDistanceOracle
from repro.matchers.selection import MappingElementSets
from repro.schema.repository import RepositoryNodeRef, SchemaRepository, shift_tree_keys
from repro.schema.tree import SchemaTree
from repro.utils.counters import CounterSet


def tree_fragments(tree: SchemaTree, max_fragment_size: int) -> List[List[int]]:
    """The fragments of one tree before reclustering: sorted node-id lists.

    Fragments come in ascending fragment-id order of
    :func:`~repro.clustering.baselines.fragment_tree`.  They read only the
    tree itself, so a streaming writer can fragment a tree that belongs to
    no repository.
    """
    assignment = fragment_tree(tree, max_fragment_size)
    groups: Dict[int, List[int]] = {}
    for node_id in tree.node_ids():
        groups.setdefault(assignment[node_id], []).append(node_id)
    return [sorted(members) for _, members in sorted(groups.items())]


class RepositoryPartition:
    """Per-tree fragment lists, maintained incrementally and snapshottable.

    Fragments are stored as sorted tree-local node-id lists (global ids shift
    on removals; node ids never do), keyed by tree id.  Entries are built
    lazily on first use, eagerly by :meth:`build_all` (service warm-up /
    snapshot write), and maintained by :meth:`on_tree_added` /
    :meth:`on_tree_removed`.

    Parameters
    ----------
    max_fragment_size:
        Fragment size cap passed to
        :func:`~repro.clustering.baselines.fragment_tree`.
    reclustering:
        Optional strategy applied to each tree's fragments after splitting.
        Must be tree-local (all bundled strategies are); a strategy that
        joined clusters across trees would break both the cluster invariant
        and the incremental-update equivalence.
    """

    def __init__(
        self,
        max_fragment_size: int = 20,
        reclustering: Optional[ReclusteringStrategy] = None,
    ) -> None:
        if max_fragment_size < 1:
            raise ClusteringError(f"max_fragment_size must be positive, got {max_fragment_size}")
        self.max_fragment_size = max_fragment_size
        self.reclustering = reclustering
        self._fragments: Dict[int, List[List[int]]] = {}
        self._node_fragment: Dict[int, Dict[int, int]] = {}

    # -- construction -------------------------------------------------------

    def _build_tree(
        self,
        repository: SchemaRepository,
        tree_id: int,
        oracle: Optional[RepositoryDistanceOracle],
    ) -> List[List[int]]:
        fragments = tree_fragments(repository.tree(tree_id), self.max_fragment_size)
        if self.reclustering is not None:
            offset = repository.tree_offset(tree_id)
            clusters = [
                Cluster(
                    cluster_id=index,
                    tree_id=tree_id,
                    members={
                        RepositoryNodeRef(
                            global_id=offset + node_id, tree_id=tree_id, node_id=node_id
                        )
                        for node_id in members
                    },
                    centroid=RepositoryNodeRef(
                        global_id=offset + members[0], tree_id=tree_id, node_id=members[0]
                    ),
                )
                for index, members in enumerate(fragments)
            ]
            distance = PathLengthDistance(oracle or RepositoryDistanceOracle(repository))
            clusters = self.reclustering.recluster(clusters, distance, CounterSet())
            fragments = sorted(
                sorted(member.node_id for member in cluster.members) for cluster in clusters
            )
        return fragments

    def fragments_for(
        self,
        repository: SchemaRepository,
        tree_id: int,
        oracle: Optional[RepositoryDistanceOracle] = None,
    ) -> List[List[int]]:
        """The tree's fragments (sorted node-id lists), built on first use."""
        fragments = self._fragments.get(tree_id)
        if fragments is None:
            fragments = self._build_tree(repository, tree_id, oracle)
            self._fragments[tree_id] = fragments
            self._node_fragment[tree_id] = {
                node_id: index for index, members in enumerate(fragments) for node_id in members
            }
        return fragments

    def fragment_of(
        self,
        repository: SchemaRepository,
        tree_id: int,
        node_id: int,
        oracle: Optional[RepositoryDistanceOracle] = None,
    ) -> Optional[int]:
        """Fragment index of a node, ``None`` when reclustering dropped it."""
        self.fragments_for(repository, tree_id, oracle)
        return self._node_fragment[tree_id].get(node_id)

    def build_all(
        self, repository: SchemaRepository, oracle: Optional[RepositoryDistanceOracle] = None
    ) -> None:
        """Materialize every tree's fragments (service warm-up, snapshot write)."""
        for tree in repository.trees():
            self.fragments_for(repository, tree.tree_id, oracle)

    @property
    def built_tree_count(self) -> int:
        return len(self._fragments)

    # -- incremental maintenance --------------------------------------------

    def on_tree_added(
        self,
        repository: SchemaRepository,
        tree_id: int,
        oracle: Optional[RepositoryDistanceOracle] = None,
    ) -> None:
        """Fragment only the new tree (existing entries are untouched).

        The new entry is built eagerly only when the partition was fully
        materialized before the mutation, keeping serve-time latency flat; a
        partially built partition stays lazy.
        """
        self._fragments.pop(tree_id, None)
        self._node_fragment.pop(tree_id, None)
        if len(self._fragments) == repository.tree_count - 1:
            self.fragments_for(repository, tree_id, oracle)

    def on_tree_removed(self, removed_tree_id: int) -> None:
        """Drop the removed tree's entry and re-key entries behind it."""
        self._fragments = shift_tree_keys(self._fragments, removed_tree_id)
        self._node_fragment = shift_tree_keys(self._node_fragment, removed_tree_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RepositoryPartition(max_fragment_size={self.max_fragment_size}, "
            f"built_trees={self.built_tree_count})"
        )


class PartitionClusterer(Clusterer):
    """Serve clusters from a precomputed :class:`RepositoryPartition`.

    Equivalent to :class:`~repro.clustering.baselines.FragmentClusterer` with
    the same fragment size (and no reclustering), but O(1) per mapping element
    at query time: the per-tree fragmentation runs once per repository
    mutation instead of once per query, which is exactly the state a snapshot
    persists.
    """

    name = "partition"

    def __init__(self, partition: RepositoryPartition) -> None:
        self.partition = partition

    def cluster(
        self,
        candidates: MappingElementSets,
        repository: SchemaRepository,
        oracle: Optional[RepositoryDistanceOracle] = None,
    ) -> ClusteringResult:
        started = time.perf_counter()
        counters = CounterSet()
        grouped: Dict[Tuple[int, int], set] = {}
        dropped = 0
        seen_trees = set()
        for element in candidates.iter_all_elements():
            ref = element.ref
            seen_trees.add(ref.tree_id)
            fragment = self.partition.fragment_of(repository, ref.tree_id, ref.node_id, oracle)
            if fragment is None:
                dropped += 1
                continue
            grouped.setdefault((ref.tree_id, fragment), set()).add(ref)

        clusters = clusters_from_groups(grouped)
        counters.set("iterations", 0)
        counters.set("clustered_items", sum(len(members) for members in grouped.values()))
        counters.set("partition_trees_touched", len(seen_trees))
        counters.set("unclustered_items", dropped)
        return ClusteringResult(
            clusters=clusters, counters=counters, elapsed_seconds=time.perf_counter() - started
        )
