"""Clusters of mapping elements.

A cluster is a set of repository nodes (mapping-element targets) that lie close
to each other in one repository tree, represented by a centroid node.  A
cluster is *useful* when it contains at least one candidate for every personal
schema node — only useful clusters can produce complete schema mappings
(Sec. 2.3).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import ClusteringError
from repro.matchers.selection import MappingElement, MappingElementSets
from repro.schema.repository import RepositoryNodeRef


@dataclass
class Cluster:
    """One cluster of mapping elements.

    Attributes
    ----------
    cluster_id:
        Identifier unique within a :class:`ClusterSet`.
    tree_id:
        The repository tree all members belong to (clusters never span trees
        because the tree distance between trees is infinite).
    members:
        The repository nodes in the cluster.
    centroid:
        The representative node (a *medoid*: always one of the members).
    """

    cluster_id: int
    tree_id: int
    members: Set[RepositoryNodeRef] = field(default_factory=set)
    centroid: Optional[RepositoryNodeRef] = None

    def __post_init__(self) -> None:
        for member in self.members:
            if member.tree_id != self.tree_id:
                raise ClusteringError(
                    f"cluster {self.cluster_id} is in tree {self.tree_id} but member "
                    f"{member.global_id} is in tree {member.tree_id}"
                )
        if self.centroid is not None and self.centroid.tree_id != self.tree_id:
            raise ClusteringError(
                f"cluster {self.cluster_id} centroid is in tree {self.centroid.tree_id}, "
                f"expected tree {self.tree_id}"
            )

    @property
    def size(self) -> int:
        """Number of member repository nodes."""
        return len(self.members)

    def member_global_ids(self) -> Set[int]:
        return {member.global_id for member in self.members}

    def add(self, member: RepositoryNodeRef) -> None:
        if member.tree_id != self.tree_id:
            raise ClusteringError(
                f"cannot add node {member.global_id} from tree {member.tree_id} to cluster "
                f"{self.cluster_id} of tree {self.tree_id}"
            )
        self.members.add(member)

    def mapping_element_count(self, candidates: MappingElementSets) -> int:
        """Number of mapping elements in the cluster (Fig. 4's cluster size)."""
        return self.restricted_candidates(candidates).total()

    def restricted_candidates(self, candidates: MappingElementSets) -> MappingElementSets:
        """The candidate sets restricted to this cluster's members.

        One scan of the whole table per call: fine for one cluster, but loops
        over many clusters go through :func:`split_candidates` instead.
        """
        return candidates.restrict_to_refs(self.member_global_ids())

    def is_useful(self, candidates: MappingElementSets) -> bool:
        """True when every personal node has at least one candidate in the cluster."""
        return self.restricted_candidates(candidates).is_complete()

    def __contains__(self, ref: RepositoryNodeRef) -> bool:
        return ref in self.members

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Cluster(id={self.cluster_id}, tree={self.tree_id}, size={self.size})"


@dataclass(frozen=True)
class CandidateSplit:
    """One candidate table divided among a sequence of clusters.

    Entry ``i`` of each list belongs to ``clusters[i]``: ``counts`` holds the
    number of mapping elements falling in the cluster (Fig. 4's cluster size)
    and ``tables`` the cluster's restricted candidate table when the cluster
    is useful, ``None`` otherwise.
    """

    clusters: List[Cluster]
    counts: List[int]
    tables: List[Optional[MappingElementSets]]

    def useful(self) -> List[Tuple[Cluster, MappingElementSets]]:
        """The useful clusters with their tables, in cluster order."""
        pairs = zip(self.clusters, self.tables)
        return [(cluster, table) for cluster, table in pairs if table is not None]


def split_candidates(clusters: Iterable[Cluster], candidates: MappingElementSets) -> CandidateSplit:
    """Divide ``candidates`` among ``clusters`` in one pass over the table.

    Each member's global id is mapped to the indexes of the clusters holding
    it, then every mapping element is appended to the bucket of each of those
    clusters — O(cluster members + mapping elements) instead of one scan of
    the whole table per cluster.  A useful cluster's table equals
    ``cluster.restricted_candidates(candidates)``: the same personal nodes in
    the same order, the same elements in the same order within each node,
    and a repository node held by several clusters goes to each of them.
    Clusters missing a candidate for some personal node get no table.
    """
    clusters = list(clusters)
    owners: Dict[int, List[int]] = {}
    for index, cluster in enumerate(clusters):
        for global_id in cluster.member_global_ids():
            owners.setdefault(global_id, []).append(index)
    counts = [0] * len(clusters)
    per_node: List[Tuple[int, Dict[int, List[MappingElement]]]] = []
    for node_id, elements in candidates:
        buckets: Dict[int, List[MappingElement]] = defaultdict(list)
        for element in elements:
            for index in owners.get(element.ref.global_id, ()):
                buckets[index].append(element)
        for index, bucket in buckets.items():
            counts[index] += len(bucket)
        per_node.append((node_id, buckets))
    tables: List[Optional[MappingElementSets]] = [None] * len(clusters)
    # A useful cluster has a bucket under every personal node, so the node
    # reaching the fewest clusters names all the candidates.
    fewest = min((buckets for _, buckets in per_node), key=len)
    for index in fewest:
        if all(index in buckets for _, buckets in per_node):
            tables[index] = MappingElementSets.from_filtered(
                {node_id: buckets[index] for node_id, buckets in per_node}
            )
    return CandidateSplit(clusters=clusters, counts=counts, tables=tables)


def clusters_from_groups(grouped: Dict[tuple, Set[RepositoryNodeRef]]) -> ClusterSet:
    """Assemble grouped members into a canonical :class:`ClusterSet`.

    Shared by every offline clusterer (tree, fragment, precomputed partition):
    groups are renumbered in sorted key order — keys must start with the tree
    id — and each cluster's centroid is its smallest member by global id.
    Keeping this in one place is what lets the tests pin different clusterers'
    outputs as identical.
    """
    clusters = ClusterSet()
    for new_id, key in enumerate(sorted(grouped)):
        members = grouped[key]
        clusters.add(
            Cluster(
                cluster_id=new_id,
                tree_id=key[0],
                members=set(members),
                centroid=min(members, key=lambda ref: ref.global_id),
            )
        )
    return clusters


class ClusterSet:
    """The collection of clusters produced by one clustering run."""

    def __init__(self, clusters: Iterable[Cluster] = ()) -> None:
        self._clusters: List[Cluster] = []
        for cluster in clusters:
            self.add(cluster)

    def add(self, cluster: Cluster) -> None:
        self._clusters.append(cluster)

    def __iter__(self) -> Iterator[Cluster]:
        return iter(self._clusters)

    def __len__(self) -> int:
        return len(self._clusters)

    @property
    def cluster_count(self) -> int:
        return len(self._clusters)

    def clusters(self) -> List[Cluster]:
        return list(self._clusters)

    def non_empty(self) -> "ClusterSet":
        return ClusterSet(cluster for cluster in self._clusters if cluster.size > 0)

    def useful_clusters(self, candidates: MappingElementSets) -> List[Cluster]:
        """Clusters able to produce complete mappings for the given candidates."""
        return [cluster for cluster, _ in split_candidates(self._clusters, candidates).useful()]

    def sizes(self) -> List[int]:
        return [cluster.size for cluster in self._clusters]

    def mapping_element_sizes(self, candidates: MappingElementSets) -> List[int]:
        """Cluster sizes measured in mapping elements (the unit of Fig. 4)."""
        return split_candidates(self._clusters, candidates).counts

    def total_members(self) -> int:
        return sum(cluster.size for cluster in self._clusters)

    def assignment(self) -> Dict[int, int]:
        """Mapping from member global id to cluster id (for stability checks)."""
        mapping: Dict[int, int] = {}
        for cluster in self._clusters:
            for member in cluster.members:
                mapping[member.global_id] = cluster.cluster_id
        return mapping

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ClusterSet(clusters={len(self._clusters)}, members={self.total_members()})"
