"""Clustering of mapping elements (the paper's core contribution).

The clusterer (component *c* of Fig. 3) groups the mapping elements produced by
the element-matching stage into clusters; the mapping generator then searches
each cluster independently, which shrinks its search space from
``O(|MEn|^|Ns|)`` to ``O(c * (|MEn|/c)^|Ns|)``.

This package implements the adapted k-means algorithm of Section 4 — MEmin
centroid seeding, tree-distance measure, medoid centroids, join / remove
reclustering, relaxed convergence — plus the *tree clusters* baseline (each
repository tree is one cluster, i.e. non-clustered matching) and an offline
fragment-based baseline in the spirit of Rahm et al.'s fragment matching.
"""

from repro.clustering.cluster import CandidateSplit, Cluster, ClusterSet, split_candidates
from repro.clustering.distance import BlendedDistance, ClusteringDistance, PathLengthDistance
from repro.clustering.initialization import (
    CentroidInitializer,
    MEminInitializer,
    PerTreeInitializer,
    RandomInitializer,
)
from repro.clustering.reclustering import (
    CompositeReclustering,
    JoinReclustering,
    NoReclustering,
    ReclusteringStrategy,
    RemoveReclustering,
)
from repro.clustering.convergence import ConvergenceCriterion, RelaxedConvergence, TotalStability
from repro.clustering.kmeans import Clusterer, ClusteringResult, KMeansClusterer
from repro.clustering.baselines import FragmentClusterer, TreeClusterer
from repro.clustering.quality import cluster_quality, order_clusters_by_quality

__all__ = [
    "BlendedDistance",
    "CandidateSplit",
    "CentroidInitializer",
    "Cluster",
    "ClusterSet",
    "Clusterer",
    "ClusteringDistance",
    "ClusteringResult",
    "CompositeReclustering",
    "ConvergenceCriterion",
    "FragmentClusterer",
    "JoinReclustering",
    "KMeansClusterer",
    "MEminInitializer",
    "NoReclustering",
    "PathLengthDistance",
    "PerTreeInitializer",
    "RandomInitializer",
    "ReclusteringStrategy",
    "RelaxedConvergence",
    "RemoveReclustering",
    "TotalStability",
    "TreeClusterer",
    "cluster_quality",
    "order_clusters_by_quality",
    "split_candidates",
]
