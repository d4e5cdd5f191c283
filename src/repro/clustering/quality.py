"""Cluster quality scoring and ordering.

The paper's future-work list includes *ordering the clusters*: "a measure of
cluster's quality can be used to decide which clusters have better chances to
produce good mappings.  In this way, the time-to-first good mapping can be
improved."  The quality score implemented here is the optimistic best objective
value a cluster could deliver — the average, over personal nodes, of the best
candidate similarity available inside the cluster (an upper bound on Δsim,
combined with a perfect Δpath) — so sorting clusters by it front-loads the
clusters most likely to contain the top mappings.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.clustering.cluster import Cluster, split_candidates
from repro.matchers.selection import MappingElementSets
from repro.objective.bellflower import BellflowerObjective


def cluster_quality(
    cluster: Cluster,
    candidates: MappingElementSets,
    objective: Optional[BellflowerObjective] = None,
) -> float:
    """Optimistic best score any mapping generated from this cluster could reach.

    Non-useful clusters (missing a candidate for some personal node) score 0.
    """
    return _table_quality(cluster.restricted_candidates(candidates), objective)


def _table_quality(
    restricted: Optional[MappingElementSets], objective: Optional[BellflowerObjective]
) -> float:
    """:func:`cluster_quality` of one cluster's restricted table (``None``: not useful)."""
    if restricted is None or not restricted.is_complete():
        return 0.0
    best_per_node = []
    for node_id, elements in restricted:
        best_per_node.append(max(element.similarity for element in elements))
    optimistic_sim = sum(best_per_node) / len(best_per_node)
    alpha = objective.alpha if objective is not None else 0.5
    # Optimistically assume a perfect path score for the cluster.
    return alpha * optimistic_sim + (1.0 - alpha)


def order_clusters_by_quality(
    clusters: Sequence[Cluster],
    candidates: MappingElementSets,
    objective: Optional[BellflowerObjective] = None,
) -> List[Tuple[Cluster, float]]:
    """Clusters paired with their quality, best first (deterministic tie-break)."""
    split = split_candidates(clusters, candidates)
    scored = [
        (cluster, _table_quality(table, objective))
        for cluster, table in zip(split.clusters, split.tables)
    ]
    scored.sort(key=lambda pair: (-pair[1], pair[0].cluster_id))
    return scored
