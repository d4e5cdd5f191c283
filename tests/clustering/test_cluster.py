"""Tests for the cluster and cluster-set data structures."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "service"))
from _equivalence import cluster_key, counters_key, path_records_key, result_key  # noqa: E402

from repro.clustering.baselines import FragmentClusterer, TreeClusterer
from repro.clustering.cluster import Cluster, ClusterSet, split_candidates
from repro.clustering.reclustering import join_and_remove
from repro.errors import ClusteringError
from repro.mapping.base import GenerationResult
from repro.mapping.engine import TopKPool
from repro.mapping.model import MappingProblem
from repro.mapping.ranking import merge_ranked
from repro.mapping.search_space import candidate_search_space
from repro.matchers.selection import MappingElement, MappingElementSets
from repro.schema.repository import RepositoryNodeRef
from repro.service.partition import PartitionClusterer, RepositoryPartition
from repro.system.bellflower import Bellflower
from repro.system.results import ClusterReport
from repro.system.variants import clustering_variant
from repro.workload.personal import contact_personal_schema, paper_personal_schema


def ref(global_id, tree_id=0):
    return RepositoryNodeRef(global_id=global_id, tree_id=tree_id, node_id=global_id)


@pytest.fixture
def candidates():
    sets = MappingElementSets([0, 1])
    sets.add(MappingElement(0, ref(1), 0.9))
    sets.add(MappingElement(0, ref(5), 0.7))
    sets.add(MappingElement(1, ref(2), 0.8))
    sets.add(MappingElement(1, ref(9, tree_id=1), 0.8))
    return sets


def test_cluster_rejects_cross_tree_members():
    with pytest.raises(ClusteringError):
        Cluster(cluster_id=0, tree_id=0, members={ref(3, tree_id=1)})
    cluster = Cluster(cluster_id=0, tree_id=0)
    with pytest.raises(ClusteringError):
        cluster.add(ref(3, tree_id=1))


def test_cluster_rejects_cross_tree_centroid():
    with pytest.raises(ClusteringError):
        Cluster(cluster_id=0, tree_id=0, members={ref(1)}, centroid=ref(9, tree_id=1))


def test_cluster_size_and_membership(candidates):
    cluster = Cluster(cluster_id=0, tree_id=0, members={ref(1), ref(2)})
    assert cluster.size == 2
    assert ref(1) in cluster
    assert cluster.member_global_ids() == {1, 2}
    assert cluster.mapping_element_count(candidates) == 2


def test_useful_cluster_needs_every_personal_node(candidates):
    useful = Cluster(cluster_id=0, tree_id=0, members={ref(1), ref(2)})
    assert useful.is_useful(candidates)
    not_useful = Cluster(cluster_id=1, tree_id=0, members={ref(1), ref(5)})
    assert not not_useful.is_useful(candidates)


def test_restricted_candidates(candidates):
    cluster = Cluster(cluster_id=0, tree_id=0, members={ref(1), ref(2)})
    restricted = cluster.restricted_candidates(candidates)
    assert restricted.sizes() == {0: 1, 1: 1}


def test_cluster_set_operations(candidates):
    clusters = ClusterSet(
        [
            Cluster(cluster_id=0, tree_id=0, members={ref(1), ref(2)}),
            Cluster(cluster_id=1, tree_id=0, members={ref(5)}),
            Cluster(cluster_id=2, tree_id=1, members=set()),
        ]
    )
    assert clusters.cluster_count == 3
    assert len(clusters.non_empty()) == 2
    assert clusters.sizes() == [2, 1, 0]
    assert clusters.total_members() == 3
    assert [c.cluster_id for c in clusters.useful_clusters(candidates)] == [0]
    assert clusters.mapping_element_sizes(candidates) == [2, 1, 0]
    assignment = clusters.assignment()
    assert assignment[1] == 0 and assignment[5] == 1


# -- the one-pass split -----------------------------------------------------------


def table_key(table):
    """A candidate table as (node, element identities) pairs, in table order."""
    return [(node_id, [id(element) for element in elements]) for node_id, elements in table]


def assert_split_matches_per_cluster_restriction(clusters, table):
    split = split_candidates(clusters, table)
    assert split.clusters == list(clusters)
    for index, cluster in enumerate(clusters):
        expected = cluster.restricted_candidates(table)
        assert split.counts[index] == expected.total() == cluster.mapping_element_count(table)
        assert (split.tables[index] is not None) == cluster.is_useful(table)
        if split.tables[index] is not None:
            assert table_key(split.tables[index]) == table_key(expected)
    assert [cluster for cluster, _ in split.useful()] == [c for c in clusters if c.is_useful(table)]
    cluster_set = ClusterSet(clusters)
    assert cluster_set.useful_clusters(table) == [c for c in clusters if c.is_useful(table)]
    sizes = [cluster.mapping_element_count(table) for cluster in clusters]
    assert cluster_set.mapping_element_sizes(table) == sizes


def test_split_covers_overlaps_empty_clusters_and_unclustered_refs():
    """Ref 2 sits in clusters 0 and 1 and under both personal nodes; ref 7 is in no cluster."""
    table = MappingElementSets([4, 1])
    elements = [(4, 3, 0.9), (4, 2, 0.8), (4, 7, 0.7), (1, 2, 0.6), (1, 5, 0.5)]
    for node_id, global_id, similarity in elements:
        table.add(MappingElement(node_id, ref(global_id, tree_id=global_id % 2), similarity))
    clusters = [
        Cluster(cluster_id=0, tree_id=0, members={ref(2), ref(4)}),
        Cluster(cluster_id=1, tree_id=0, members={ref(2)}),
        Cluster(cluster_id=2, tree_id=1, members=set()),
        Cluster(cluster_id=3, tree_id=1, members={ref(3, tree_id=1), ref(5, tree_id=1)}),
    ]
    split = split_candidates(clusters, table)
    assert split.counts == [2, 2, 0, 2]
    assert [cluster.cluster_id for cluster, _ in split.useful()] == [0, 1, 3]
    assert split.tables[2] is None
    assert_split_matches_per_cluster_restriction(clusters, table)


def test_split_builds_no_table_for_a_cluster_missing_a_personal_node(candidates):
    clusters = [Cluster(cluster_id=0, tree_id=0, members={ref(1), ref(5)})]
    split = split_candidates(clusters, candidates)
    assert split.tables == [None] and split.counts == [2] and split.useful() == []


@st.composite
def split_problems(draw):
    """A candidate table plus clusters: overlapping members, empty clusters,
    refs in no cluster, and one ref under several personal nodes."""
    node_ids = draw(st.lists(st.integers(0, 9), min_size=1, max_size=4, unique=True))
    table = MappingElementSets(node_ids)
    for node_id in node_ids:
        global_ids = draw(st.lists(st.integers(0, 15), max_size=8, unique=True))
        for global_id in global_ids:
            similarity = draw(st.floats(0.05, 1.0))
            table.add(MappingElement(node_id, ref(global_id, tree_id=global_id % 2), similarity))
    clusters = []
    for cluster_id in range(draw(st.integers(0, 6))):
        tree_id = draw(st.integers(0, 1))
        members = draw(st.sets(st.sampled_from(range(tree_id, 16, 2)), max_size=6))
        refs = {ref(global_id, tree_id) for global_id in members}
        clusters.append(Cluster(cluster_id=cluster_id, tree_id=tree_id, members=refs))
    return clusters, table


@settings(max_examples=200, deadline=None)
@given(split_problems())
def test_split_equals_per_cluster_restriction(problem):
    clusters, table = problem
    assert_split_matches_per_cluster_restriction(clusters, table)


def reference_generate_mappings(
    self,
    personal_schema,
    candidates,
    clustering,
    delta,
    top_k=None,
    shared_pool=None,
    deadline=None,
):
    """Stage 3 as one ``restricted_candidates`` scan per cluster: the split's reference."""
    pool = None
    if top_k is not None:
        pool = shared_pool if shared_pool is not None else TopKPool(top_k)
    problems, reports = [], []
    for cluster in clustering.clusters:
        restricted = cluster.restricted_candidates(candidates)
        if not restricted.is_complete():
            continue
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
    merged = GenerationResult()
    per_cluster_mappings = []
    for problem in problems:
        result = self.generator.generate(problem)
        per_cluster_mappings.append(result.mappings)
        merged.counters.merge(result.counters)
        merged.elapsed_seconds += result.elapsed_seconds
    merged.mappings = merge_ranked(per_cluster_mappings)
    if top_k is not None:
        del merged.mappings[top_k:]
    return merged, reports


CLUSTERERS = {
    "tree": TreeClusterer,
    "fragment": lambda: FragmentClusterer(max_fragment_size=12),
    # At any join threshold of 1 or more every fragment of a tree joins back
    # into one; 0.5 keeps the fragments and lets remove drop the singletons.
    "partition-join-remove": lambda: PartitionClusterer(
        RepositoryPartition(max_fragment_size=20, reclustering=join_and_remove(0.5, min_size=2))
    ),
    "kmeans": lambda: clustering_variant("medium").make_clusterer(),
}


@pytest.mark.parametrize("top_k", [None, 3])
@pytest.mark.parametrize("clusterer", sorted(CLUSTERERS))
def test_generate_mappings_equals_per_cluster_reference(
    monkeypatch, synthetic_repository, clusterer, top_k
):
    def answers():
        # A fresh system per path: the matcher's name memo would otherwise
        # carry element-matching counters from one path into the other.
        system = Bellflower(
            synthetic_repository,
            clusterer=CLUSTERERS[clusterer](),
            element_threshold=0.45,
            delta=0.6,
        )
        schemas = (paper_personal_schema(), contact_personal_schema())
        return [system.match(schema, top_k=top_k) for schema in schemas]

    results = answers()
    monkeypatch.setattr(Bellflower, "generate_mappings", reference_generate_mappings)
    references = answers()
    assert any(result.mappings for result in results)
    for result, reference in zip(results, references):
        assert result_key(result) == result_key(reference)
        assert counters_key(result) == counters_key(reference)
        assert path_records_key(result) == path_records_key(reference)
        assert cluster_key(result) == cluster_key(reference)
        assert result.cluster_reports == reference.cluster_reports
