"""Sharded vs. unsharded equivalence: the fan-out/merge must be invisible.

The headline guarantee of :class:`repro.shard.ShardedMatchingService` is that
query results are *bit-identical* to the unsharded service for any shard
count and any router.  These tests pin that identity through
every projection a result carries — ranked mappings (scores, signatures,
cluster ids), candidate tables, cluster reports, clustering — plus the
incremental-mutation and error paths of the shard layer.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, ShardError, UnknownTreeError
from repro.schema.builder import TreeBuilder
from repro.service import MatchingService
from repro.shard import (
    ClusterAffinityRouter,
    RoundRobinRouter,
    ShardedMatchingService,
    SizeBalancedRouter,
    merged_repository,
    split_repository,
)
from repro.system.results import DEFAULT_QUERY_CACHE_SIZE
from repro.workload.personal import paper_personal_schema

THRESHOLD = 0.5


def make_sharded(repository, shard_count, router=None, **kwargs):
    kwargs.setdefault("element_threshold", THRESHOLD)
    return ShardedMatchingService.from_repository(
        repository, shard_count, router=router, **kwargs
    )


def assert_results_identical(sharded_result, reference_result):
    """Every projection of the result must match, not just the ranking."""
    assert sharded_result.ranking_key() == reference_result.ranking_key()
    assert [m.cluster_id for m in sharded_result.mappings] == [
        m.cluster_id for m in reference_result.mappings
    ]
    assert [m.tree_id for m in sharded_result.mappings] == [
        m.tree_id for m in reference_result.mappings
    ]
    # Candidate tables: same elements, same (unsharded scan) order.
    assert sharded_result.candidates.personal_node_ids == reference_result.candidates.personal_node_ids
    for node_id in reference_result.candidates.personal_node_ids:
        assert [
            (e.ref.global_id, e.ref.tree_id, e.ref.node_id, e.similarity)
            for e in sharded_result.candidates.elements_for(node_id)
        ] == [
            (e.ref.global_id, e.ref.tree_id, e.ref.node_id, e.similarity)
            for e in reference_result.candidates.elements_for(node_id)
        ]
    # Cluster reports (ids, trees, sizes, search spaces) in cluster-id order.
    assert [
        (r.cluster_id, r.tree_id, r.member_count, r.mapping_element_count, r.search_space)
        for r in sharded_result.cluster_reports
    ] == [
        (r.cluster_id, r.tree_id, r.member_count, r.mapping_element_count, r.search_space)
        for r in reference_result.cluster_reports
    ]
    # Full clustering, translated back to merged coordinates.
    assert sharded_result.clustering is not None
    assert [
        (c.cluster_id, c.tree_id, sorted(c.member_global_ids()), c.centroid.global_id)
        for c in sharded_result.clustering.clusters
    ] == [
        (c.cluster_id, c.tree_id, sorted(c.member_global_ids()), c.centroid.global_id)
        for c in reference_result.clustering.clusters
    ]


class TestEquivalence:
    @pytest.mark.parametrize("shard_count", [1, 2, 3, 4])
    def test_every_shard_count_matches_unsharded(
        self, shard_repository, shard_count, query_schemas, reference_results
    ):
        service = make_sharded(shard_repository, shard_count)
        for schema, reference in zip(query_schemas, reference_results):
            assert_results_identical(service.match(schema), reference)

    @pytest.mark.parametrize(
        "router", [RoundRobinRouter(), SizeBalancedRouter(), ClusterAffinityRouter()]
    )
    def test_every_router_matches_unsharded(
        self, shard_repository, router, query_schemas, reference_results
    ):
        service = make_sharded(shard_repository, 3, router=router)
        for schema, reference in zip(query_schemas, reference_results):
            assert_results_identical(service.match(schema), reference)

    @pytest.mark.parametrize("shard_count", [1, 3])
    @pytest.mark.parametrize("top_k", [1, 3, 10])
    def test_top_k_matches_unsharded(
        self, shard_repository, reference_service, shard_count, top_k
    ):
        schema = paper_personal_schema()
        reference = reference_service.match(schema, top_k=top_k)
        service = make_sharded(shard_repository, shard_count)
        result = service.match(schema, top_k=top_k)
        assert result.ranking_key() == reference.ranking_key()
        assert len(result.mappings) <= top_k

    @pytest.mark.parametrize("shard_count", [1, 2, 3, 4])
    def test_repeated_top_k_queries_start_from_a_fresh_shared_pool(
        self, shard_repository, shard_count, reference_results
    ):
        # Without a result cache every query fans out again; a pruning floor
        # left over from the previous query would cut mappings from this one.
        service = make_sharded(shard_repository, shard_count, query_cache_size=0)
        expected = reference_results[0].ranking_key()[:2]
        for _ in range(3):
            assert service.match(paper_personal_schema(), top_k=2).ranking_key() == expected
        assert service.stats()["query_cache_entries"] == 0

    def test_delta_override_matches_unsharded(self, shard_repository, reference_service):
        schema = paper_personal_schema()
        reference = reference_service.match(schema, delta=0.5)
        service = make_sharded(shard_repository, 2)
        assert service.match(schema, delta=0.5).ranking_key() == reference.ranking_key()


class TestArbitraryAssignments:
    """Any valid assignment — not just router-produced ones — merges exactly."""

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_random_assignments_match_unsharded(
        self, shard_repository, reference_results, query_schemas, data
    ):
        tree_count = shard_repository.tree_count
        shard_count = data.draw(st.integers(min_value=1, max_value=4))
        assignment = data.draw(
            st.lists(
                st.integers(min_value=0, max_value=shard_count - 1),
                min_size=tree_count,
                max_size=tree_count,
            ).filter(lambda a: len(set(a)) == shard_count)
        )
        shards = [
            MatchingService(repo, element_threshold=THRESHOLD)
            for repo in split_repository(shard_repository, assignment)
        ]
        service = ShardedMatchingService(shards, assignment)
        index = data.draw(st.integers(min_value=0, max_value=len(query_schemas) - 1))
        assert_results_identical(
            service.match(query_schemas[index]), reference_results[index]
        )


class TestMutations:
    def _fresh(self, shard_repository, shard_count=3):
        return make_sharded(shard_repository, shard_count)

    def _new_tree(self, name="added"):
        builder = TreeBuilder(name)
        root = builder.root("person")
        builder.child(root, "name")
        builder.child(root, "email")
        return builder.build()

    def test_add_tree_matches_rebuilt_unsharded(self, shard_repository):
        service = self._fresh(shard_repository)
        merged_id = service.add_tree(self._new_tree())
        assert merged_id == shard_repository.tree_count
        rebuilt = MatchingService(merged_repository(service), element_threshold=THRESHOLD)
        schema = paper_personal_schema()
        assert service.match(schema).ranking_key() == rebuilt.match(schema).ranking_key()
        assert service.counters.get("trees_added") == 1

    def test_remove_tree_matches_rebuilt_unsharded(self, shard_repository):
        service = self._fresh(shard_repository)
        service.remove_tree(1)
        rebuilt = MatchingService(merged_repository(service), element_threshold=THRESHOLD)
        schema = paper_personal_schema()
        assert service.match(schema).ranking_key() == rebuilt.match(schema).ranking_key()
        assert service.tree_count == shard_repository.tree_count - 1

    def test_remove_unknown_tree_raises_typed_error(self, shard_repository):
        service = self._fresh(shard_repository)
        with pytest.raises(UnknownTreeError):
            service.remove_tree(10**9)
        with pytest.raises(UnknownTreeError):
            service.remove_tree(-1)

    def test_remove_refuses_to_empty_a_shard(self, shard_repository):
        # With shard_count == tree_count every shard holds exactly one tree.
        service = make_sharded(shard_repository, shard_repository.tree_count)
        with pytest.raises(ShardError, match="rebalance"):
            service.remove_tree(0)

    def test_mutations_bump_global_version_and_clear_cache(self, shard_repository):
        service = self._fresh(shard_repository)
        service.match(paper_personal_schema())
        assert service.query_cache_len == 1
        version = service.global_version
        service.add_tree(self._new_tree())
        assert service.global_version == version + 1
        assert service.query_cache_len == 0


class TestConstructionErrors:
    def test_more_shards_than_trees_is_an_error(self, shard_repository):
        with pytest.raises(ShardError, match="at least one tree"):
            make_sharded(shard_repository, shard_repository.tree_count + 1)

    def test_zero_shards_is_an_error(self, shard_repository):
        with pytest.raises(ShardError):
            make_sharded(shard_repository, 0)

    def test_mismatched_shard_configuration_is_an_error(self, shard_repository):
        assignment = [0 if tree_id % 2 == 0 else 1 for tree_id in range(shard_repository.tree_count)]
        repos = split_repository(shard_repository, assignment)
        shards = [
            MatchingService(repos[0], element_threshold=0.5),
            MatchingService(repos[1], element_threshold=0.6),
        ]
        with pytest.raises(ShardError, match="matching configuration"):
            ShardedMatchingService(shards, assignment)

    def test_mismatched_fragment_size_is_an_error(self, shard_repository):
        assignment = [0 if tree_id % 2 == 0 else 1 for tree_id in range(shard_repository.tree_count)]
        repos = split_repository(shard_repository, assignment)
        shards = [
            MatchingService(repos[0], element_threshold=0.5, partition_max_fragment_size=20),
            MatchingService(repos[1], element_threshold=0.5, partition_max_fragment_size=5),
        ]
        with pytest.raises(ShardError, match="matching configuration"):
            ShardedMatchingService(shards, assignment)

    def test_mismatched_matcher_is_an_error(self, shard_repository):
        from repro.matchers.name import FuzzyNameMatcher

        assignment = [0 if tree_id % 2 == 0 else 1 for tree_id in range(shard_repository.tree_count)]
        repos = split_repository(shard_repository, assignment)
        shards = [
            MatchingService(repos[0], element_threshold=0.5),
            MatchingService(
                repos[1], element_threshold=0.5, matcher=FuzzyNameMatcher(case_sensitive=True)
            ),
        ]
        with pytest.raises(ShardError, match="matching configuration"):
            ShardedMatchingService(shards, assignment)

    def test_non_partition_clusterer_is_an_error(self, shard_repository):
        assignment = [0] * shard_repository.tree_count
        (repo,) = split_repository(shard_repository, assignment)
        shard = MatchingService(repo, variant="medium", element_threshold=0.5)
        with pytest.raises(ShardError, match="partition"):
            ShardedMatchingService([shard], assignment)

    def test_assignment_shard_count_mismatch_is_an_error(self, shard_repository):
        assignment = [0] * shard_repository.tree_count
        (repo,) = split_repository(shard_repository, assignment)
        shard = MatchingService(repo, element_threshold=0.5)
        with pytest.raises(ShardError):
            ShardedMatchingService([shard], [1] * shard_repository.tree_count)

    def test_invalid_top_k_is_a_configuration_error(self, shard_repository):
        service = make_sharded(shard_repository, 2)
        with pytest.raises(ConfigurationError):
            service.match(paper_personal_schema(), top_k=0)


class TestViewAndStats:
    def test_repository_view_matches_merged_sizes(self, shard_repository):
        service = make_sharded(shard_repository, 3)
        view = service.repository
        assert view.tree_count == shard_repository.tree_count
        assert view.node_count == shard_repository.node_count
        assert view.summary() == shard_repository.summary()
        for tree_id in range(shard_repository.tree_count):
            assert view.tree(tree_id).name == shard_repository.tree(tree_id).name
            assert view.tree(tree_id).node_count == shard_repository.tree(tree_id).node_count

    def test_view_unknown_tree_raises_typed_error(self, shard_repository):
        service = make_sharded(shard_repository, 2)
        with pytest.raises(UnknownTreeError):
            service.repository.tree(shard_repository.tree_count)

    def test_stats_carry_per_shard_breakdown(self, shard_repository):
        service = make_sharded(shard_repository, 3)
        service.match(paper_personal_schema())
        stats = service.stats()
        assert stats["shards"] == 3
        assert stats["trees"] == shard_repository.tree_count
        assert "executor" not in stats
        assert stats["query_cache_capacity"] == DEFAULT_QUERY_CACHE_SIZE
        assert len(stats["per_shard"]) == 3
        assert sum(entry["trees"] for entry in stats["per_shard"]) == shard_repository.tree_count
        for shard_id, entry in enumerate(stats["per_shard"]):
            assert entry["shard"] == shard_id
            assert entry["variant"] == "partition"
            assert "executor" not in entry
            assert "repository_version" in entry
