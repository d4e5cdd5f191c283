"""The batched query front-end: dedup, cache accounting, result identity."""

from __future__ import annotations

import pytest

from repro.schema.builder import TreeBuilder
from repro.service import MatchingService
from repro.shard import ShardedMatchingService, merged_repository
from repro.workload.personal import (
    book_personal_schema,
    contact_personal_schema,
    paper_personal_schema,
)

THRESHOLD = 0.5


@pytest.fixture
def service(shard_repository):
    return ShardedMatchingService.from_repository(
        shard_repository, 2, element_threshold=THRESHOLD
    )


class TestDeduplication:
    def test_duplicates_collapse_to_one_computation(self, service):
        batch = [
            paper_personal_schema(),
            contact_personal_schema(),
            paper_personal_schema(),  # structurally identical to [0]
            book_personal_schema(),
            paper_personal_schema(),
        ]
        results = service.match_many(batch)
        assert len(results) == 5
        assert results[0] is results[2] and results[0] is results[4]
        assert service.counters.get("queries") == 5
        assert service.counters.get("duplicate_queries") == 2
        assert service.counters.get("query_cache_misses") == 3
        # One fan-out per unique query, one task per (query, shard).
        assert service.counters.get("shard_queries") == 3 * service.shard_count

    def test_results_align_with_input_positions(self, service, reference_results, query_schemas):
        batch = [query_schemas[2], query_schemas[0], query_schemas[2]]
        results = service.match_many(batch)
        assert results[0].ranking_key() == reference_results[2].ranking_key()
        assert results[1].ranking_key() == reference_results[0].ranking_key()
        assert results[2] is results[0]

    def test_empty_batch_is_empty(self, service):
        assert service.match_many([]) == []
        assert service.counters.get("queries") == 0


class TestFrontEndCache:
    def test_repeat_batch_is_served_from_cache(self, service):
        schema = paper_personal_schema()
        first = service.match_many([schema])[0]
        second = service.match_many([schema])[0]
        # A hit answers with the compact copy the cache stored, and every
        # later hit with that same copy.
        assert second is not first and second.candidates is None
        assert second.ranking_key() == first.ranking_key()
        assert service.match_many([schema])[0] is second
        assert service.counters.get("query_cache_hits") == 2
        assert service.counters.get("shard_queries") == service.shard_count  # only the miss fanned out

    def test_delta_and_top_k_are_part_of_the_key(self, service):
        schema = paper_personal_schema()
        service.match(schema)
        service.match(schema, delta=0.5)
        service.match(schema, top_k=2)
        assert service.counters.get("query_cache_misses") == 3
        assert service.counters.get("query_cache_hits") == 0

    def test_cache_capacity_is_bounded(self, shard_repository):
        service = ShardedMatchingService.from_repository(
            shard_repository, 2, element_threshold=THRESHOLD, query_cache_size=1
        )
        service.match(paper_personal_schema())
        service.match(contact_personal_schema())
        assert service.query_cache_len == 1
        service.match(paper_personal_schema())  # evicted: a fresh fan-out
        assert service.counters.get("query_cache_hits") == 0
        assert service.counters.get("query_cache_misses") == 3

    def test_cache_can_be_disabled(self, shard_repository, reference_results):
        service = ShardedMatchingService.from_repository(
            shard_repository, 2, element_threshold=THRESHOLD, query_cache_size=0
        )
        first = service.match(paper_personal_schema())
        second = service.match(paper_personal_schema())
        assert service.query_cache_len == 0
        assert service.counters.get("query_cache_hits") == 0
        assert service.counters.get("query_cache_misses") == 0
        assert first.ranking_key() == second.ranking_key() == reference_results[0].ranking_key()

    def test_mutation_invalidates_cached_results(self, service, shard_repository):
        from repro.schema.builder import TreeBuilder

        schema = paper_personal_schema()
        service.match(schema)
        builder = TreeBuilder("added")
        root = builder.root("person")
        builder.child(root, "name")
        service.add_tree(builder.build())
        rebuilt_reference = MatchingService(
            merged_repository(service), element_threshold=THRESHOLD
        )
        result = service.match(schema)
        assert service.counters.get("query_cache_hits") == 0
        assert result.ranking_key() == rebuilt_reference.match(schema).ranking_key()


class TestShardsKeepNoCache:
    def test_shards_inside_a_set_never_cache(self, service, query_schemas):
        stream = query_schemas + [paper_personal_schema()]
        for schema in stream:
            service.match(schema)
            service.match(schema, top_k=2)
        service.match_many(stream, delta=0.6)
        service.add_tree(TreeBuilder.from_nested({"person": ["name"]}, name="added"))
        service.match_many(stream)
        assert service.query_cache_len > 0
        assert service.counters.get("query_cache_hits") > 0
        assert all(shard.query_cache_len == 0 for shard in service.shards)


class TestBatchedIdentity:
    def test_batch_results_identical_to_unsharded(
        self, service, query_schemas, reference_results
    ):
        results = service.match_many(query_schemas)
        for result, reference in zip(results, reference_results):
            assert result.ranking_key() == reference.ranking_key()

    def test_batch_with_top_k_identical_to_unsharded(
        self, service, reference_service, query_schemas
    ):
        results = service.match_many(query_schemas, top_k=2)
        for schema, result in zip(query_schemas, results):
            assert (
                result.ranking_key()
                == reference_service.match(schema, top_k=2).ranking_key()
            )
