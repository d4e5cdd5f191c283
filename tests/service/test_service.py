"""MatchingService behaviour: result cache, executors, partition clusterer."""

from __future__ import annotations

import pytest

from repro.clustering.baselines import FragmentClusterer
from repro.errors import ConfigurationError
from repro.matchers.selection import MappingElementSelector
from repro.matchers.name import FuzzyNameMatcher
from repro.resilience.deadline import Deadline
from repro.schema.builder import TreeBuilder
from repro.schema.repository import SchemaRepository
from repro.service import (
    MatchingService,
    PartitionClusterer,
    RepositoryPartition,
    schema_fingerprint,
)
from repro.utils.executor import SerialExecutor, ThreadPoolTaskExecutor
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import contact_personal_schema, paper_personal_schema

from _equivalence import counters_key, path_records_key, result_key


@pytest.fixture(scope="module")
def service_repository():
    profile = RepositoryProfile(
        target_node_count=600, min_tree_size=12, max_tree_size=60, seed=17, name="svc"
    )
    return RepositoryGenerator(profile).generate()


def _repository(seed, name):
    profile = RepositoryProfile(
        target_node_count=300, min_tree_size=12, max_tree_size=60, seed=seed, name=name
    )
    return RepositoryGenerator(profile).generate()


class TestQueryCache:
    def test_repeated_query_hits_and_is_bit_identical(self, service_repository):
        service = MatchingService(service_repository, element_threshold=0.5)
        cold = service.match(paper_personal_schema())
        warm = service.match(paper_personal_schema())
        assert service.counters.get("query_cache_misses") == 1
        assert service.counters.get("query_cache_hits") == 1
        assert result_key(cold) == result_key(warm)
        # A hit answers with the stored result object: no stage runs again.
        assert warm is cold

    def test_structurally_identical_schemas_share_an_entry(self, service_repository):
        service = MatchingService(service_repository, element_threshold=0.5)
        service.match(paper_personal_schema())
        service.match(paper_personal_schema())  # a fresh but identical tree
        assert service.counters.get("query_cache_hits") == 1
        assert service.query_cache_len == 1

    def test_different_schemas_get_different_entries(self, service_repository):
        service = MatchingService(service_repository, element_threshold=0.5)
        service.match(paper_personal_schema())
        service.match(contact_personal_schema())
        assert service.counters.get("query_cache_misses") == 2
        assert service.query_cache_len == 2

    def test_cache_capacity_is_bounded(self, service_repository):
        service = MatchingService(service_repository, element_threshold=0.5, query_cache_size=1)
        service.match(paper_personal_schema())
        service.match(contact_personal_schema())
        assert service.query_cache_len == 1

    def test_cache_can_be_disabled(self, service_repository):
        service = MatchingService(service_repository, element_threshold=0.5, query_cache_size=0)
        first = service.match(paper_personal_schema())
        second = service.match(paper_personal_schema())
        assert service.query_cache_len == 0
        # A disabled cache reports no hit/miss statistics at all.
        assert service.counters.get("query_cache_hits") == 0
        assert service.counters.get("query_cache_misses") == 0
        assert service.counters.get("queries") == 2
        assert result_key(first) == result_key(second)

    def test_a_deadline_partial_result_is_not_cached(self, service_repository):
        service = MatchingService(service_repository, element_threshold=0.5)
        schema = paper_personal_schema()
        expired = Deadline(0.0, lambda: 1.0)
        partial = service.match(schema, deadline=expired)
        assert partial.partial
        assert service.query_cache_len == 0  # a truncated answer is not canonical
        assert service.counters.get("partials_returned") == 1
        complete = service.match(schema)
        assert not complete.partial and complete is not partial
        assert service.query_cache_len == 1
        assert service.counters.get("query_cache_misses") == 2
        fresh = MatchingService(service_repository, element_threshold=0.5, query_cache_size=0)
        assert result_key(complete) == result_key(fresh.match(schema))

    def test_a_custom_matcher_tells_schemas_apart_by_what_it_reads(self):
        """Schemas equal in everything the fingerprint hashes still get their own answers."""

        class PropertyMatcher(FuzzyNameMatcher):
            """Matches only nodes whose ``lang`` property agrees."""

            supports_batch = False

            def similarity(self, personal_node, repository_node, context=None):
                if personal_node.properties.get("lang") != repository_node.properties.get("lang"):
                    return 0.0
                return super().similarity(personal_node, repository_node, context)

        def tree(name, lang):
            builder = TreeBuilder(name)
            root = builder.root("book", lang=lang)
            builder.child(root, "title", lang=lang)
            builder.child(root, "author", lang=lang)
            return builder.build()

        repository = SchemaRepository(name="langs")
        repository.add_tree(tree("english", "en"))
        repository.add_tree(tree("german", "de"))
        service = MatchingService(
            repository, matcher=PropertyMatcher(), variant="tree", element_threshold=0.5
        )
        english, german = tree("query-en", "en"), tree("query-de", "de")
        assert schema_fingerprint(english) == schema_fingerprint(german)
        batch = service.match_many([english, german])
        singles = [service.match(english), service.match(german)]
        for results in (batch, singles):
            assert [mapping.tree_id for mapping in results[0].mappings] == [0]
            assert [mapping.tree_id for mapping in results[1].mappings] == [1]
        assert service.query_cache_len == 0
        assert service.counters.get("duplicate_queries") == 0


class TestFingerprint:
    def test_name_of_tree_is_ignored_but_structure_is_not(self):
        builder_a = TreeBuilder("one")
        root = builder_a.root("book")
        builder_a.child(root, "title")
        builder_a.child(root, "author")
        tree_a = builder_a.build()
        builder_b = TreeBuilder("two")
        root = builder_b.root("book")
        builder_b.child(root, "title")
        builder_b.child(root, "author")
        assert schema_fingerprint(tree_a) == schema_fingerprint(builder_b.build())

        builder_c = TreeBuilder("three")
        root = builder_c.root("book")
        title = builder_c.child(root, "title")
        builder_c.child(title, "author")  # same names, different parent structure
        assert schema_fingerprint(tree_a) != schema_fingerprint(builder_c.build())

    def test_names_kinds_and_datatypes_matter(self):
        base = TreeBuilder("base")
        root = base.root("book")
        base.child(root, "title", datatype="string")
        renamed = TreeBuilder("renamed")
        root = renamed.root("book")
        renamed.child(root, "titel", datatype="string")
        retyped = TreeBuilder("retyped")
        root = retyped.root("book")
        retyped.child(root, "title", datatype="integer")
        fingerprints = {
            schema_fingerprint(base.build()),
            schema_fingerprint(renamed.build()),
            schema_fingerprint(retyped.build()),
        }
        assert len(fingerprints) == 3


class TestQueryCacheKeying:
    """Each of fingerprint, effective δ, top_k and repository version keys its own entry."""

    @pytest.mark.parametrize("component", ["fingerprint", "delta", "top_k", "version"])
    def test_each_key_component_keys_its_own_entry(self, component):
        repository = _repository(53, f"svc-key-{component}")
        service = MatchingService(repository, element_threshold=0.5)
        first = service.match(paper_personal_schema())

        def other():
            if component == "fingerprint":
                return service.match(contact_personal_schema())
            if component == "delta":
                return service.match(paper_personal_schema(), delta=0.3)
            if component == "top_k":
                return service.match(paper_personal_schema(), top_k=1)
            return service.match(paper_personal_schema())

        if component == "version":
            # Bypass add_tree, so only the version in the key tells them apart.
            addition = TreeBuilder("extra")
            addition.child(addition.root("person"), "name")
            repository.add_tree(addition.build())
        second = other()
        assert second is not first
        assert service.counters.get("query_cache_misses") == 2
        assert service.counters.get("query_cache_hits") == 0
        assert service.query_cache_len == 2
        assert other() is second
        assert service.counters.get("query_cache_hits") == 1

    def test_delta_override_is_a_distinct_cache_entry(self, service_repository):
        service = MatchingService(service_repository, element_threshold=0.5)
        schema = paper_personal_schema()
        service.match(schema)
        assert service.counters.get("query_cache_misses") == 1
        # Same schema, different effective δ: must not hit the δ-default entry.
        service.match(schema, delta=0.3)
        assert service.counters.get("query_cache_misses") == 2
        assert service.counters.get("query_cache_hits") == 0
        # Repeating the override now hits its own entry.
        service.match(schema, delta=0.3)
        assert service.counters.get("query_cache_hits") == 1

    def test_delta_override_after_cached_query_is_never_stale(self, service_repository):
        cached = MatchingService(service_repository, element_threshold=0.5)
        schema = paper_personal_schema()
        cached.match(schema)  # populate the cache under the default δ
        overridden = cached.match(schema, delta=0.3)
        fresh = MatchingService(service_repository, element_threshold=0.5, query_cache_size=0)
        assert result_key(overridden) == result_key(fresh.match(schema, delta=0.3))

    def test_direct_repository_mutation_invalidates_via_version(self, service_repository):
        """Mutations bypassing add_tree/remove_tree cannot serve stale hits."""
        profile = RepositoryProfile(
            target_node_count=300, min_tree_size=12, max_tree_size=60, seed=91, name="svc-direct"
        )
        repository = RepositoryGenerator(profile).generate()
        service = MatchingService(repository, variant="tree", element_threshold=0.5)

        personal = TreeBuilder("direct-personal")
        root = personal.root("zqxcontainer")
        personal.child(root, "zqxalpha", datatype="string")
        personal.child(root, "zqxbeta", datatype="string")
        schema = personal.build()

        before = service.match(schema)
        assert before.mapping_count == 0  # nothing in the repository matches

        addition = TreeBuilder("zqx-tree")
        root = addition.root("zqxcontainer")
        addition.child(root, "zqxalpha", datatype="string")
        addition.child(root, "zqxbeta", datatype="string")
        # Mutate the repository directly — the service cache is NOT cleared.
        repository.add_tree(addition.build())

        after = service.match(schema)
        assert after.mapping_count >= 1  # a stale cached table would report 0
        assert service.counters.get("query_cache_hits") == 0
        assert service.counters.get("query_cache_misses") == 2

    def test_service_level_mutations_still_hit_after_requery(self, service_repository):
        service = MatchingService(service_repository, element_threshold=0.5)
        schema = paper_personal_schema()
        first = service.match(schema)
        tree = TreeBuilder("cache-key-tree")
        root = tree.root("person")
        tree.child(root, "name", datatype="string")
        service.add_tree(tree.build())
        second = service.match(schema)   # version changed: miss, recompute
        third = service.match(schema)    # same version again: hit
        assert service.counters.get("query_cache_misses") == 2
        assert service.counters.get("query_cache_hits") == 1
        assert result_key(second) == result_key(third)
        assert first.candidates.total() <= second.candidates.total()


class TestTopKQueries:
    def test_top_k_is_prefix_of_complete_ranking(self, service_repository):
        service = MatchingService(service_repository, element_threshold=0.5)
        schema = paper_personal_schema()
        complete = service.match(schema)
        top = service.match(schema, top_k=3)
        assert result_key(top) == result_key(complete)[:3]
        assert len(top.mappings) <= 3

    def test_top_k_answers_are_cached_apart_from_the_complete_ranking(self, service_repository):
        service = MatchingService(service_repository, element_threshold=0.5)
        schema = paper_personal_schema()
        complete = service.match(schema)
        top = service.match(schema, top_k=1)  # a ranking per top_k: a miss
        assert service.counters.get("query_cache_hits") == 0
        assert service.match(schema, top_k=1) is top
        assert service.match(schema) is complete
        assert service.counters.get("query_cache_hits") == 2
        assert result_key(top) == result_key(complete)[:1]


class TestExecutors:
    @pytest.mark.parametrize(
        "executor", [None, SerialExecutor(), ThreadPoolTaskExecutor(4)], ids=["inline", "serial", "threads"]
    )
    def test_all_executors_produce_identical_results(self, service_repository, executor):
        service = MatchingService(service_repository, element_threshold=0.5, executor=executor)
        reference = MatchingService(service_repository, element_threshold=0.5)
        for schema in (paper_personal_schema(), contact_personal_schema()):
            assert result_key(service.match(schema)) == result_key(reference.match(schema))
        if isinstance(executor, ThreadPoolTaskExecutor):
            executor.close()

    def test_threaded_kmeans_variant_matches_serial(self, service_repository):
        with ThreadPoolTaskExecutor(4) as executor:
            threaded = MatchingService(
                service_repository, variant="medium", element_threshold=0.5, executor=executor
            )
            serial = MatchingService(service_repository, variant="medium", element_threshold=0.5)
            assert result_key(threaded.match(paper_personal_schema())) == result_key(
                serial.match(paper_personal_schema())
            )


class TestPartitionClusterer:
    def test_matches_fragment_clusterer_without_reclustering(self, service_repository):
        """The precomputed partition must reproduce the online fragmenter exactly."""
        selector = MappingElementSelector(FuzzyNameMatcher(), threshold=0.5)
        candidates = selector.select(paper_personal_schema(), service_repository)
        online = FragmentClusterer(max_fragment_size=20).cluster(candidates, service_repository)
        partition = RepositoryPartition(max_fragment_size=20)
        precomputed = PartitionClusterer(partition).cluster(candidates, service_repository)
        online_clusters = sorted(
            (cluster.tree_id, tuple(sorted(cluster.member_global_ids())))
            for cluster in online.clusters
        )
        precomputed_clusters = sorted(
            (cluster.tree_id, tuple(sorted(cluster.member_global_ids())))
            for cluster in precomputed.clusters
        )
        assert online_clusters == precomputed_clusters

    def test_partition_builds_lazily_per_queried_tree(self, service_repository):
        service = MatchingService(service_repository, element_threshold=0.5)
        result = service.match(paper_personal_schema())
        trees_with_elements = {
            element.ref.tree_id for element in result.candidates.iter_all_elements()
        }
        # Exactly the trees holding mapping elements were fragmented — no more.
        assert service.partition.built_tree_count == len(trees_with_elements)


class TestConfiguration:
    def test_clusterer_and_variant_are_mutually_exclusive(self, service_repository):
        with pytest.raises(ConfigurationError):
            MatchingService(
                service_repository,
                variant="medium",
                clusterer=PartitionClusterer(RepositoryPartition()),
            )

    def test_variant_name_round_trips_through_constructor(self, service_repository):
        """The name the service reports must be accepted back by the constructor."""
        service = MatchingService(service_repository)
        again = MatchingService(service_repository, variant=service.variant_name)
        assert again.variant_name == "partition"
        assert again.partition is not None

    def test_cannot_remove_last_tree(self):
        builder = TreeBuilder("only")
        root = builder.root("only")
        builder.child(root, "name")
        from repro.schema.repository import SchemaRepository

        repository = SchemaRepository()
        repository.add_tree(builder.build())
        service = MatchingService(repository)
        with pytest.raises(ConfigurationError):
            service.remove_tree(0)

    def test_stats_reports_the_essentials(self, service_repository):
        service = MatchingService(service_repository, element_threshold=0.5)
        service.match(paper_personal_schema())
        stats = service.stats()
        assert stats["variant"] == "partition"
        assert stats["queries"] == 1
        assert stats["trees"] == service_repository.tree_count


class TestResultCacheDifferential:
    """Cached backends answer a mixed stream exactly like cache-free twins."""

    def test_mixed_stream_matches_cache_free_twins(self):
        from repro.shard import ShardedMatchingService

        def matcher():
            # No name-score memo, so a result's counters depend on its query alone.
            return FuzzyNameMatcher(memo_size=0)

        def service(size):
            repository = _repository(67, "svc-diff")
            return MatchingService(
                repository, matcher=matcher(), element_threshold=0.5, query_cache_size=size
            )

        def shard_set(size):
            return ShardedMatchingService.from_repository(
                _repository(67, "svc-diff"),
                2,
                matcher=matcher(),
                element_threshold=0.5,
                query_cache_size=size,
            )

        pairs = [(service(64), service(0)), (shard_set(64), shard_set(0))]
        paper, contact = paper_personal_schema(), contact_personal_schema()
        book = TreeBuilder.from_nested({"book": ["title", "author"]}, name="book")
        stream = [
            ("match", paper, {}),
            ("match", paper, {}),
            ("match", contact, {"top_k": 2}),
            ("match", paper, {"delta": 0.3}),
            ("match", contact, {"top_k": 2}),
            ("add", None, {}),
            ("match", paper, {}),
            ("many", [paper, book, paper, contact], {"top_k": 3}),
            ("remove", 1, {}),
            ("many", [book, book, paper], {"delta": 0.3}),
            ("match", book, {}),
            ("match", paper, {"delta": 0.3}),
        ]

        def step(backend, action, argument, options):
            if action == "add":
                backend.add_tree(TreeBuilder.from_nested({"book": ["title", "isbn"]}, name="new"))
                return []
            if action == "remove":
                backend.remove_tree(argument)
                return []
            if action == "match":
                return [backend.match(argument, **options)]
            return backend.match_many(argument, **options)

        def keys(results, counters=True):
            return [
                (result_key(r), path_records_key(r)) + ((counters_key(r),) if counters else ())
                for r in results
            ]

        for action, argument, options in stream:
            answers = []
            for cached, fresh in pairs:
                got = step(cached, action, argument, options)
                assert keys(got) == keys(step(fresh, action, argument, options))
                answers.append(keys(got, counters=False))
            assert answers[0] == answers[1]  # the set answers like the unsharded service
        for cached, _fresh in pairs:
            assert cached.counters.get("query_cache_hits") > 0

