"""The Matcher protocol over every backend: bit-identity, validation, batching."""

import pytest

from repro.api import encode
from repro.api.envelope import PROTOCOL_VERSION, MatchOptions, MatchRequest
from repro.api.matcher import Matcher
from repro.errors import InvalidRequestError
from repro.service import MatchingService
from repro.system.bellflower import Bellflower
from repro.workload.personal import (
    book_personal_schema,
    contact_personal_schema,
    paper_personal_schema,
)

from _backends import small_repository_factory

QUERY_SCHEMAS = [paper_personal_schema, contact_personal_schema, book_personal_schema]


class TestProtocol:
    def test_every_backend_is_a_matcher(self, backend):
        assert isinstance(backend, Matcher)

    def test_describe_is_uniform(self, backend):
        card = backend.describe()
        assert card["backend"] == backend.backend_kind
        assert card["protocol_version"] == PROTOCOL_VERSION
        assert card["delta"] == 0.6
        assert card["element_threshold"] == 0.5
        assert "executor" not in card
        assert {"match", "match_many", "top_k", "stats", "describe"} <= set(card["capabilities"])
        assert card["repository"]["trees"] > 0
        assert card["repository"]["nodes"] > 0

    def test_stats_carry_backend_and_protocol_version(self, backend):
        stats = backend.stats()
        assert stats["backend"] == backend.backend_kind
        assert stats["protocol_version"] == PROTOCOL_VERSION
        assert "executor" not in stats
        assert stats["trees"] > 0

    def test_mutation_capability_matches_the_backend(self, backend):
        capabilities = set(backend.describe()["capabilities"])
        assert ("mutations" in capabilities) == hasattr(backend, "add_tree")


class TestBitIdentity:
    """Acceptance criterion: typed-envelope results ≡ legacy kwargs results."""

    @pytest.mark.parametrize("make_schema", QUERY_SCHEMAS, ids=lambda f: f.__name__)
    @pytest.mark.parametrize("top_k", [None, 5])
    def test_new_api_matches_legacy_api(self, backend, make_schema, top_k):
        schema = make_schema()
        legacy = backend.match(schema, delta=0.6, top_k=top_k)
        response = backend.match(MatchRequest.from_schema(schema, delta=0.6, top_k=top_k))
        expected = tuple(
            encode.mapping_record(backend.repository, schema, mapping)
            for mapping in legacy.mappings
        )
        assert response.mappings == expected
        assert response.mapping_count == len(legacy.mappings)
        # Search-stage counters are identical; element-matching counters may
        # legitimately differ on the pipeline backend (the typed run hits the
        # name-score memo the legacy run warmed; the services answer it from
        # their result cache).
        assert response.counters["mapping_elements"] == legacy.counters.get("mapping_elements")

    def test_nested_wire_schema_matches_in_memory_schema(self, backend):
        # The same query expressed as a nested wire spec and as a full tree
        # must produce the same ranking (the serve-protocol path vs the
        # library path).
        nested = MatchRequest(
            schema={"name": ["address", "email"]},
            options=MatchOptions(top_k=3),
        )
        typed = MatchRequest.from_schema(paper_personal_schema(), top_k=3)
        scores = [record.score for record in backend.match(typed).mappings]
        nested_scores = [record.score for record in backend.match(nested).mappings]
        assert nested_scores == scores


class TestTypedOptions:
    def test_pagination_slices_the_ranking(self, backend):
        schema = paper_personal_schema()
        full = backend.match(MatchRequest.from_schema(schema, top_k=5))
        page = backend.match(
            MatchRequest.from_schema(schema, top_k=5, offset=2, limit=2)
        )
        assert page.offset == 2
        assert page.mappings == full.mappings[2:4]
        assert page.mapping_count == full.mapping_count

    def test_explain_reports_cluster_statistics(self, backend):
        schema = paper_personal_schema()
        response = backend.match(MatchRequest.from_schema(schema, top_k=3, explain=True))
        assert response.explain is not None
        assert response.explain.useful_clusters == len(response.explain.clusters)
        assert response.explain.useful_clusters > 0
        assert response.explain.search_space >= response.explain.useful_clusters
        plain = backend.match(MatchRequest.from_schema(schema, top_k=3))
        assert plain.explain is None

    def test_extra_arguments_alongside_an_envelope_are_rejected(self, backend):
        request = MatchRequest.from_schema(paper_personal_schema())
        with pytest.raises(InvalidRequestError, match="extra arguments"):
            backend.match(request, delta=0.5)

    def test_mixed_typed_and_legacy_batches_are_rejected(self, backend):
        with pytest.raises(InvalidRequestError, match="cannot mix"):
            backend.match_many(
                [MatchRequest.from_schema(paper_personal_schema()), paper_personal_schema()]
            )


class TestUnifiedValidation:
    """One InvalidRequestError, raised at the boundary, on all three backends."""

    def test_zero_top_k_is_rejected(self, backend):
        with pytest.raises(InvalidRequestError, match="top_k must be at least 1"):
            backend.match(paper_personal_schema(), top_k=0)

    def test_out_of_range_delta_is_rejected(self, backend):
        with pytest.raises(InvalidRequestError, match="delta must be in"):
            backend.match(paper_personal_schema(), delta=1.5)

    def test_match_many_validates_too(self, backend):
        with pytest.raises(InvalidRequestError, match="top_k"):
            backend.match_many([paper_personal_schema()], top_k=-3)

    def test_typed_requests_validate_directly_constructed_options(self, backend):
        # from_wire validates on parse; direct construction must be caught at
        # execution time.
        request = MatchRequest(
            schema={"a": ["b"]}, options=MatchOptions(top_k=0)
        )
        with pytest.raises(InvalidRequestError, match="top_k"):
            backend.match(request)

    def test_service_rejects_before_touching_cache_or_counters(self):
        # Regression for the pre-unification ordering: MatchingService.match
        # computed its cache key (and only failed deep inside generation), so
        # an invalid request could bump counters.  Validation now precedes
        # every side effect.
        service = MatchingService(small_repository_factory(), element_threshold=0.5, delta=0.6)
        with pytest.raises(InvalidRequestError):
            service.match(paper_personal_schema(), top_k=0)
        assert service.counters.get("queries") == 0
        assert service.query_cache_len == 0


class TestMatchManyPromotion:
    """Fingerprint dedup + batching now works on the *unsharded* service."""

    def test_results_match_the_per_query_loop(self, backend):
        schemas = [paper_personal_schema(), book_personal_schema(), paper_personal_schema()]
        batched = backend.match_many(schemas, delta=0.6, top_k=3)
        singles = [backend.match(schema, delta=0.6, top_k=3) for schema in schemas]
        assert [result.ranking_key() for result in batched] == [
            result.ranking_key() for result in singles
        ]

    def test_duplicates_share_one_result_object(self, backend):
        schemas = [paper_personal_schema(), paper_personal_schema(), paper_personal_schema()]
        results = backend.match_many(schemas, top_k=2)
        assert results[0] is results[1] is results[2]

    def test_unsharded_service_counts_duplicates(self):
        service = MatchingService(small_repository_factory(), element_threshold=0.5, delta=0.6)
        schemas = [paper_personal_schema()] * 4 + [book_personal_schema()]
        service.match_many(schemas, top_k=2)
        assert service.counters.get("queries") == 5
        assert service.counters.get("duplicate_queries") == 3

    def test_empty_batch_returns_empty(self, backend):
        assert backend.match_many([]) == []

    def test_cache_size_zero_keeps_dedup_on_the_service(self):
        # query_cache_size is capacity only: a service without a cache still
        # trusts the fingerprint of a bundled matcher inside one batch.
        service = MatchingService(
            small_repository_factory(), element_threshold=0.5, delta=0.6, query_cache_size=0
        )
        results = service.match_many([paper_personal_schema(), paper_personal_schema()])
        assert results[0] is results[1]
        assert service.counters.get("duplicate_queries") == 1
        assert service.query_cache_len == 0
        assert service.counters.get("query_cache_hits") == 0
        assert service.counters.get("query_cache_misses") == 0

    def test_custom_matcher_disables_dedup_on_the_pipeline(self):
        from repro.matchers.name import FuzzyNameMatcher

        class PropertyReadingMatcher(FuzzyNameMatcher):
            pass

        system = Bellflower(
            small_repository_factory(),
            matcher=PropertyReadingMatcher(),
            element_threshold=0.5,
            delta=0.6,
        )
        results = system.match_many([paper_personal_schema(), paper_personal_schema()])
        assert results[0] is not results[1]
        assert results[0].ranking_key() == results[1].ranking_key()

    def test_typed_batch_deduplicates_equal_requests(self):
        service = MatchingService(small_repository_factory(), element_threshold=0.5, delta=0.6)
        request = MatchRequest.from_schema(paper_personal_schema(), top_k=2)
        responses = service.match_many([request, request, request])
        assert len(responses) == 3
        assert responses[0] == responses[1] == responses[2]
        assert service.counters.get("duplicate_queries") == 2

    def test_typed_batch_with_heterogeneous_options(self, backend):
        schema = paper_personal_schema()
        responses = backend.match_many(
            [
                MatchRequest.from_schema(schema, top_k=1),
                MatchRequest.from_schema(schema, top_k=5),
                MatchRequest.from_schema(schema, top_k=5, limit=1),
            ]
        )
        assert len(responses[0].mappings) <= 1
        assert responses[1].mapping_count >= responses[0].mapping_count
        # The limited response pages the same ranking the unlimited one saw.
        assert responses[2].mappings == responses[1].mappings[:1]
        assert responses[2].mapping_count == responses[1].mapping_count
