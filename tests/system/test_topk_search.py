"""Top-k matching through the full pipeline: result semantics, cross-cluster
bound sharing, and determinism across repeated queries."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.system.bellflower import Bellflower
from repro.system.variants import clustering_variant
from repro.workload.personal import contact_personal_schema, paper_personal_schema


@pytest.fixture(scope="module")
def reference_results(synthetic_repository):
    """Complete (top_k=None) serial results per personal schema."""
    system = Bellflower(synthetic_repository, element_threshold=0.5, delta=0.6)
    return {
        "paper": system.match(paper_personal_schema()),
        "contact": system.match(contact_personal_schema()),
    }


class TestTopKSemantics:
    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_top_k_is_prefix_of_complete_ranking(self, synthetic_repository, reference_results, k):
        system = Bellflower(synthetic_repository, element_threshold=0.5, delta=0.6)
        for name, schema in (("paper", paper_personal_schema()), ("contact", contact_personal_schema())):
            top = system.match(schema, top_k=k)
            assert top.ranking_key() == reference_results[name].ranking_key()[:k]
            assert top.top_k == k
            assert len(top.mappings) <= k

    def test_top_k_search_prunes_more(self, synthetic_repository, reference_results):
        system = Bellflower(synthetic_repository, element_threshold=0.5, delta=0.6)
        top = system.match(paper_personal_schema(), top_k=1)
        complete = reference_results["paper"]
        assert top.partial_mappings <= complete.partial_mappings
        # With many clusters and one good mapping, the shared incumbent must
        # actually fire (the workload is sized to guarantee competition).
        assert top.counters["incumbent_pruned_partial_mappings"] > 0

    def test_invalid_top_k_rejected(self, synthetic_repository):
        system = Bellflower(synthetic_repository, element_threshold=0.5, delta=0.6)
        with pytest.raises(ConfigurationError):
            system.match(paper_personal_schema(), top_k=0)

    def test_top_k_with_kmeans_variant(self, synthetic_repository):
        spec = clustering_variant("medium")
        system = Bellflower(
            synthetic_repository,
            clusterer=spec.make_clusterer(),
            element_threshold=0.5,
            delta=0.6,
            variant_name=spec.name,
        )
        complete = system.match(paper_personal_schema())
        top = system.match(paper_personal_schema(), top_k=5)
        assert top.ranking_key() == complete.ranking_key()[:5]


class TestTopKDeterminism:
    @pytest.mark.parametrize("k", [1, 5])
    def test_repeated_queries_keep_the_ranking(self, synthetic_repository, k):
        reference = (
            Bellflower(synthetic_repository, element_threshold=0.5, delta=0.6)
            .match(paper_personal_schema(), top_k=k)
            .ranking_key()
        )
        system = Bellflower(synthetic_repository, element_threshold=0.5, delta=0.6)
        # Repeat: the shared floor carries no state from one query to the
        # next, so the ranking must never move.
        for _ in range(3):
            assert system.match(paper_personal_schema(), top_k=k).ranking_key() == reference
