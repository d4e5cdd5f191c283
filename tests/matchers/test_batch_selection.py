"""Equivalence and index tests for the batch element-matching engine.

The batch path (name index + lossless prefilter + pruned kernel) must produce
``MappingElementSets`` that are *identical* — same pairs, same similarity
floats, same ordering — to the naive per-pair scan, across thresholds,
``top_k`` values, and repositories with heavily duplicated names.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import MatcherError
from repro.matchers.base import BatchElementMatcher
from repro.matchers.index import LRUMemo, RepositoryNameIndex
from repro.matchers.name import FuzzyNameMatcher, NGramNameMatcher, TokenNameMatcher
from repro.matchers.selection import MappingElementSelector
from repro.matchers.string_metrics import fuzzy_similarity
from repro.matchers.structure import StructuralContextMatcher
from repro.schema.builder import TreeBuilder
from repro.schema.repository import SchemaRepository
from repro.service import MatchingService, load_snapshot, write_snapshot
from repro.storage import FrozenNameIndex
from repro.utils.counters import CounterSet
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import paper_personal_schema, purchase_personal_schema

NAME_POOL = [
    "name", "Name", "fullName", "full_name", "author", "authorName", "autor",
    "address", "shippingAddress", "addr", "email", "eMail", "mail", "title",
    "titel", "price", "prices", "quantity", "qty", "date", "person", "persons",
    "x", "ab", "aVeryLongElementNameIndeed", "contact",
]


def snapshot(sets):
    return {
        node_id: [(e.ref.global_id, e.similarity) for e in sets.elements_for(node_id)]
        for node_id in sets.personal_node_ids
    }


def random_repository(seed: int, trees: int = 8, nodes_per_tree: int = 9) -> SchemaRepository:
    """A small forest whose names repeat heavily across and within trees."""
    rng = random.Random(seed)
    repository = SchemaRepository(name=f"dup-repo-{seed}")
    for tree_index in range(trees):
        builder = TreeBuilder(f"tree-{tree_index}")
        root = builder.root(rng.choice(NAME_POOL) or "root")
        parents = [root]
        for _ in range(nodes_per_tree - 1):
            parent = rng.choice(parents)
            child = builder.child(parent, rng.choice(NAME_POOL))
            parents.append(child)
        repository.add_tree(builder.build())
    return repository


@pytest.fixture(scope="module")
def duplicate_repository() -> SchemaRepository:
    return random_repository(seed=1)


@pytest.fixture(scope="module")
def frozen_duplicate_index(tmp_path_factory) -> FrozenNameIndex:
    """The name index a snapshot of :func:`duplicate_repository`'s forest loads."""
    path = tmp_path_factory.mktemp("frozen-index") / "snap.frozen"
    write_snapshot(MatchingService(random_repository(seed=1)), path)
    index = load_snapshot(path).repository.name_index()
    assert type(index) is FrozenNameIndex
    return index


class TestBatchNaiveEquivalence:
    @pytest.mark.parametrize("matcher_cls", [FuzzyNameMatcher, TokenNameMatcher, NGramNameMatcher])
    @pytest.mark.parametrize("threshold", [0.0, 0.4, 0.6, 0.85, 1.0])
    @pytest.mark.parametrize("top_k", [None, 1, 3])
    def test_batch_select_identical_to_naive(self, duplicate_repository, matcher_cls, threshold, top_k):
        schema = paper_personal_schema()
        naive = MappingElementSelector(matcher_cls(), threshold=threshold, top_k=top_k, use_batch=False)
        batch = MappingElementSelector(matcher_cls(), threshold=threshold, top_k=top_k, use_batch=True)
        naive_counters, batch_counters = CounterSet(), CounterSet()
        naive_sets = naive.select(schema, duplicate_repository, counters=naive_counters)
        batch_sets = batch.select(schema, duplicate_repository, counters=batch_counters)
        assert snapshot(naive_sets) == snapshot(batch_sets)
        # The logical comparison count is path-independent.
        assert naive_counters.get("element_comparisons") == batch_counters.get("element_comparisons")
        assert naive_counters.get("mapping_elements") == batch_counters.get("mapping_elements")

    @pytest.mark.parametrize("seed", range(5))
    def test_randomized_repositories(self, seed):
        repository = random_repository(seed=seed + 100)
        schema = purchase_personal_schema()
        threshold = random.Random(seed).choice([0.3, 0.5, 0.7, 0.9])
        naive = MappingElementSelector(FuzzyNameMatcher(), threshold=threshold, use_batch=False)
        batch = MappingElementSelector(FuzzyNameMatcher(), threshold=threshold, use_batch=True)
        assert snapshot(naive.select(schema, repository)) == snapshot(batch.select(schema, repository))

    def test_generated_repository_repeated_queries(self):
        repository = RepositoryGenerator(
            RepositoryProfile(target_node_count=600, min_tree_size=12, max_tree_size=20, name="gen")
        ).generate()
        schema = paper_personal_schema()
        naive = MappingElementSelector(FuzzyNameMatcher(), threshold=0.6, use_batch=False)
        batch = MappingElementSelector(FuzzyNameMatcher(), threshold=0.6, use_batch=True)
        reference = snapshot(naive.select(schema, repository))
        # Second query round exercises the cross-query memo; results must not drift.
        counters = CounterSet()
        for _ in range(3):
            assert snapshot(batch.select(schema, repository, counters=counters)) == reference
        assert counters.get("index_hits") > 0

    @pytest.mark.parametrize("matcher_cls", [FuzzyNameMatcher, TokenNameMatcher, NGramNameMatcher])
    def test_batch_counters_account_for_every_pair(self, duplicate_repository, matcher_cls):
        """pruned + index_hits + kernel_calls == pairs, for every batch matcher."""
        schema = paper_personal_schema()
        counters = CounterSet()
        selector = MappingElementSelector(matcher_cls(), threshold=0.8, use_batch=True)
        selector.select(schema, duplicate_repository, counters=counters)
        pairs = schema.node_count * duplicate_repository.node_count
        assert counters.get("element_comparisons") == pairs
        accounted = (
            counters.get("comparisons_pruned")
            + counters.get("index_hits")
            + counters.get("similarity_kernel_calls")
        )
        assert accounted == pairs

    def test_use_batch_requires_batch_matcher(self, duplicate_repository):
        selector = MappingElementSelector(StructuralContextMatcher(), use_batch=True)
        with pytest.raises(MatcherError):
            selector.select(paper_personal_schema(), duplicate_repository)

    def test_structural_matcher_uses_naive_path(self, duplicate_repository):
        selector = MappingElementSelector(StructuralContextMatcher(), threshold=0.1)
        assert not selector._batch_capable()
        sets = selector.select(paper_personal_schema(), duplicate_repository)
        assert set(sets.personal_node_ids) == set(paper_personal_schema().node_ids())

    def test_ngram_matcher_with_non_index_size_falls_back(self, duplicate_repository):
        matcher = NGramNameMatcher(size=2)
        assert not matcher.supports_batch
        selector = MappingElementSelector(matcher, threshold=0.5)
        assert not selector._batch_capable()
        # Auto mode silently uses the naive loop.
        sets = selector.select(paper_personal_schema(), duplicate_repository)
        assert sets.total() >= 0


class TestRepositoryNameIndex:
    def test_groups_refs_by_folded_name(self, duplicate_repository):
        index = RepositoryNameIndex.for_repository(duplicate_repository, case_sensitive=False)
        total = sum(index.fanout(name_id) for name_id in range(index.unique_name_count))
        assert total == duplicate_repository.node_count
        for name_id, key in enumerate(index.keys):
            for ref in index.refs_for_id(name_id):
                assert duplicate_repository.node(ref).name.lower() == key

    def test_case_modes_are_cached_separately(self, duplicate_repository):
        folded = RepositoryNameIndex.for_repository(duplicate_repository, case_sensitive=False)
        raw = RepositoryNameIndex.for_repository(duplicate_repository, case_sensitive=True)
        assert folded is RepositoryNameIndex.for_repository(duplicate_repository, case_sensitive=False)
        assert raw is not folded
        assert raw.unique_name_count >= folded.unique_name_count

    def test_cache_invalidated_by_add_tree(self):
        repository = random_repository(seed=7, trees=3)
        before = RepositoryNameIndex.for_repository(repository)
        builder = TreeBuilder("extra")
        root = builder.root("brandNewRootName")
        builder.child(root, "brandNewChildName")
        repository.add_tree(builder.build())
        after = RepositoryNameIndex.for_repository(repository)
        assert after is not before
        assert after.id_for("brandnewrootname") is not None

    def test_find_by_name_matches_linear_scan(self, duplicate_repository):
        for target in ("name", "email", "notInTheRepository"):
            expected = [
                ref
                for ref, node in duplicate_repository.iter_nodes()
                if node.name.lower() == target.lower()
            ]
            assert duplicate_repository.find_by_name(target) == expected

    @pytest.mark.parametrize("threshold", [0.1, 0.5, 0.8, 0.95])
    def test_fuzzy_prefilter_is_lossless(
        self, duplicate_repository, frozen_duplicate_index, threshold
    ):
        """No name scoring >= threshold is ever pruned (the core invariant)."""
        memory_index = RepositoryNameIndex.for_repository(duplicate_repository, case_sensitive=False)
        for index in (memory_index, frozen_duplicate_index):
            for query in ["name", "adress", "e-mail", "titles", "qty", "", "completelyunrelated"]:
                survivors, _ = index.fuzzy_candidates(query, threshold)
                survivor_set = set(survivors)
                for name_id, key in enumerate(index.keys):
                    if fuzzy_similarity(query, key, case_sensitive=True) >= threshold:
                        assert name_id in survivor_set, (type(index), query, key, threshold)


class TestLRUMemo:
    def test_evicts_least_recently_used(self):
        memo = LRUMemo(capacity=2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # refresh "a"
        memo.put("c", 3)
        assert memo.get("b") is None
        assert memo.get("a") == 1
        assert memo.get("c") == 3
        assert len(memo) == 2

    def test_zero_capacity_stores_nothing(self):
        memo = LRUMemo(capacity=0)
        memo.put("a", 1)
        assert memo.get("a") is None


class TestMappingElementSetsFastPaths:
    def test_restrict_to_refs_preserves_order_and_contents(self, duplicate_repository):
        schema = paper_personal_schema()
        sets = MappingElementSelector(FuzzyNameMatcher(), threshold=0.3).select(
            schema, duplicate_repository
        )
        keep = {e.ref.global_id for i, e in enumerate(sets.iter_all_elements()) if i % 2 == 0}
        restricted = sets.restrict_to_refs(keep)
        assert restricted.personal_node_ids == sets.personal_node_ids
        for node_id in sets.personal_node_ids:
            expected = [e for e in sets.elements_for(node_id) if e.ref.global_id in keep]
            assert restricted.elements_for(node_id) == expected

    def test_iter_all_elements_matches_all_elements(self, duplicate_repository):
        sets = MappingElementSelector(FuzzyNameMatcher(), threshold=0.3).select(
            paper_personal_schema(), duplicate_repository
        )
        assert list(sets.iter_all_elements()) == sets.all_elements()

    def test_elements_for_unknown_node_still_raises(self, duplicate_repository):
        sets = MappingElementSelector(FuzzyNameMatcher(), threshold=0.3).select(
            paper_personal_schema(), duplicate_repository
        )
        with pytest.raises(MatcherError):
            sets.elements_for(999)


def test_batch_matcher_interface_is_exported():
    assert issubclass(FuzzyNameMatcher, BatchElementMatcher)
    assert issubclass(TokenNameMatcher, BatchElementMatcher)
    assert issubclass(NGramNameMatcher, BatchElementMatcher)
