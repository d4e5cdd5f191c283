"""Tests for the unified search core: top-k semantics, the shared incumbent
pool, and the equivalence of the engine-based generators with the exhaustive
ground truth (the legacy searchers were themselves pinned against it, so
agreeing with the exhaustive enumeration pins the engine against the legacy
outputs transitively)."""

from __future__ import annotations

import threading

import pytest

from repro.mapping.astar import AStarGenerator
from repro.mapping.beam import BeamSearchGenerator
from repro.mapping.branch_and_bound import BranchAndBoundGenerator
from repro.mapping.engine import TopKPool
from repro.mapping.exhaustive import ExhaustiveGenerator
from repro.mapping.ranking import ranking_sort_key

COMPLETE_GENERATORS = [
    BranchAndBoundGenerator(),
    AStarGenerator(),
    BeamSearchGenerator(beam_width=10_000),
]
GENERATOR_IDS = ["bnb", "astar", "beam-wide"]


def ranked(result):
    return [(mapping.score, mapping.signature()) for mapping in result.mappings]


class TestTopKPool:
    def test_floor_is_minus_infinity_below_k(self):
        pool = TopKPool(3)
        pool.offer(0.9)
        pool.offer(0.8)
        assert pool.floor() == float("-inf")
        pool.offer(0.7)
        assert pool.floor() == 0.7

    def test_floor_is_kth_best_and_monotonic(self):
        pool = TopKPool(2)
        for score, expected in [(0.5, float("-inf")), (0.4, 0.4), (0.9, 0.5), (0.95, 0.9), (0.1, 0.9)]:
            pool.offer(score)
            assert pool.floor() == expected

    def test_k_must_be_positive(self):
        with pytest.raises(Exception):
            TopKPool(0)

    def test_concurrent_offers_keep_the_true_kth_best(self):
        pool = TopKPool(5)
        scores = [i / 1000.0 for i in range(1000)]

        def offer_slice(start):
            for score in scores[start::4]:
                pool.offer(score)

        threads = [threading.Thread(target=offer_slice, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert pool.floor() == scores[-5]

    def test_duplicate_signatures_count_once(self):
        """The same mapping found in overlapping clusters must not inflate the floor."""
        pool = TopKPool(2)
        pool.offer(0.9, signature=(1, 2))
        pool.offer(0.9, signature=(1, 2))  # duplicate discovery in another cluster
        assert pool.floor() == float("-inf")  # still only ONE distinct mapping
        pool.offer(0.85, signature=(3, 4))
        assert pool.floor() == 0.85  # rank 2 is the distinct 0.85, not the 0.9 copy

    def test_evicted_signature_cannot_reenter(self):
        pool = TopKPool(1)
        pool.offer(0.5, signature=(1,))
        pool.offer(0.9, signature=(2,))  # evicts (1,)
        pool.offer(0.5, signature=(1,))  # re-offer of the evicted entry
        assert pool.floor() == 0.9


class TestTopKSearch:
    @pytest.mark.parametrize("generator", COMPLETE_GENERATORS, ids=GENERATOR_IDS)
    def test_top_1_is_bit_identical_to_complete_search(self, small_problem, generator):
        complete = generator.generate(small_problem)
        small_problem.top_k = 1
        top1 = generator.generate(small_problem)
        small_problem.top_k = None
        assert len(top1.mappings) == 1
        assert ranked(top1) == ranked(complete)[:1]

    @pytest.mark.parametrize("generator", COMPLETE_GENERATORS, ids=GENERATOR_IDS)
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 100])
    def test_top_k_is_prefix_of_complete_ranking(self, small_problem, generator, k):
        complete = generator.generate(small_problem)
        small_problem.top_k = k
        top = generator.generate(small_problem)
        small_problem.top_k = None
        assert ranked(top) == ranked(complete)[:k]

    def test_top_k_prunes_partial_mappings(self, small_problem):
        generator = BranchAndBoundGenerator()
        complete = generator.generate(small_problem)
        small_problem.top_k = 1
        top1 = generator.generate(small_problem)
        small_problem.top_k = None
        assert top1.partial_mappings <= complete.partial_mappings

    def test_exhaustive_honours_top_k_result_semantics(self, small_problem):
        complete = ExhaustiveGenerator().generate(small_problem)
        small_problem.top_k = 2
        top = ExhaustiveGenerator().generate(small_problem)
        small_problem.top_k = None
        assert ranked(top) == ranked(complete)[:2]
        # ... but, as ground truth, it never prunes.
        assert top.partial_mappings == complete.partial_mappings

    @pytest.mark.parametrize("generator", COMPLETE_GENERATORS, ids=GENERATOR_IDS)
    def test_shared_pool_raises_the_floor_without_losing_the_top(self, small_problem, generator):
        complete = generator.generate(small_problem)
        best_score = complete.mappings[0].score

        pool = TopKPool(1)
        pool.offer(best_score)  # an incumbent from "another cluster", tied with the best
        small_problem.top_k = 1
        small_problem.shared_pool = pool
        shared = generator.generate(small_problem)
        small_problem.top_k = None
        small_problem.shared_pool = None

        # Ties with the incumbent floor are never pruned: the best mapping
        # must still be found, bit-identically.
        assert ranked(shared) == ranked(complete)[:1]
        # The pre-seeded floor prunes at least as hard as a cold search.
        cold_counters = _cold_top1_counters(small_problem, generator)
        assert shared.partial_mappings <= cold_counters["partial_mappings"]

    def test_preseeded_floor_triggers_incumbent_pruning(self, small_problem):
        generator = BranchAndBoundGenerator()
        complete = generator.generate(small_problem)
        pool = TopKPool(1)
        pool.offer(complete.mappings[0].score)
        small_problem.top_k = 1
        small_problem.shared_pool = pool
        shared = generator.generate(small_problem)
        small_problem.top_k = None
        small_problem.shared_pool = None
        assert shared.counters["incumbent_pruned_partial_mappings"] > 0

    def test_incomplete_policies_opt_out_of_incumbent_pruning(self, small_problem):
        """Beam and budget-limited A* results must not depend on floor timing."""
        complete = BranchAndBoundGenerator().generate(small_problem)
        pool = TopKPool(1)
        pool.offer(complete.mappings[0].score, signature=("other-cluster",))
        for generator in (BeamSearchGenerator(beam_width=3), AStarGenerator(max_expansions=1000)):
            small_problem.top_k = 1
            small_problem.shared_pool = pool
            with_pool = generator.generate(small_problem)
            small_problem.shared_pool = None
            without_pool = generator.generate(small_problem)
            small_problem.top_k = None
            # The shared pool is ignored entirely: identical results and
            # counters, no incumbent pruning.
            assert ranked(with_pool) == ranked(without_pool)
            assert with_pool.counters.as_dict() == without_pool.counters.as_dict()
            assert with_pool.counters["incumbent_pruned_partial_mappings"] == 0

    def test_invalid_top_k_rejected(self, small_problem):
        from repro.errors import MappingError
        from repro.mapping.model import MappingProblem

        with pytest.raises(MappingError):
            MappingProblem(
                personal_schema=small_problem.personal_schema,
                candidates=small_problem.candidates,
                oracle=small_problem.oracle,
                objective=small_problem.objective,
                delta=small_problem.delta,
                top_k=0,
            )


def _cold_top1_counters(problem, generator):
    problem.top_k = 1
    result = generator.generate(problem)
    problem.top_k = None
    return result.counters.as_dict()


class TestCanonicalRankingKey:
    def test_generated_rankings_are_sorted_by_the_canonical_key(self, small_problem):
        result = ExhaustiveGenerator().generate(small_problem)
        keys = [ranking_sort_key(mapping) for mapping in result.mappings]
        assert keys == sorted(keys)
