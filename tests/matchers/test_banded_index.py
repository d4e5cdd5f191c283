"""Banded (prefix-filter) candidate generation: lossless vs the linear scan.

The banded path is an access-path switch, not a semantic one: whenever the
band bound is provable it must return exactly the linear prefilter's survivor
set and pruned-pair count, and it must decline (fall back) whenever the bound
would be unsound.  These tests run the two paths side by side over real and
adversarial queries at thresholds below, at, and above the engagement point.
"""

from __future__ import annotations

import pytest

from repro.matchers.index import RepositoryNameIndex
from repro.service import load_snapshot, write_snapshot
from repro.service.service import MatchingService
from repro.storage import FrozenNameIndex
from repro.workload.generator import RepositoryGenerator, RepositoryProfile

#: Low thresholds where the length bound does the pruning, mid thresholds
#: where the band declines, and the ~0.9+ region where it engages (the edit
#: budget must drop to ~1 before ``m = g - 6*limit`` clears 1).
THRESHOLDS = [0.3, 0.45, 0.6, 0.75, 0.85, 0.9, 0.92, 0.95]


@pytest.fixture(scope="module")
def repository():
    profile = RepositoryProfile(
        target_node_count=1500,
        min_tree_size=12,
        max_tree_size=70,
        seed=99,
        name="banded-repo",
    )
    return RepositoryGenerator(profile).generate()


@pytest.fixture(scope="module")
def linear_index(repository):
    return RepositoryNameIndex(repository)


@pytest.fixture(scope="module")
def banded_index(repository):
    return RepositoryNameIndex(repository).enable_banded()


@pytest.fixture(scope="module")
def queries(linear_index):
    """Exact hits, near misses, and strings unlike anything indexed."""
    sampled = [linear_index.keys[i] for i in range(0, len(linear_index.keys), 37)]
    perturbed = [key[:-1] + "x" for key in sampled[:10] if len(key) > 3]
    return sampled + perturbed + [
        "name",
        "adress",
        "emial",
        "customernumber",
        "zzzzzzzz",
        "a",
        "shippingaddressline",
    ]


class TestLosslessness:
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_survivors_and_pruned_counts_match_the_linear_scan(
        self, linear_index, banded_index, queries, threshold
    ):
        for query in queries:
            linear_survivors, linear_pruned = linear_index.fuzzy_candidates(query, threshold)
            banded_survivors, banded_pruned = banded_index.fuzzy_candidates(query, threshold)
            assert sorted(banded_survivors) == sorted(linear_survivors), (query, threshold)
            assert banded_pruned == linear_pruned, (query, threshold)

    def test_the_band_actually_engages_at_high_thresholds(self, banded_index, queries):
        """Guard against a vacuous differential: the banded path must fire."""
        engaged = 0
        for query in queries:
            grams = banded_index.query_grams(query)
            if not grams:
                continue
            if banded_index._banded_candidates(len(query), grams, 0.92) is not None:
                engaged += 1
        assert engaged > 0

    def test_low_thresholds_fall_back_to_the_linear_scan(self, banded_index):
        """``min_required <= 1`` makes the band unprovable — must return None."""
        query = "customernumber"
        grams = banded_index.query_grams(query)
        assert banded_index._banded_candidates(len(query), grams, 0.45) is None
        assert banded_index._banded_candidates(len(query), grams, 0.0) is None

    def test_zero_threshold_prunes_nothing(self, linear_index, banded_index):
        for index in (linear_index, banded_index):
            survivors, pruned = index.fuzzy_candidates("anything", 0.0)
            assert pruned == 0
            assert len(survivors) == len(index.keys)


class TestFrozenIndexParity:
    @pytest.fixture(scope="class")
    def index_pair(self, repository, tmp_path_factory):
        """The index of the service a snapshot was written from, and its frozen mmap."""
        target = tmp_path_factory.mktemp("banded")
        service = MatchingService(repository)
        write_snapshot(service, target / "snap.frozen")
        plain = service.repository.name_index()
        frozen = load_snapshot(target / "snap.frozen").repository.name_index()
        assert type(frozen) is FrozenNameIndex
        return plain, frozen

    @pytest.mark.parametrize("threshold", [0.45, 0.75, 0.92])
    def test_frozen_candidates_match_the_plain_index(self, index_pair, queries, threshold):
        plain, frozen = index_pair
        assert frozen.banded_enabled  # always on for the frozen mmap index
        for query in queries:
            plain_survivors, plain_pruned = plain.fuzzy_candidates(query, threshold)
            frozen_survivors, frozen_pruned = frozen.fuzzy_candidates(query, threshold)
            # Name-id numbering is shared (first-occurrence order), so the
            # survivor sets must agree id-for-id, not just key-for-key.
            assert sorted(frozen_survivors) == sorted(plain_survivors), (query, threshold)
            assert frozen_pruned == plain_pruned, (query, threshold)
            assert [frozen.keys[i] for i in frozen_survivors[:5]] == [
                plain.keys[i] for i in plain_survivors[:5]
            ] or sorted(frozen.keys[i] for i in frozen_survivors) == sorted(
                plain.keys[i] for i in plain_survivors
            )
