"""The vectorized kernel on a frozen name index.

A frozen index packs its mapped keys for the kernel on the first kernel call,
through the inherited
:meth:`~repro.matchers.index.RepositoryNameIndex.packed_name_table`.  These
tests pin that the packed table equals the one built over the in-memory
twin's keys, that kernel scores over it equal the scalar loop on the golden
vectors and on hypothesis draws, and that loading a snapshot decodes no key
before that first call, so opening stays O(header).
"""

from __future__ import annotations

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.matchers.name as name_module
from repro.kernels.strings import (
    MIN_BATCH_SIZE,
    PackedNameTable,
    batch_fuzzy_scores,
    scalar_fuzzy_scores,
)
from repro.matchers.name import FuzzyNameMatcher
from repro.schema.builder import TreeBuilder
from repro.schema.repository import SchemaRepository
from repro.service import MatchingService, load_snapshot, write_snapshot
from repro.storage import FrozenNameIndex
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import paper_personal_schema

#: The keys of ``test_string_kernels.test_batch_distance_golden_vectors``,
#: scored against each of its queries.
GOLDEN_KEYS = [
    "sitting", "saturday", "lawn", "gambol", "abc", "an act",
    "abcdef", "fedcba", "aaaa", "ba", "baba",
]
GOLDEN_QUERIES = ["kitten", "sunday", "flaw", "gumbo", "ca", "a cat", "abcdef", "aaa", "ab", "abab"]
THRESHOLDS = [0.0, 0.2, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0]

words = st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), min_size=1, max_size=12)


def assert_bit_identical(batch, scalar):
    """Same keys, same order, same float bits."""
    assert list(batch.keys()) == list(scalar.keys())
    for key in scalar:
        assert struct.pack("<d", batch[key]) == struct.pack("<d", scalar[key]), key


def one_tree_service(names, case_sensitive=False) -> MatchingService:
    repository = SchemaRepository(name="kernel")
    repository.add_tree(TreeBuilder.from_nested({"root": list(names)}, name="names"))
    return MatchingService(
        repository, matcher=FuzzyNameMatcher(case_sensitive=case_sensitive), query_cache_size=0
    )


def frozen_index(service, directory) -> FrozenNameIndex:
    """Write ``service`` to ``directory`` and return the loaded service's index."""
    write_snapshot(service, directory / "snap.frozen")
    (index,) = load_snapshot(directory / "snap.frozen").repository.cached_name_indexes().values()
    assert type(index) is FrozenNameIndex
    return index


@pytest.fixture
def generated_repository():
    profile = RepositoryProfile(
        target_node_count=1200, min_tree_size=10, max_tree_size=60, seed=13, name="kernel"
    )
    return RepositoryGenerator(profile).generate()


@pytest.mark.parametrize("case_sensitive", [False, True], ids=["folded", "case-sensitive"])
def test_the_packed_table_equals_the_in_memory_build(generated_repository, tmp_path, case_sensitive):
    written = MatchingService(
        generated_repository, matcher=FuzzyNameMatcher(case_sensitive=case_sensitive)
    )
    index = frozen_index(written, tmp_path)
    (plain,) = written.repository.cached_name_indexes().values()
    expected = PackedNameTable.build(plain.keys)
    table = index.packed_name_table()
    assert table is not None and expected is not None
    assert table.width == expected.width
    assert table.codes.dtype == expected.codes.dtype
    assert np.array_equal(table.codes, expected.codes)
    assert np.array_equal(table.lengths, expected.lengths)
    assert index.packed_name_table() is table  # packed once, then reused


def test_kernel_scores_over_a_frozen_table_equal_the_scalar_loop_on_the_golden_vectors(tmp_path):
    index = frozen_index(one_tree_service(GOLDEN_KEYS), tmp_path)
    table = index.packed_name_table()
    ids = list(range(len(index.keys)))
    assert len(ids) >= MIN_BATCH_SIZE
    for query in GOLDEN_QUERIES:
        for threshold in THRESHOLDS:
            batch = batch_fuzzy_scores(query, table, ids, threshold)
            assert batch is not None
            assert_bit_identical(batch, scalar_fuzzy_scores(query, index.keys, ids, threshold))


@given(
    st.text(alphabet=st.sampled_from("abcde"), min_size=1, max_size=8),
    st.lists(words, min_size=MIN_BATCH_SIZE, max_size=20, unique=True),
    st.sampled_from(THRESHOLDS),
)
@settings(max_examples=40, deadline=None)
def test_kernel_scores_over_a_frozen_table_equal_the_scalar_loop(query, keys, threshold):
    with tempfile.TemporaryDirectory() as scratch:
        index = frozen_index(one_tree_service(keys, case_sensitive=True), Path(scratch))
        table = index.packed_name_table()
        ids = list(range(len(index.keys)))
        batch = batch_fuzzy_scores(query, table, ids, threshold)
        assert batch is not None
        assert_bit_identical(batch, scalar_fuzzy_scores(query, index.keys, ids, threshold))


def test_loading_decodes_no_key_before_the_first_kernel_call(generated_repository, tmp_path):
    write_snapshot(MatchingService(generated_repository), tmp_path / "snap.frozen")
    service = load_snapshot(tmp_path / "snap.frozen")
    service.stats()
    (index,) = service.repository.cached_name_indexes().values()
    assert not index.keys._cache
    assert "_packed_names" not in vars(index)
    table = index.packed_name_table()
    assert table is not None
    assert len(index.keys._cache) == len(index.keys)


def test_a_loaded_service_scores_names_with_the_kernel(generated_repository, tmp_path, monkeypatch):
    written = MatchingService(generated_repository, query_cache_size=0)
    write_snapshot(written, tmp_path / "snap.frozen")
    expected = written.match(paper_personal_schema())
    outcomes = []

    def recording(*args):
        scores = batch_fuzzy_scores(*args)
        outcomes.append(scores is not None)
        return scores

    monkeypatch.setattr(name_module, "batch_fuzzy_scores", recording)
    answer = load_snapshot(tmp_path / "snap.frozen").match(paper_personal_schema())
    assert any(outcomes)  # at least one batch was large enough to vectorize
    assert answer.ranking_key() == expected.ranking_key()
