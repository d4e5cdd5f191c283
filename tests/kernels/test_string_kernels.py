"""Differential tests: the batched string kernel vs the scalar reference.

The vectorized kernel's contract is *bit-identity*: for every input it
accepts, :func:`batch_fuzzy_scores` must return exactly the dict the scalar
``fuzzy_similarity`` loop builds — same keys, same float bits, same insertion
order — and the underlying batched DP must produce the exact unrestricted
Damerau–Levenshtein distances.  Anything the kernel cannot reproduce exactly
it must decline (return ``None``), never approximate.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.kernels.strings import (
    MAX_PACKED_LEN,
    MIN_BATCH_SIZE,
    PackedNameTable,
    _batch_damerau,
    batch_fuzzy_scores,
    scalar_fuzzy_scores,
)
from repro.matchers.string_metrics import (
    bounded_damerau_levenshtein,
    damerau_levenshtein_distance,
    edit_budget,
    fuzzy_similarity,
)

words = st.text(alphabet=st.characters(min_codepoint=97, max_codepoint=122), max_size=12)
# A tiny alphabet maximizes transpositions and look-back hits — the cases
# where the unrestricted recurrence differs from the simpler OSA variant and
# where the vectorized last_row/last_match_column state is most stressed.
dense_words = st.text(alphabet=st.sampled_from("abc"), max_size=10)
unicode_words = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",)), max_size=8
)
thresholds = st.sampled_from([0.0, 0.2, 0.4, 0.5, 0.6, 0.75, 0.9, 1.0])


def batch_distances(query: str, keys):
    """Distances of ``query`` against every key via the vectorized DP.

    Replicates the alphabet mapping of ``batch_fuzzy_scores`` so the DP can
    be probed directly, without threshold filtering.
    """
    table = PackedNameTable.build(keys)
    assert table is not None
    qcodes = np.frombuffer(query.encode("utf-32-le"), dtype="<i4").astype(np.int32)
    alphabet = np.unique(qcodes)
    qidx = np.searchsorted(alphabet, qcodes)
    sentinel = len(alphabet)
    position = np.minimum(np.searchsorted(alphabet, table.codes), sentinel - 1)
    mapped = np.where(alphabet[position] == table.codes, position, sentinel)
    return list(_batch_damerau(qidx, sentinel, mapped, table.lengths))


def assert_bit_identical(batch, scalar):
    """Same keys, same order, same float bits."""
    assert list(batch.keys()) == list(scalar.keys())
    for key in scalar:
        assert struct.pack("<d", batch[key]) == struct.pack("<d", scalar[key]), (
            key,
            batch[key],
            scalar[key],
        )


# -- batched Damerau-Levenshtein vs the scalar DP ---------------------------------


@given(st.text(alphabet=st.sampled_from("abcde"), min_size=1, max_size=8), st.lists(words, min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_batch_distance_matches_scalar(query, keys):
    expected = [damerau_levenshtein_distance(query, key) for key in keys]
    assert batch_distances(query, keys) == expected


@given(
    st.text(alphabet=st.sampled_from("abc"), min_size=1, max_size=8),
    st.lists(dense_words, min_size=1, max_size=16),
)
@settings(max_examples=300, deadline=None)
def test_batch_distance_dense_alphabet_transpositions(query, keys):
    """Dense alphabets exercise the vectorized transposition look-back hard."""
    expected = [damerau_levenshtein_distance(query, key) for key in keys]
    assert batch_distances(query, keys) == expected


def test_batch_distance_known_unrestricted_case():
    # d('ca', 'abc') separates unrestricted Damerau-Levenshtein (2) from the
    # restricted/OSA variant (3); the kernel must implement the former.
    assert batch_distances("ca", ["abc"]) == [2]
    assert batch_distances("abc", ["ca"]) == [2]


def test_batch_distance_empty_candidates():
    assert batch_distances("abc", ["", "", "c"]) == [3, 3, 2]


def test_batch_distance_identical_strings():
    keys = ["contact", "title", "a"]
    assert batch_distances("contact", keys) == [0, 6, 6]


def test_batch_distance_prefixes_and_suffixes():
    keys = ["a", "ab", "abc", "abcd", "abcde", "bcde"]
    expected = [damerau_levenshtein_distance("abc", key) for key in keys]
    assert batch_distances("abc", keys) == expected


def test_batch_distance_mixed_length_padding_never_matches():
    # Candidates of wildly different lengths share one padded matrix; the
    # -1 padding must never register as a match against any query character.
    keys = ["x", "xxxxxxxxxx", "", "xx"]
    expected = [damerau_levenshtein_distance("xxx", key) for key in keys]
    assert batch_distances("xxx", keys) == expected


@given(st.lists(unicode_words, min_size=1, max_size=10))
@settings(max_examples=150, deadline=None)
def test_batch_distance_full_unicode(keys):
    query = "αβ名前"
    expected = [damerau_levenshtein_distance(query, key) for key in keys]
    assert batch_distances(query, keys) == expected


def test_batch_distance_golden_vectors():
    # Fixed regression vectors, including the classic textbook pairs.
    cases = [
        ("kitten", "sitting", 3),
        ("sunday", "saturday", 3),
        ("flaw", "lawn", 2),
        ("gumbo", "gambol", 2),
        ("ca", "abc", 2),
        ("a cat", "an act", 2),
        ("abcdef", "abcdef", 0),
        ("abcdef", "fedcba", 5),
        ("aaa", "aaaa", 1),
        ("ab", "ba", 1),
        ("abab", "baba", 2),
    ]
    for query, key, expected in cases:
        assert damerau_levenshtein_distance(query, key) == expected  # pin the reference
        assert batch_distances(query, [key]) == [expected]


@given(st.text(alphabet=st.sampled_from("ab"), min_size=1, max_size=6), dense_words)
@settings(max_examples=200, deadline=None)
def test_batch_distance_agrees_with_bounded_kernel_contract(query, key):
    """min(d, limit + 1) of the batch distance reproduces the early-abandon kernel."""
    (distance,) = batch_distances(query, [key])
    for limit in range(0, max(len(query), len(key)) + 2):
        assert min(distance, limit + 1) == bounded_damerau_levenshtein(query, key, limit)


# -- batch_fuzzy_scores vs the scalar loop ----------------------------------------


@given(
    st.text(alphabet=st.sampled_from("abcde"), min_size=1, max_size=8),
    st.lists(words, min_size=MIN_BATCH_SIZE, max_size=24),
    thresholds,
)
@settings(max_examples=250, deadline=None)
def test_batch_scores_bit_identical_to_scalar(query, keys, threshold):
    table = PackedNameTable.build(keys)
    ids = list(range(len(keys)))
    batch = batch_fuzzy_scores(query, table, ids, threshold)
    assert batch is not None
    assert_bit_identical(batch, scalar_fuzzy_scores(query, keys, ids, threshold))


@given(
    st.text(alphabet=st.sampled_from("abc"), min_size=1, max_size=6),
    st.lists(dense_words, min_size=MIN_BATCH_SIZE, max_size=20),
    thresholds,
)
@settings(max_examples=250, deadline=None)
def test_batch_scores_dense_alphabet_bit_identical(query, keys, threshold):
    table = PackedNameTable.build(keys)
    ids = list(range(len(keys)))
    batch = batch_fuzzy_scores(query, table, ids, threshold)
    assert batch is not None
    assert_bit_identical(batch, scalar_fuzzy_scores(query, keys, ids, threshold))


@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=MIN_BATCH_SIZE, max_size=30),
    thresholds,
)
@settings(max_examples=150, deadline=None)
def test_batch_scores_candidate_subsets_and_repeats(id_list, threshold):
    """Candidate ids may repeat and arrive in any order; dict semantics must match."""
    keys = ["contact", "content", "name", "nam", "", "x", "contac", "tcatnoc", "kontakt", "cntct"]
    table = PackedNameTable.build(keys)
    batch = batch_fuzzy_scores("contact", table, id_list, threshold)
    assert batch is not None
    assert_bit_identical(batch, scalar_fuzzy_scores("contact", keys, id_list, threshold))


def test_batch_scores_insertion_order_is_candidate_order():
    keys = ["zeta", "beta", "betb", "alpha", "bet", "eta", "zet", "abet"]
    table = PackedNameTable.build(keys)
    ids = [5, 1, 0, 3, 4, 2, 7, 6]
    batch = batch_fuzzy_scores("beta", table, ids, 0.0)
    scalar = scalar_fuzzy_scores("beta", keys, ids, 0.0)
    assert list(batch.keys()) == list(scalar.keys())


def test_batch_scores_length_precheck_is_replicated():
    """A candidate with d == gap == budget must be excluded by the precheck.

    For query 'ab' vs key 'abcd' at threshold 0.6: the length gap alone makes
    the best possible score 0.5 < 0.6, so the scalar path returns 0.0 without
    running the DP — even though the true distance (2) fits the edit budget
    (2) and would yield a positive score.  A kernel without the precheck
    would include it.
    """
    assert fuzzy_similarity("ab", "abcd", case_sensitive=True, min_similarity=0.6) == 0.0
    assert damerau_levenshtein_distance("ab", "abcd") == 2
    assert edit_budget(0.6, 4) == 2  # distance fits the budget...
    keys = ["abcd"] + ["qq"] * (MIN_BATCH_SIZE - 1)
    table = PackedNameTable.build(keys)
    ids = list(range(len(keys)))
    batch = batch_fuzzy_scores("ab", table, ids, 0.6)
    assert batch is not None
    assert 0 not in batch  # ...but the precheck must still exclude it
    assert_bit_identical(batch, scalar_fuzzy_scores("ab", keys, ids, 0.6))


def test_batch_scores_edit_budget_boundary():
    """Distances at exactly limit are kept, limit + 1 dropped (given precheck passes)."""
    # threshold 0.5 over 6-char strings: budget = int(0.5 * 6) + 1 = 4.
    query = "aaaaaa"
    keys = [
        "aaaaaa",  # d=0
        "aaaaab",  # d=1
        "aaabbb",  # d=3
        "aabbbb",  # d=4 == limit, score 1 - 4/6 > 0 -> kept
        "abbbbb",  # d=5 == limit + 1 -> dropped
        "bbbbbb",  # d=6 -> dropped
        "aaaaa",   # d=1
        "baaaaa",  # d=1
    ]
    table = PackedNameTable.build(keys)
    ids = list(range(len(keys)))
    batch = batch_fuzzy_scores(query, table, ids, 0.5)
    scalar = scalar_fuzzy_scores(query, keys, ids, 0.5)
    assert batch is not None
    assert 3 in batch and 4 not in batch and 5 not in batch
    assert_bit_identical(batch, scalar)


def test_batch_scores_threshold_zero_keeps_every_positive_score():
    keys = ["name", "mane", "eman", "x", "", "nam", "names", "enam"]
    table = PackedNameTable.build(keys)
    ids = list(range(len(keys)))
    batch = batch_fuzzy_scores("name", table, ids, 0.0)
    scalar = scalar_fuzzy_scores("name", keys, ids, 0.0)
    assert batch is not None
    assert_bit_identical(batch, scalar)
    # the all-different key scores exactly 0 and is excluded by both paths
    assert 3 not in batch


def test_batch_scores_threshold_one_keeps_exact_matches_only():
    keys = ["name", "names", "nam", "name", "eman", "mane", "nameb", "bname"]
    table = PackedNameTable.build(keys)
    ids = list(range(len(keys)))
    batch = batch_fuzzy_scores("name", table, ids, 1.0)
    assert batch is not None
    assert_bit_identical(batch, scalar_fuzzy_scores("name", keys, ids, 1.0))
    assert set(batch) == {0, 3}
    assert batch[0] == 1.0


def test_batch_scores_multi_slab_equals_single_slab(monkeypatch):
    """Forcing one-candidate slabs must not change a single output bit."""
    import repro.kernels.strings as strings_module

    keys = [f"name{i}" for i in range(40)] + ["name", "nam", "x" * 30, ""]
    table = PackedNameTable.build(keys)
    ids = list(range(len(keys)))
    whole = batch_fuzzy_scores("name7", table, ids, 0.3)
    monkeypatch.setattr(strings_module, "_SLAB_BUDGET_BYTES", 1)
    sliced = batch_fuzzy_scores("name7", table, ids, 0.3)
    assert whole is not None and sliced is not None
    assert_bit_identical(sliced, whole)
    assert_bit_identical(whole, scalar_fuzzy_scores("name7", keys, ids, 0.3))


def test_batch_scores_case_sensitivity_matches_scalar():
    # The kernel always runs case-sensitively (the matcher lowercases
    # beforehand when configured case-insensitive).
    keys = ["Name", "name", "NAME", "naMe", "nbme", "nime", "namex", "xname"]
    table = PackedNameTable.build(keys)
    ids = list(range(len(keys)))
    batch = batch_fuzzy_scores("name", table, ids, 0.0)
    assert batch is not None
    assert_bit_identical(batch, scalar_fuzzy_scores("name", keys, ids, 0.0))
    assert batch[1] == 1.0 and batch[0] < 1.0


# -- decline paths ----------------------------------------------------------------


def test_kernel_declines_below_min_batch_size():
    keys = ["a"] * MIN_BATCH_SIZE
    table = PackedNameTable.build(keys)
    assert batch_fuzzy_scores("a", table, list(range(MIN_BATCH_SIZE - 1)), 0.5) is None
    assert batch_fuzzy_scores("a", table, list(range(MIN_BATCH_SIZE)), 0.5) is not None


def test_kernel_declines_empty_candidate_list():
    table = PackedNameTable.build(["a", "b"])
    assert batch_fuzzy_scores("a", table, [], 0.5) is None


def test_kernel_declines_without_table():
    assert batch_fuzzy_scores("a", None, list(range(20)), 0.5) is None


def test_kernel_declines_empty_query():
    keys = ["a"] * 12
    table = PackedNameTable.build(keys)
    assert batch_fuzzy_scores("", table, list(range(12)), 0.5) is None


def test_kernel_declines_overlong_query():
    keys = ["a"] * 12
    table = PackedNameTable.build(keys)
    assert batch_fuzzy_scores("q" * (MAX_PACKED_LEN + 1), table, list(range(12)), 0.5) is None


def test_kernel_declines_out_of_range_threshold():
    keys = ["a"] * 12
    table = PackedNameTable.build(keys)
    ids = list(range(12))
    assert batch_fuzzy_scores("a", table, ids, -0.1) is None
    assert batch_fuzzy_scores("a", table, ids, 1.5) is None


def test_kernel_declines_lone_surrogate_query():
    keys = ["a"] * 12
    table = PackedNameTable.build(keys)
    assert batch_fuzzy_scores("\ud800", table, list(range(12)), 0.5) is None


def test_table_build_declines_overlong_key():
    assert PackedNameTable.build(["ok", "x" * (MAX_PACKED_LEN + 1)]) is None


def test_table_build_declines_lone_surrogate_key():
    assert PackedNameTable.build(["ok", "\ud800"]) is None


def test_table_build_accepts_boundary_length_key():
    table = PackedNameTable.build(["x" * MAX_PACKED_LEN, ""])
    assert table is not None
    assert table.width == MAX_PACKED_LEN
    assert list(table.lengths) == [MAX_PACKED_LEN, 0]


def test_table_build_all_empty_keys():
    table = PackedNameTable.build(["", "", ""])
    assert table is not None
    ids = [0, 1, 2] * 3
    batch = batch_fuzzy_scores("ab", table, ids, 0.0)
    assert batch is not None
    assert_bit_identical(batch, scalar_fuzzy_scores("ab", ["", "", ""], ids, 0.0))
