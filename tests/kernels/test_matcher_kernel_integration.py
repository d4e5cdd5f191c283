"""The kernel behind ``FuzzyNameMatcher.batch_scores`` must be invisible.

Score tables, counters and memo behaviour with the vectorized kernel engaged
must equal the forced-scalar fallback exactly — the kernel is an execution
detail, not a semantic switch.
"""

from __future__ import annotations

import struct

import pytest

from repro.matchers.name import FuzzyNameMatcher
from repro.matchers.selection import MappingElementSelector
from repro.utils.counters import CounterSet


def force_scalar(monkeypatch):
    import repro.matchers.name as name_module

    monkeypatch.setattr(name_module, "batch_fuzzy_scores", lambda *args: None)


def table_bits(scores):
    return [(name_id, struct.pack("<d", score)) for name_id, score in scores.items()]


@pytest.mark.parametrize("threshold", [0.0, 0.4, 0.6, 1.0])
def test_batch_scores_equal_forced_scalar(small_repository, threshold, monkeypatch):
    kernel_matcher = FuzzyNameMatcher()
    kernel_index = kernel_matcher.name_index(small_repository)
    kernel_counters = CounterSet()
    kernel = kernel_matcher.batch_scores("name", kernel_index, threshold, kernel_counters)

    force_scalar(monkeypatch)
    scalar_matcher = FuzzyNameMatcher()
    scalar_index = scalar_matcher.name_index(small_repository)
    scalar_counters = CounterSet()
    scalar = scalar_matcher.batch_scores("name", scalar_index, threshold, scalar_counters)

    assert table_bits(kernel) == table_bits(scalar)
    assert kernel_counters.as_dict() == scalar_counters.as_dict()


def test_selector_output_identical_with_and_without_kernel(
    paper_schema, small_repository, monkeypatch
):
    def run():
        selector = MappingElementSelector(FuzzyNameMatcher(), threshold=0.4)
        candidates = selector.select(paper_schema, small_repository)
        return [
            (
                node_id,
                [
                    (e.ref.global_id, struct.pack("<d", e.similarity))
                    for e in candidates.elements_for(node_id)
                ],
            )
            for node_id in candidates.personal_node_ids
        ]

    with_kernel = run()
    force_scalar(monkeypatch)
    without_kernel = run()
    assert with_kernel == without_kernel


def test_packed_table_is_cached_and_survives_reuse(small_repository):
    matcher = FuzzyNameMatcher()
    index = matcher.name_index(small_repository)
    first = index.packed_name_table()
    second = index.packed_name_table()
    assert first is not None
    assert first is second  # built once, reused


def test_kernel_skips_tiny_repositories_gracefully(small_repository):
    # The small fixture's unique-name count per query is usually under
    # MIN_BATCH_SIZE, so this mostly exercises the decline -> scalar path;
    # either way the scores must satisfy the threshold contract.
    matcher = FuzzyNameMatcher()
    index = matcher.name_index(small_repository)
    scores = matcher.batch_scores("address", index, 0.5)
    for name_id, score in scores.items():
        assert score >= 0.5
        assert 0.0 < score <= 1.0
