"""Shared equivalence keys for the service test modules.

"Bit-identical" claims are asserted through these canonical projections; keep
them in one place so every service test checks the same identity.  (The
benchmark and example scripts carry their own minimal copies — they must stay
runnable standalone.)
"""

from __future__ import annotations

from repro.api.encode import match_response
from repro.api.envelope import MatchOptions


def result_key(result):
    """Ranked mappings as (score, signature) pairs — the mapping identity."""
    return result.ranking_key()


def candidates_key(sets):
    """MappingElementSets as per-node (global id, similarity) lists."""
    return {
        node_id: [(e.ref.global_id, e.similarity) for e in sets.elements_for(node_id)]
        for node_id in sets.personal_node_ids
    }


def cluster_key(result):
    """Cluster reports as comparable tuples."""
    return [
        (report.cluster_id, report.tree_id, report.member_count, report.search_space)
        for report in result.cluster_reports
    ]


def path_records_key(result):
    """Per-mapping path evidence: subtree edge counts and score components.

    ``target_edge_count`` is the ``|Et|`` the objective's path hint was
    evaluated at; the components carry the exact ``sim``/``path`` breakdown.
    Two results equal under this key computed identical mapping subtrees, not
    just identical final scores.
    """
    return [
        (
            mapping.tree_id,
            mapping.target_edge_count,
            tuple(sorted(mapping.components.items())),
            mapping.element_pairs(),
        )
        for mapping in result.mappings
    ]


def counters_key(result):
    """The result's counter set as a sorted, comparable tuple."""
    return tuple(sorted(result.counters.as_dict().items()))


def response_key(repository, personal, result):
    """The wire form a result encodes to, explain report and timings included."""
    return match_response(repository, personal, result, MatchOptions(explain=True)).to_wire()


def assert_hit_answers_as_cold(warm, cold, repository, personal):
    """A hit's stored compact copy ranks, scores and encodes as the cold answer.

    The copy holds neither the candidate table nor the clusters, and is not
    the object the cold query returned.
    """
    assert warm is not cold
    assert warm.candidates is None and warm.clustering is None
    assert result_key(warm) == result_key(cold)
    assert path_records_key(warm) == path_records_key(cold)
    assert response_key(repository, personal, warm) == response_key(repository, personal, cold)
