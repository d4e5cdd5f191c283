"""Guard: serving a shard set never builds the merged candidate table or cluster set.

No response reads a merged result's ``candidates`` or ``clustering``, so the
shard merge leaves both to their first reader
(:class:`repro.shard.service.MergedMatchResult`).  These tests patch the two
deferred builders to raise and answer every kind of served request through
:class:`~repro.api.dispatch.RequestDispatcher` on a JSON and a frozen
two-shard set.  A serving path that builds either table answers with an
error envelope here instead of the answer an unpatched set gives.
"""

from __future__ import annotations

import pytest

from repro.api import BatchRequest, MatchRequest, RequestDispatcher
from repro.resilience import FaultPlan, FaultSpec, ResiliencePolicy, RetryPolicy
from repro.shard import ShardedMatchingService, load_shard_set, write_shard_set
from repro.shard.service import MergedMatchResult
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import (
    book_personal_schema,
    contact_personal_schema,
    paper_personal_schema,
)

THRESHOLD = 0.5


@pytest.fixture(scope="module")
def shard_sets(tmp_path_factory):
    """One two-shard set written both ways: ``json/`` and ``frozen/`` manifests."""
    profile = RepositoryProfile(
        target_node_count=800, min_tree_size=10, max_tree_size=60, seed=11, name="deferred"
    )
    service = ShardedMatchingService.from_repository(
        RepositoryGenerator(profile).generate(), 2, element_threshold=THRESHOLD
    )
    target = tmp_path_factory.mktemp("deferred-sets")
    write_shard_set(service, target / "json")
    write_shard_set(service, target / "frozen", frozen=True)
    return target


def served_requests():
    """One of every served request shape, in serving order; only the last one hits the cache."""
    match = MatchRequest.from_schema(paper_personal_schema()).to_wire()
    contact = MatchRequest.from_schema(contact_personal_schema())
    return [
        match,
        BatchRequest(
            requests=(contact, MatchRequest.from_schema(book_personal_schema()), contact)
        ).to_wire(),
        MatchRequest.from_schema(contact_personal_schema(), delta=0.6, explain=True).to_wire(),
        MatchRequest.from_schema(paper_personal_schema(), top_k=5).to_wire(),
        match,
    ]


def dead_shard_policy():
    return ResiliencePolicy(
        retry=RetryPolicy(max_attempts=2, base_delay_ms=0.1, max_delay_ms=0.5, jitter=0.0),
        fault_plan=FaultPlan(specs=(FaultSpec(key="shard-0", kind="error", message="down"),)),
    )


def without_timings(answer):
    """A response with its wall-clock timings removed (they differ run to run)."""
    if isinstance(answer, dict):
        return {key: without_timings(value) for key, value in answer.items() if key != "timings"}
    if isinstance(answer, list):
        return [without_timings(value) for value in answer]
    return answer


def serve(manifest, requests, **load_options):
    service = load_shard_set(manifest, **load_options)
    try:
        dispatcher = RequestDispatcher(service)
        answers = [without_timings(dispatcher.handle_request(request)) for request in requests]
        stats = service.stats()
    finally:
        service.close()
    return answers, stats


def forbid_merged_tables(monkeypatch):
    def build(self):
        raise AssertionError("serving built a merged table no response reads")

    monkeypatch.setattr(MergedMatchResult, "_merge_candidates", build)
    monkeypatch.setattr(MergedMatchResult, "_merge_clustering", build)


@pytest.mark.parametrize("carrier", ["json", "frozen"])
def test_served_answers_never_build_the_merged_tables(shard_sets, carrier, monkeypatch):
    manifest = shard_sets / carrier / "manifest.json"
    requests = served_requests()
    expected, _ = serve(manifest, requests)
    assert all(answer["kind"] in ("match_response", "batch_response") for answer in expected)
    assert expected[0]["mappings"] and expected[2]["explain"]["clusters"]

    forbid_merged_tables(monkeypatch)
    answers, stats = serve(manifest, requests)
    assert answers == expected
    assert stats["query_cache_hits"] == 1
    assert stats["duplicate_queries"] == 1


@pytest.mark.parametrize("carrier", ["json", "frozen"])
def test_a_degraded_answer_never_builds_the_merged_tables(shard_sets, carrier, monkeypatch):
    manifest = shard_sets / carrier / "manifest.json"
    requests = [MatchRequest.from_schema(paper_personal_schema(), explain=True).to_wire()]
    [expected], _ = serve(manifest, requests, resilience=dead_shard_policy())
    assert expected["degraded"] and expected["skipped_shards"] == [0]

    forbid_merged_tables(monkeypatch)
    answers, stats = serve(manifest, requests, resilience=dead_shard_policy())
    assert answers == [expected]
    assert stats["degraded_queries"] == 1
