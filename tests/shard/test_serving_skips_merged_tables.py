"""Guard: serving a shard set never builds the merged candidate table or cluster set.

No response reads a merged result's ``candidates`` or ``clustering``, so the
shard merge leaves both to their first reader
(:class:`repro.shard.service.MergedMatchResult`).  These tests patch the two
deferred builders to raise and answer every kind of served request through
:class:`~repro.api.dispatch.RequestDispatcher` on an in-memory and a
frozen two-shard set.  A serving path that builds either table answers with an
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
    """One repository, and its two-shard set written to ``frozen/manifest.json``."""
    profile = RepositoryProfile(
        target_node_count=800, min_tree_size=10, max_tree_size=60, seed=11, name="deferred"
    )
    repository = RepositoryGenerator(profile).generate()
    service = ShardedMatchingService.from_repository(
        repository, 2, element_threshold=THRESHOLD
    )
    target = tmp_path_factory.mktemp("deferred-sets")
    write_shard_set(service, target / "frozen", frozen=True)
    return repository, target


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


def serve(carrier, requests, resilience=None):
    """Answer ``requests`` on a fresh set: split in memory, or loaded from its manifest."""
    repository, target = carrier
    if target is None:
        service = ShardedMatchingService.from_repository(
            repository, 2, element_threshold=THRESHOLD, resilience=resilience
        )
    else:
        service = load_shard_set(target / "manifest.json", resilience=resilience)
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


def carrier_of(shard_sets, carrier):
    repository, target = shard_sets
    return (repository, None if carrier == "memory" else target / carrier)


@pytest.mark.parametrize("carrier", ["memory", "frozen"])
def test_served_answers_never_build_the_merged_tables(shard_sets, carrier, monkeypatch):
    manifest = carrier_of(shard_sets, carrier)
    requests = served_requests()
    expected, _ = serve(manifest, requests)
    assert all(answer["kind"] in ("match_response", "batch_response") for answer in expected)
    assert expected[0]["mappings"] and expected[2]["explain"]["clusters"]

    forbid_merged_tables(monkeypatch)
    answers, stats = serve(manifest, requests)
    assert answers == expected
    assert stats["query_cache_hits"] == 1
    assert stats["duplicate_queries"] == 1


@pytest.mark.parametrize("carrier", ["memory", "frozen"])
def test_a_degraded_answer_never_builds_the_merged_tables(shard_sets, carrier, monkeypatch):
    manifest = carrier_of(shard_sets, carrier)
    requests = [MatchRequest.from_schema(paper_personal_schema(), explain=True).to_wire()]
    [expected], _ = serve(manifest, requests, resilience=dead_shard_policy())
    assert expected["degraded"] and expected["skipped_shards"] == [0]

    forbid_merged_tables(monkeypatch)
    answers, stats = serve(manifest, requests, resilience=dead_shard_policy())
    assert answers == [expected]
    assert stats["degraded_queries"] == 1
