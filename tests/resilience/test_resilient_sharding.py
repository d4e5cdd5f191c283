"""Resilience through the sharded query path: exactness, failover, deadlines.

The contracts under test, in the order the ISSUE states them:

* a :class:`~repro.resilience.FaultPlan` that never fires is *invisible* —
  resilient-mode results are bit-identical to the plain sharded (and thus the
  unsharded) service, property-tested over no-op plans;
* transient faults absorbed by retries/hedging leave results exactly equal to
  the unsharded reference — duplicated attempts cannot perturb the ranking;
* a dead shard degrades the answer to the survivors: the response is marked
  ``degraded`` with the skipped shard ids, and the surviving mappings are
  path-record-identical to a healthy service over only the surviving trees;
* a deadline truncates the search to its incumbents: ``partial`` results are
  an order-preserving subset of the full ranking, and neither partial nor
  degraded answers are ever cached.
"""

from __future__ import annotations

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import encode
from repro.errors import ShardError
from repro.resilience import (
    BreakerPolicy,
    Deadline,
    FaultPlan,
    FaultSpec,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.schema.builder import TreeBuilder
from repro.schema.repository import SchemaRepository
from repro.service import MatchingService
from repro.shard import ShardedMatchingService
from repro.shard.service import copy_tree
from repro.workload.personal import paper_personal_schema

THRESHOLD = 0.5


def fast_retry(**overrides):
    defaults = dict(base_delay_ms=0.1, max_delay_ms=0.5, jitter=0.0)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


def make_resilient(repository, resilience, shard_count=3):
    return ShardedMatchingService.from_repository(
        repository, shard_count, element_threshold=THRESHOLD, resilience=resilience
    )


def assert_identical(actual, expected):
    """Bit-identity across the projections a resilient merge could disturb."""
    assert actual.ranking_key() == expected.ranking_key()
    assert [m.cluster_id for m in actual.mappings] == [m.cluster_id for m in expected.mappings]
    assert [m.tree_id for m in actual.mappings] == [m.tree_id for m in expected.mappings]
    assert actual.candidates.personal_node_ids == expected.candidates.personal_node_ids
    assert not actual.partial and not actual.degraded
    assert actual.skipped_shards == ()


def path_records(service, personal, result):
    """Mappings as coordinate-free (score, tree name, path assignment) records."""
    return [
        (record.score, record.tree, record.assignment)
        for record in (
            encode.mapping_record(service.repository, personal, mapping)
            for mapping in result.mappings
        )
    ]


def is_ordered_subset(sub, seq):
    """True when ``sub`` is a subsequence of ``seq`` (order-preserving subset)."""
    iterator = iter(seq)
    return all(any(item == other for other in iterator) for item in sub)


class PollingClock:
    """A clock that advances a fixed step per reading.

    Deadline expiry becomes a function of *how many times the search polled
    the deadline*, not of wall time — the truncation point is deterministic,
    so the prefix-consistency property can be asserted exactly.
    """

    def __init__(self, step: float = 1.0) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


def after_polls(polls: int) -> Deadline:
    """A deadline that expires on the ``polls``-th reading of its clock."""
    return Deadline.after_ms(polls * 1000.0, PollingClock())


# -- fault-free plans are invisible -----------------------------------------------


def tiny_repository():
    repository = SchemaRepository(name="tiny")
    for name, spec in (
        ("people", {"person": ["name", "email", "address"]}),
        ("books", {"book": ["title", "author"]}),
        ("orders", {"order": ["item", "price"]}),
    ):
        repository.add_tree(TreeBuilder.from_nested(spec, name=name))
    return repository


@pytest.fixture(scope="module")
def tiny_reference_result():
    return MatchingService(tiny_repository(), element_threshold=THRESHOLD).match(
        paper_personal_schema()
    )


#: Specs that are scheduled but can never change behaviour: a key no shard
#: uses, a coin that always lands on "no fault", a zero-length delay, and a
#: call index no test reaches.
_NOOP_SPECS = (
    FaultSpec(key="shard-99", kind="error"),
    FaultSpec(key="*", kind="error", probability=0.0),
    FaultSpec(key="*", kind="delay", delay_ms=0.0),
    FaultSpec(key="shard-0", kind="error", calls=[10_000]),
)


class TestFaultFreePlansAreInvisible:
    @settings(max_examples=8, deadline=None)
    @given(
        picks=st.lists(st.sampled_from(range(len(_NOOP_SPECS))), max_size=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_noop_plans_are_bit_identical_to_no_plan(self, tiny_reference_result, picks, seed):
        plan = FaultPlan(specs=tuple(_NOOP_SPECS[index] for index in picks), seed=seed)
        policy = ResiliencePolicy(retry=fast_retry(), fault_plan=plan)
        service = make_resilient(tiny_repository(), policy)
        try:
            result = service.match(paper_personal_schema())
        finally:
            service.close()
        assert_identical(result, tiny_reference_result)

    def test_resilient_mode_without_faults_matches_unsharded(
        self, chaos_repository, chaos_schemas, chaos_reference_results
    ):
        policy = ResiliencePolicy(retry=fast_retry(), hedge_delay_ms=50.0)
        service = make_resilient(chaos_repository, policy)
        try:
            for schema, reference in zip(chaos_schemas, chaos_reference_results):
                assert_identical(service.match(schema), reference)
        finally:
            service.close()


# -- transient faults are absorbed exactly ----------------------------------------


class TestTransientFaultsAreAbsorbed:
    def test_retried_queries_match_the_unsharded_service_exactly(
        self, chaos_repository, chaos_schemas, chaos_reference_results
    ):
        # The first call to shards 0 and 1 crashes; retries must recover with
        # zero effect on the merged ranking.
        plan = FaultPlan(
            specs=(
                FaultSpec(key="shard-0", kind="error", calls={"first": 1}),
                FaultSpec(key="shard-1", kind="error", calls={"first": 1}),
            )
        )
        policy = ResiliencePolicy(retry=fast_retry(), fault_plan=plan)
        service = make_resilient(chaos_repository, policy)
        try:
            for schema, reference in zip(chaos_schemas, chaos_reference_results):
                assert_identical(service.match(schema), reference)
            counters = service.counters.as_dict()
        finally:
            service.close()
        assert counters["shard_retries"] == 2
        assert counters["shard_attempt_failures"] == 2
        assert "degraded_queries" not in counters

    def test_hedged_queries_match_the_unsharded_service_exactly(
        self, chaos_repository, chaos_schemas, chaos_reference_results
    ):
        # Every primary attempt against shard 1 straggles for 100ms; the
        # hedge (odd call indexes run clean) wins without changing the answer
        # — shard queries are pure reads, so duplicates are idempotent.
        plan = FaultPlan(
            specs=(
                FaultSpec(key="shard-1", kind="delay", delay_ms=100.0, calls={"every": 2}),
            )
        )
        policy = ResiliencePolicy(retry=fast_retry(), hedge_delay_ms=10.0, fault_plan=plan)
        service = make_resilient(chaos_repository, policy)
        # Warm first: on cold shards the hedge pays for building the derived
        # state while the primary sleeps, and a loaded host can stretch that
        # past the straggler's 100ms, so the primary wakes to a warm shard and
        # answers first.
        service.build_derived_state()
        # Keep the collector out of the race too: a full collection of the
        # whole suite's heap stops every thread for about as long as the
        # straggle (117ms measured) while the primary's sleep keeps running,
        # so the hedge could lose with no shard being slow.
        collector_was_enabled = gc.isenabled()
        gc.disable()
        try:
            assert_identical(service.match(chaos_schemas[0]), chaos_reference_results[0])
            counters = service.counters.as_dict()
        finally:
            if collector_was_enabled:
                gc.enable()
            service.close()
        assert counters["hedges_launched"] >= 1
        assert counters["hedges_won"] >= 1


# -- degraded failover -------------------------------------------------------------


class TestDegradedFailover:
    def acceptance_policy(self):
        # The ISSUE's acceptance scenario: shard 0 permanently dead, shard 1
        # a 100ms straggler (primaries only — hedges run clean).
        plan = FaultPlan(
            specs=(
                FaultSpec(key="shard-0", kind="error", message="shard down"),
                FaultSpec(key="shard-1", kind="delay", delay_ms=100.0, calls={"every": 2}),
            )
        )
        return ResiliencePolicy(
            retry=fast_retry(max_attempts=2),
            hedge_delay_ms=10.0,
            breaker=BreakerPolicy(failure_threshold=2, cooldown_seconds=60.0),
            fault_plan=plan,
        )

    def test_dead_shard_degrades_to_the_survivors_exactly(
        self, chaos_repository, chaos_schemas
    ):
        schema = chaos_schemas[0]
        service = make_resilient(chaos_repository, self.acceptance_policy())
        try:
            result = service.match(schema)
            assert result.degraded
            assert result.skipped_shards == (0,)
            assert not result.partial

            # Ground truth: a healthy unsharded service over only the trees
            # the surviving shards hold (merged-id order keeps tie-breaks
            # aligned).  Coordinates (tree ids, cluster ids) necessarily
            # differ across the two services, so equality is asserted on
            # path records — the stable, coordinate-free mapping identity.
            survivors = SchemaRepository(name="survivors")
            for tree_id, shard_id in enumerate(service.assignment):
                if shard_id != 0:
                    survivors.add_tree(copy_tree(service.tree(tree_id)))
            restricted = MatchingService(survivors, element_threshold=THRESHOLD)
            expected = restricted.match(schema)
            assert path_records(service, schema, result) == path_records(
                restricted, schema, expected
            )

            counters = service.counters.as_dict()
            assert counters["degraded_queries"] == 1
            assert counters["shards_skipped"] == 1
            assert counters["hedges_launched"] >= 1
        finally:
            service.close()

    def test_breaker_opens_and_sheds_the_dead_shard(self, chaos_repository, chaos_schemas):
        service = make_resilient(chaos_repository, self.acceptance_policy())
        try:
            first = service.match(chaos_schemas[0])
            # Two failed attempts tripped shard 0's breaker; later queries
            # shed it instead of re-probing, and stay degraded-but-correct.
            assert service.stats()["breaker_states"][0] == "open"
            second = service.match(chaos_schemas[0])
            assert second.degraded and second.skipped_shards == (0,)
            assert second.ranking_key() == first.ranking_key()
            assert service.counters.as_dict()["breaker_skips"] >= 1
        finally:
            service.close()

    def test_degraded_results_are_never_cached(self, chaos_repository, chaos_schemas):
        service = ShardedMatchingService.from_repository(
            chaos_repository,
            3,
            element_threshold=THRESHOLD,
            query_cache_size=8,
            resilience=self.acceptance_policy(),
        )
        try:
            service.match(chaos_schemas[0])
            assert service.query_cache_len == 0
        finally:
            service.close()

    def test_every_shard_failing_is_a_loud_error(self, chaos_repository, chaos_schemas):
        plan = FaultPlan(specs=(FaultSpec(key="*", kind="error", message="total outage"),))
        policy = ResiliencePolicy(
            retry=fast_retry(max_attempts=1), breaker=None, fault_plan=plan
        )
        service = make_resilient(chaos_repository, policy)
        try:
            with pytest.raises(ShardError, match="all 3 shards failed"):
                service.match(chaos_schemas[0])
        finally:
            service.close()


# -- deadlines and partial results -------------------------------------------------


class TestPartialAtDeadline:
    @pytest.mark.parametrize("polls", [2, 6])
    def test_incumbents_are_an_ordered_subset_of_the_full_ranking(
        self, chaos_reference, chaos_schemas, chaos_reference_results, polls
    ):
        schema, full = chaos_schemas[0], chaos_reference_results[0]
        partial = chaos_reference.match(schema, deadline=after_polls(polls))
        assert partial.partial
        partial_keys = partial.ranking_key()
        full_keys = full.ranking_key()
        assert len(partial_keys) < len(full_keys)
        assert is_ordered_subset(partial_keys, full_keys)
        assert chaos_reference.counters.as_dict()["partials_returned"] >= 1

    def test_an_unexpired_deadline_changes_nothing(
        self, chaos_reference, chaos_schemas, chaos_reference_results
    ):
        result = chaos_reference.match(chaos_schemas[0], deadline=Deadline.after_ms(3_600_000))
        assert not result.partial
        assert result.ranking_key() == chaos_reference_results[0].ranking_key()

    def test_sharded_partials_are_flagged_and_not_cached(
        self, chaos_repository, chaos_schemas, chaos_reference_results
    ):
        schema, full = chaos_schemas[0], chaos_reference_results[0]
        service = ShardedMatchingService.from_repository(
            chaos_repository, 3, element_threshold=THRESHOLD, query_cache_size=8
        )
        partial = service.match(schema, deadline=after_polls(4))
        assert partial.partial
        assert is_ordered_subset(partial.ranking_key(), full.ranking_key())
        assert service.query_cache_len == 0  # a truncated answer is not canonical
        assert service.counters.as_dict()["partials_returned"] == 1
        complete = service.match(schema)
        assert service.query_cache_len == 1
        assert complete.ranking_key() == full.ranking_key()
