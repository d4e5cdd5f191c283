"""The deferred shard merge: a merged result's tables are exact whenever first read.

:class:`~repro.shard.service.MergedMatchResult` builds ``candidates`` and
``clustering`` on first read, from the shard results and the coordinate
tables of the query that produced it.  These tests pin that the build does
not depend on *when* it happens: after a live mutation, after the set is
rewritten and reloaded, after a pickle round-trip, under racing readers, and
for a degraded merge over the surviving shards only.
"""

from __future__ import annotations

import gc
import pickle
import sys
import threading
import time

import pytest

from repro.resilience import FaultPlan, FaultSpec, ResiliencePolicy, RetryPolicy
from repro.schema.builder import TreeBuilder
from repro.shard import (
    ShardedMatchingService,
    load_shard_set,
    rebalance_shard_set,
    write_shard_set,
)
from repro.shard.service import MergedMatchResult
from repro.workload.personal import paper_personal_schema

THRESHOLD = 0.5


def make_sharded(repository, shard_count=3, **kwargs):
    kwargs.setdefault("element_threshold", THRESHOLD)
    kwargs.setdefault("query_cache_size", 0)
    return ShardedMatchingService.from_repository(repository, shard_count, **kwargs)


def candidates_key(result):
    candidates = result.candidates
    return [
        (
            node_id,
            [
                (e.ref.global_id, e.ref.tree_id, e.ref.node_id, e.similarity)
                for e in candidates.elements_for(node_id)
            ],
        )
        for node_id in candidates.personal_node_ids
    ]


def clusters_key(result):
    return [
        (c.cluster_id, c.tree_id, sorted(c.member_global_ids()), c.centroid.global_id)
        for c in result.clustering.clusters
    ]


def tables_key(result):
    """Both deferred tables: every field the eager merge filled in but wall-clock time."""
    return (
        candidates_key(result),
        clusters_key(result),
        sorted(result.clustering.counters.as_dict().items()),
    )


def answer_key(result):
    """Everything a response reads, which the merge still builds eagerly."""
    return (
        result.ranking_key(),
        [(m.tree_id, m.cluster_id) for m in result.mappings],
        result.cluster_reports,
        sorted(result.counters.as_dict().items()),
        (result.top_k, result.partial, result.degraded, result.skipped_shards),
    )


def new_tree():
    return TreeBuilder.from_nested({"contact": ["name", "email", "address"]}, name="added")


class TestFirstReadAfterAStep:
    @pytest.mark.parametrize("step", ["add_tree", "remove_tree"])
    def test_a_first_read_after_a_mutation_equals_an_eager_read(
        self, shard_repository, reference_results, step
    ):
        service = make_sharded(shard_repository)
        eager = service.match(paper_personal_schema())
        expected = tables_key(eager)
        deferred = service.match(paper_personal_schema())
        if step == "add_tree":
            service.add_tree(new_tree())
        else:
            service.remove_tree(0)
        assert tables_key(deferred) == expected
        assert candidates_key(deferred) == candidates_key(reference_results[0])
        assert clusters_key(deferred) == clusters_key(reference_results[0])

    def test_a_first_read_after_the_set_is_rewritten_and_reloaded_equals_an_eager_read(
        self, shard_repository, tmp_path
    ):
        written = make_sharded(shard_repository)
        write_shard_set(written, tmp_path)
        expected = tables_key(written.match(paper_personal_schema()))
        loaded = load_shard_set(tmp_path / "manifest.json", query_cache_size=0)
        deferred = loaded.match(paper_personal_schema())
        del loaded
        gc.collect()
        rebalance_shard_set(tmp_path / "manifest.json", shard_count=2)
        reloaded = load_shard_set(tmp_path / "manifest.json")
        assert tables_key(deferred) == expected
        assert tables_key(reloaded.match(paper_personal_schema())) == expected


class TestPickling:
    def test_a_result_round_trips_before_and_after_its_first_read(
        self, shard_repository, reference_results
    ):
        result = make_sharded(shard_repository).match(paper_personal_schema())
        unread = pickle.loads(pickle.dumps(result))
        assert type(unread) is MergedMatchResult
        assert answer_key(unread) == answer_key(result)

        expected = tables_key(result)
        read = pickle.loads(pickle.dumps(result))
        assert answer_key(read) == answer_key(result)
        assert tables_key(unread) == tables_key(read) == expected
        assert unread.clustering.elapsed_seconds == result.clustering.elapsed_seconds
        assert candidates_key(unread) == candidates_key(reference_results[0])

    def test_the_tables_are_the_builder_output_only(self, shard_repository):
        result = make_sharded(shard_repository).match(paper_personal_schema())
        with pytest.raises(AttributeError, match="builds its own candidates"):
            result.candidates = result.candidates


class TestRacingReaders:
    @pytest.mark.parametrize("table", ["candidates", "clustering"])
    def test_racing_first_reads_build_one_object(self, shard_repository, monkeypatch, table):
        builder = f"_merge_{table}"
        original = getattr(MergedMatchResult, builder)
        calls = []

        def slow_build(self):
            calls.append(threading.get_ident())
            time.sleep(0.05)  # hold the first build open while the others arrive
            return original(self)

        monkeypatch.setattr(MergedMatchResult, builder, slow_build)
        result = make_sharded(shard_repository).match(paper_personal_schema())
        readers = 8
        barrier = threading.Barrier(readers, timeout=10)
        seen = []

        def read():
            barrier.wait()
            seen.append(getattr(result, table))

        threads = [threading.Thread(target=read) for _ in range(readers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(calls) == 1
        assert len(seen) == readers and all(value is seen[0] for value in seen)
        assert getattr(result, table) is seen[0]


class TestDegradedMerge:
    def test_degraded_tables_cover_exactly_the_surviving_shards(
        self, shard_repository, reference_results
    ):
        policy = ResiliencePolicy(
            retry=RetryPolicy(max_attempts=2, base_delay_ms=0.1, max_delay_ms=0.5, jitter=0.0),
            fault_plan=FaultPlan(specs=(FaultSpec(key="shard-0", kind="error"),)),
        )
        service = make_sharded(shard_repository, resilience=policy)
        try:
            result = service.match(paper_personal_schema())
            survivors = {
                tree_id for tree_id, shard_id in enumerate(service.assignment) if shard_id != 0
            }
        finally:
            service.close()
        assert result.degraded and result.skipped_shards == (0,)

        # The eager degraded merge: the unsharded tables restricted to the
        # surviving trees, cluster ids re-ranked ordinally within them.
        reference = reference_results[0]
        assert candidates_key(result) == [
            (node_id, [entry for entry in entries if entry[1] in survivors])
            for node_id, entries in candidates_key(reference)
        ]
        surviving_clusters = [entry for entry in clusters_key(reference) if entry[1] in survivors]
        assert clusters_key(result) == [
            (merged_id,) + entry[1:] for merged_id, entry in enumerate(surviving_clusters)
        ]
        clusters = {cluster.cluster_id: cluster for cluster in result.clustering.clusters}
        for report in result.cluster_reports:
            assert clusters[report.cluster_id].tree_id == report.tree_id
            assert clusters[report.cluster_id].size == report.member_count
