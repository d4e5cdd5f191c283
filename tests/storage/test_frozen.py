"""Frozen snapshots: freeze → mmap-load → bit-identical behaviour.

The frozen carrier is pure acceleration — any divergence from the JSON path
would silently corrupt match results rather than crash.  Every test therefore
pins exact equality (rankings, path evidence, counters, cluster reports)
between a frozen-loaded service and its JSON-loaded twin, across every
execution regime and process-pool shape, through mutation (thaw), compaction,
and sharding.  It is also the carrier process workers reach repository state
through: frozen parts pickle to a path reopen instead of a copy.
"""

from __future__ import annotations

import copy
import hashlib
import os
import pickle
import sys
import tempfile
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "service"))
from _equivalence import (  # noqa: E402
    cluster_key,
    counters_key,
    execution_backends,
    path_records_key,
    result_key,
)

from repro.errors import ReproError
from repro.mapping.branch_and_bound import BranchAndBoundGenerator
from repro.matchers.name import FuzzyNameMatcher
from repro.objective.bellflower import BellflowerObjective
from repro.schema.repository import SchemaRepository
from repro.service import MatchingService, load_snapshot, write_snapshot
from repro.shard import (
    RoundRobinRouter,
    ShardedMatchingService,
    load_manifest,
    load_shard_set,
    write_shard_set,
)
from repro.storage import (
    FrozenRepository,
    compact_frozen,
    freeze_service,
    freeze_snapshot_file,
    is_frozen_file,
    load_frozen_service,
    open_frozen,
)
from repro.utils.executor import ProcessPoolTaskExecutor
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import contact_personal_schema, paper_personal_schema


def make_service(seed: int = 11, nodes: int = 800) -> MatchingService:
    profile = RepositoryProfile(
        target_node_count=nodes,
        min_tree_size=10,
        max_tree_size=60,
        seed=seed,
        name=f"frozen-{seed}",
    )
    return MatchingService(RepositoryGenerator(profile).generate(), matcher=FuzzyNameMatcher())


def full_key(result):
    return (result_key(result), path_records_key(result), counters_key(result), cluster_key(result))


def extra_tree():
    """A fresh, unregistered tree for mutation tests."""
    tree = RepositoryGenerator(
        RepositoryProfile(target_node_count=60, min_tree_size=10, max_tree_size=30, seed=7)
    ).generate().tree(0)
    tree.tree_id = -1
    return tree


def mutate(service, kind):
    """Thaw ``service`` through the public mutation API."""
    if kind == "add":
        service.add_tree(extra_tree())
    else:
        service.remove_tree(2)


class PathHeavyObjective(BellflowerObjective):
    """A user-defined objective; module-level so workers unpickle it by reference."""

    name = "path-heavy"

    def __init__(self) -> None:
        super().__init__(alpha=0.2, path_normalization=2.0)


def _reopen_and_crash(blob):  # pragma: no cover - runs in a worker process
    pickle.loads(blob)
    os._exit(1)


@pytest.fixture(scope="module")
def snapshot_pair(tmp_path_factory):
    """One service written both ways: ``snap.json`` and ``snap.frozen``."""
    target = tmp_path_factory.mktemp("frozen")
    service = make_service()
    write_snapshot(service, target / "snap.json")
    freeze_service(service, target / "snap.frozen")
    return target


@pytest.fixture
def frozen_file(tmp_path):
    """A small service frozen to a file of its own: no other test has opened it."""
    freeze_service(make_service(seed=29, nodes=400), tmp_path / "snap.frozen")
    return tmp_path / "snap.frozen"


@pytest.fixture(scope="module")
def reference_keys(snapshot_pair):
    service = load_snapshot(snapshot_pair / "snap.json")
    return {
        "paper": full_key(service.match(paper_personal_schema())),
        "contact": full_key(service.match(contact_personal_schema())),
    }


class TestFrozenLoadEquivalence:
    def test_load_snapshot_dispatches_on_magic_bytes(self, snapshot_pair):
        frozen = load_snapshot(snapshot_pair / "snap.frozen")
        assert type(frozen.repository) is FrozenRepository
        plain = load_snapshot(snapshot_pair / "snap.json")
        assert type(plain.repository) is SchemaRepository

    def test_frozen_views_satisfy_the_repository_contracts(self, snapshot_pair):
        frozen = load_snapshot(snapshot_pair / "snap.frozen").repository
        plain = load_snapshot(snapshot_pair / "snap.json").repository
        assert frozen.tree_count == plain.tree_count
        assert frozen.node_count == plain.node_count
        assert [t.tree_id for t in frozen.trees()] == [t.tree_id for t in plain.trees()]
        for frozen_tree, plain_tree in zip(frozen.trees(), plain.trees()):
            assert [n.name for n in frozen_tree.nodes()] == [n.name for n in plain_tree.nodes()]
            assert [n.kind for n in frozen_tree.nodes()] == [n.kind for n in plain_tree.nodes()]

    @pytest.mark.parametrize(
        "backend", list(execution_backends()), ids=lambda backend: backend[0]
    )
    def test_match_bit_identical_across_backends(self, snapshot_pair, reference_keys, backend):
        _, factory = backend
        executor = factory()
        service = load_frozen_service(snapshot_pair / "snap.frozen", executor=executor)
        try:
            assert full_key(service.match(paper_personal_schema())) == reference_keys["paper"]
            assert full_key(service.match(contact_personal_schema())) == reference_keys["contact"]
        finally:
            if executor is not None:
                executor.close()

    # Two workers with one task each is the "process" backend above.
    @pytest.mark.parametrize(
        "workers, tasks_per_worker", [(1, 1), (4, 1), (2, 3)], ids=["w1", "w4", "w2-chunks3"]
    )
    def test_process_results_independent_of_pool_shape(
        self, snapshot_pair, reference_keys, workers, tasks_per_worker
    ):
        executor = ProcessPoolTaskExecutor(workers, tasks_per_worker=tasks_per_worker)
        service = load_snapshot(snapshot_pair / "snap.frozen", executor=executor)
        try:
            assert full_key(service.match(paper_personal_schema())) == reference_keys["paper"]
            assert full_key(service.match(contact_personal_schema())) == reference_keys["contact"]
        finally:
            executor.close()

    def test_repeated_queries_reuse_the_frozen_views(self, snapshot_pair, reference_keys):
        service = load_snapshot(snapshot_pair / "snap.frozen")
        assert full_key(service.match(paper_personal_schema())) == reference_keys["paper"]
        # The second match may come from the query cache (same as the JSON
        # service) — the mapping identity must hold either way.
        repeat = service.match(paper_personal_schema())
        assert (result_key(repeat), path_records_key(repeat)) == reference_keys["paper"][:2]
        assert type(service.repository) is FrozenRepository  # queries never thaw


class TestFreezeSnapshotFile:
    def test_json_to_frozen_conversion_is_bit_identical(
        self, snapshot_pair, reference_keys, tmp_path
    ):
        target = tmp_path / "converted.frozen"
        header = freeze_snapshot_file(snapshot_pair / "snap.json", target)
        assert is_frozen_file(target)
        assert header["repository"]["node_count"] == load_snapshot(
            snapshot_pair / "snap.json"
        ).repository.node_count
        service = load_frozen_service(target)
        assert full_key(service.match(paper_personal_schema())) == reference_keys["paper"]

    def test_frozen_input_is_rejected(self, snapshot_pair, tmp_path):
        with pytest.raises(ReproError, match="already"):
            freeze_snapshot_file(snapshot_pair / "snap.frozen", tmp_path / "twice.frozen")

    def test_inspectable_header_matches_the_repository(self, snapshot_pair):
        snapshot = open_frozen(snapshot_pair / "snap.frozen", cached=False)
        repository = load_snapshot(snapshot_pair / "snap.json").repository
        assert snapshot.header["repository"]["tree_count"] == repository.tree_count
        assert snapshot.header["repository"]["node_count"] == repository.node_count
        assert len(snapshot.header["indexes"]) >= 1


class TestMutationThaw:
    def test_mutation_thaws_and_stays_equivalent(self, snapshot_pair):
        json_service = load_snapshot(snapshot_pair / "snap.json")
        frozen_service = load_snapshot(snapshot_pair / "snap.frozen")
        extra = RepositoryGenerator(
            RepositoryProfile(target_node_count=60, min_tree_size=10, max_tree_size=30, seed=7)
        ).generate().tree(0)

        for service in (json_service, frozen_service):
            service.remove_tree(2)
            tree = copy.deepcopy(extra)
            tree.tree_id = -1
            service.add_tree(tree)

        # The first mutation materializes the repository in place: the frozen
        # service must behave as a plain in-memory one from then on.
        assert type(frozen_service.repository) is SchemaRepository
        for schema in (paper_personal_schema(), contact_personal_schema()):
            assert full_key(frozen_service.match(schema)) == full_key(json_service.match(schema))

    @pytest.mark.parametrize("kind", ["add", "remove"])
    def test_thawed_oracle_pickles_by_copy(self, frozen_file, kind):
        service = load_snapshot(frozen_file)
        reopen_size = len(pickle.dumps(service.oracle))
        mutate(service, kind)
        blob = pickle.dumps(service.oracle)
        assert b"_reopen_frozen_oracle" not in blob
        assert b"_reopen_frozen_repository" not in blob
        assert len(blob) > 10 * reopen_size
        copied = pickle.loads(blob)
        assert type(copied.repository) is SchemaRepository
        assert [tree.name for tree in copied.repository.trees()] == [
            tree.name for tree in service.repository.trees()
        ]

    @pytest.mark.parametrize("kind", ["add", "remove"])
    def test_process_workers_answer_a_thawed_service_like_its_json_twin(
        self, snapshot_pair, kind
    ):
        json_service = load_snapshot(snapshot_pair / "snap.json")
        executor = ProcessPoolTaskExecutor(2)
        frozen_service = load_snapshot(snapshot_pair / "snap.frozen", executor=executor)
        try:
            for service in (json_service, frozen_service):
                mutate(service, kind)
            schema = paper_personal_schema()
            assert full_key(frozen_service.match(schema)) == full_key(json_service.match(schema))
            assert executor.last_chunk_sizes, "the query never reached the workers"
            schema = contact_personal_schema()
            assert full_key(frozen_service.match(schema)) == full_key(json_service.match(schema))
        finally:
            executor.close()


class TestCompaction:
    def test_compact_equals_mutate_then_query(self, snapshot_pair, tmp_path):
        extra = RepositoryGenerator(
            RepositoryProfile(target_node_count=60, min_tree_size=10, max_tree_size=30, seed=7)
        ).generate().tree(0)

        mutated = load_snapshot(snapshot_pair / "snap.json")
        mutated.remove_tree(2)
        tree = copy.deepcopy(extra)
        tree.tree_id = -1
        mutated.add_tree(tree)

        added = copy.deepcopy(extra)
        added.tree_id = -1
        target = tmp_path / "gen2.frozen"
        compact_frozen(
            snapshot_pair / "snap.frozen", target, add_trees=[added], remove_tree_ids=[2]
        )
        compacted = load_frozen_service(target)
        assert compacted.repository.tree_count == mutated.repository.tree_count
        for schema in (paper_personal_schema(), contact_personal_schema()):
            reference = mutated.match(schema)
            result = compacted.match(schema)
            assert result_key(result) == result_key(reference)
            assert path_records_key(result) == path_records_key(reference)

    def test_pure_copy_compaction_preserves_the_digest(self, snapshot_pair, tmp_path):
        target = tmp_path / "copy.frozen"
        compact_frozen(snapshot_pair / "snap.frozen", target)
        source = open_frozen(snapshot_pair / "snap.frozen", cached=False)
        copied = open_frozen(target, cached=False)
        assert copied.header["repository"]["digest"] == source.header["repository"]["digest"]
        assert copied.header["repository"]["node_count"] == source.header["repository"]["node_count"]

    def test_unknown_remove_id_is_rejected(self, snapshot_pair, tmp_path):
        with pytest.raises(ReproError):
            compact_frozen(
                snapshot_pair / "snap.frozen", tmp_path / "bad.frozen", remove_tree_ids=[10**6]
            )


@pytest.fixture(scope="module")
def shard_sets(tmp_path_factory):
    """One 3-shard service written both ways: ``json/`` and ``frozen/`` manifests."""
    target = tmp_path_factory.mktemp("shards")
    repository = RepositoryGenerator(
        RepositoryProfile(
            target_node_count=700, min_tree_size=10, max_tree_size=55, seed=23, name="shards"
        )
    ).generate()
    service = ShardedMatchingService.from_repository(
        repository, 3, router=RoundRobinRouter(), element_threshold=0.5
    )
    write_shard_set(service, target / "json")
    write_shard_set(service, target / "frozen", frozen=True)
    return service, target


class TestFrozenShardSet:
    def test_frozen_manifest_round_trip_is_bit_identical(self, shard_sets):
        service, target = shard_sets
        manifest = load_manifest(target / "frozen" / "manifest.json")
        for entry in manifest["shards"]:
            assert entry["path"].endswith(".frozen")
            assert is_frozen_file(target / "frozen" / entry["path"])

        loaded = load_shard_set(target / "frozen" / "manifest.json")
        for shard in loaded.shards:
            assert type(shard.repository) is FrozenRepository
        for schema in (paper_personal_schema(), contact_personal_schema()):
            assert loaded.match(schema).ranking_key() == service.match(schema).ranking_key()

    def test_process_fan_out_repeats_a_query_identically(self, shard_sets):
        _, target = shard_sets
        schema = paper_personal_schema()
        expected = load_shard_set(target / "json" / "manifest.json").match(schema)
        executor = ProcessPoolTaskExecutor(2)
        try:
            # No result cache: the second answer takes the fan-out again.
            loaded = load_shard_set(
                target / "frozen" / "manifest.json", executor=executor, query_cache_size=0
            )
            for _ in range(2):
                result = loaded.match(schema)
                assert result_key(result) == result_key(expected)
                assert path_records_key(result) == path_records_key(expected)
            assert executor.last_chunk_sizes, "the fan-out never reached the workers"
        finally:
            executor.close()

    def test_process_fan_out_matches_the_json_shard_set(self, shard_sets):
        # Fresh sets per query: a serial shard keeps its name memo from one
        # query to the next, while every process task unpickles a shard with
        # an empty memo, so only first-query counters are comparable.
        _, target = shard_sets
        executor = ProcessPoolTaskExecutor(2)
        try:
            for schema in (paper_personal_schema(), contact_personal_schema()):
                expected = load_shard_set(target / "json" / "manifest.json").match(schema)
                loaded = load_shard_set(target / "frozen" / "manifest.json", executor=executor)
                result = loaded.match(schema)
                assert result_key(result) == result_key(expected)
                assert path_records_key(result) == path_records_key(expected)
                assert counters_key(result) == counters_key(expected)
        finally:
            executor.close()


class TestProcessPayloads:
    """What a process worker receives: a path to reopen, never a copy."""

    def test_frozen_oracle_pickles_to_a_path_reopen(self, tmp_path):
        # Large enough that the JSON twin's copied repository passes 100 KB.
        service = make_service(seed=5, nodes=2500)
        write_snapshot(service, tmp_path / "snap.json")
        freeze_service(service, tmp_path / "snap.frozen")
        frozen = load_snapshot(tmp_path / "snap.frozen")
        plain = load_snapshot(tmp_path / "snap.json")
        assert len(pickle.dumps(frozen.oracle)) <= 256
        assert len(pickle.dumps(plain.oracle)) > 100_000

    def test_frozen_shard_service_pickles_small(self, shard_sets):
        _, target = shard_sets
        loaded = load_shard_set(target / "frozen" / "manifest.json")
        loaded.match(paper_personal_schema())
        for shard in loaded.shards:
            assert len(pickle.dumps(shard)) <= 2048

    def test_reopened_oracle_answers_like_the_original(self, frozen_file):
        service = load_snapshot(frozen_file)
        reopened = pickle.loads(pickle.dumps(service.oracle))
        repository = service.repository
        for tree_id in (0, repository.tree_count // 2, repository.tree_count - 1):
            root = repository.ref(tree_id, 0)
            for local_id in range(repository.tree(tree_id).node_count):
                node = repository.ref(tree_id, local_id)
                assert reopened.distance(root, node) == service.oracle.distance(root, node)

    def test_reopened_service_answers_like_the_loaded_one(self, frozen_file):
        service = load_snapshot(frozen_file)
        reopened = pickle.loads(pickle.dumps(service))
        assert type(reopened.repository) is FrozenRepository
        for schema in (paper_personal_schema(), contact_personal_schema()):
            assert full_key(reopened.match(schema)) == full_key(service.match(schema))

    def test_reopens_share_one_runtime_per_process(self, frozen_file):
        service = load_snapshot(frozen_file)
        oracle_blob = pickle.dumps(service.oracle)
        repository_blob = pickle.dumps(service.repository)
        oracle = pickle.loads(oracle_blob)
        assert pickle.loads(oracle_blob) is oracle
        assert pickle.loads(repository_blob) is oracle.repository
        assert open_frozen(frozen_file) is open_frozen(frozen_file)

    def test_reopening_a_deleted_snapshot_raises(self, frozen_file):
        service = load_snapshot(frozen_file, query_cache_size=0)
        before = service.match(paper_personal_schema())
        blob = pickle.dumps(service.oracle)
        frozen_file.unlink()
        with pytest.raises(ReproError, match="cannot open frozen snapshot"):
            pickle.loads(blob)
        # The loaded service keeps its own mapping of the unlinked file.
        after = service.match(paper_personal_schema())
        assert (result_key(after), path_records_key(after)) == (
            result_key(before),
            path_records_key(before),
        )

    def test_replacing_the_file_maps_a_new_generation(self, frozen_file):
        service = load_snapshot(frozen_file, query_cache_size=0)
        before = service.match(paper_personal_schema())
        replacement = make_service(seed=31, nodes=600)
        freeze_service(replacement, frozen_file)
        header = open_frozen(frozen_file).header["repository"]
        assert header["tree_count"] == replacement.repository.tree_count
        # Readers of the old generation keep their pages.
        after = service.match(paper_personal_schema())
        assert (result_key(after), path_records_key(after)) == (
            result_key(before),
            path_records_key(before),
        )


class TestWorkerCrash:
    def test_crashed_workers_leave_the_snapshot_serving(self, frozen_file):
        digest = hashlib.sha256(frozen_file.read_bytes()).hexdigest()
        service = load_snapshot(frozen_file)
        baseline = full_key(service.match(paper_personal_schema()))
        blob = pickle.dumps(service)
        executor = ProcessPoolTaskExecutor(2)
        try:
            with pytest.raises(BrokenProcessPool):
                executor.map(_reopen_and_crash, [blob, blob])
            executor.close()
            assert hashlib.sha256(frozen_file.read_bytes()).hexdigest() == digest
            # close() discards the broken pool; the next query starts a new one.
            survivor = load_snapshot(frozen_file, executor=executor)
            assert full_key(survivor.match(paper_personal_schema())) == baseline
            assert executor.last_chunk_sizes, "the query never reached the workers"
        finally:
            executor.close()


class TestWorkerOverrides:
    """Load-time overrides travel to the workers by value, not as defaults."""

    @pytest.mark.parametrize(
        "component, factory",
        [
            ("objective", lambda: BellflowerObjective(alpha=0.25)),
            ("objective", PathHeavyObjective),
            ("generator", lambda: BranchAndBoundGenerator(use_bounding=False)),
        ],
        ids=["objective-alpha", "objective-subclass", "generator-unbounded"],
    )
    def test_process_results_follow_the_override(self, snapshot_pair, component, factory):
        schema = paper_personal_schema()
        default = full_key(load_snapshot(snapshot_pair / "snap.frozen").match(schema))
        serial = full_key(
            load_snapshot(snapshot_pair / "snap.frozen", **{component: factory()}).match(schema)
        )
        # The override changes the answer, so a worker on the default would show.
        assert serial != default
        executor = ProcessPoolTaskExecutor(2)
        try:
            service = load_snapshot(
                snapshot_pair / "snap.frozen", executor=executor, **{component: factory()}
            )
            assert full_key(service.match(schema)) == serial
            assert executor.last_chunk_sizes, "the query never reached the workers"
        finally:
            executor.close()


class TestRoundTripProperty:
    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16), nodes=st.integers(120, 320))
    def test_freeze_load_equals_json_load(self, seed, nodes):
        service = make_service(seed=seed, nodes=nodes)
        with tempfile.TemporaryDirectory() as scratch:
            base = Path(scratch)
            write_snapshot(service, base / "snap.json")
            freeze_service(service, base / "snap.frozen")
            json_loaded = load_snapshot(base / "snap.json")
            frozen_loaded = load_snapshot(base / "snap.frozen")
            for schema in (paper_personal_schema(), contact_personal_schema()):
                assert full_key(frozen_loaded.match(schema)) == full_key(json_loaded.match(schema))
