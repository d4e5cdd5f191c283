"""Frozen snapshots: freeze → mmap-load → bit-identical behaviour.

The frozen carrier is pure acceleration — any divergence from the JSON path
would silently corrupt match results rather than crash.  Every test therefore
pins exact equality (rankings, path evidence, counters, cluster reports)
between a frozen-loaded service and its JSON-loaded twin, through mutation
(thaw), compaction, sharding and load-time overrides.  Each load maps the
file as it is at that moment and releases the mapping with the service.
"""

from __future__ import annotations

import copy
import gc
import os
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "service"))
from _equivalence import (  # noqa: E402
    cluster_key,
    counters_key,
    path_records_key,
    result_key,
)

from repro.errors import ReproError, ShardError
from repro.mapping.branch_and_bound import BranchAndBoundGenerator
from repro.matchers.name import FuzzyNameMatcher
from repro.objective.bellflower import BellflowerObjective
from repro.schema.builder import TreeBuilder
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
    """A user-defined objective subclass."""

    name = "path-heavy"

    def __init__(self) -> None:
        super().__init__(alpha=0.2, path_normalization=2.0)


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

    def test_match_bit_identical_to_the_json_load(self, snapshot_pair, reference_keys):
        service = load_frozen_service(snapshot_pair / "snap.frozen")
        assert full_key(service.match(paper_personal_schema())) == reference_keys["paper"]
        assert full_key(service.match(contact_personal_schema())) == reference_keys["contact"]

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
        snapshot = open_frozen(snapshot_pair / "snap.frozen")
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
    def test_a_thawed_service_answers_like_its_json_twin(self, snapshot_pair, kind):
        json_service = load_snapshot(snapshot_pair / "snap.json")
        frozen_service = load_snapshot(snapshot_pair / "snap.frozen")
        for service in (json_service, frozen_service):
            mutate(service, kind)
        assert type(frozen_service.repository) is SchemaRepository
        for schema in (paper_personal_schema(), contact_personal_schema()):
            assert full_key(frozen_service.match(schema)) == full_key(json_service.match(schema))


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
        source = open_frozen(snapshot_pair / "snap.frozen")
        copied = open_frozen(target)
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

    def test_uncached_fan_out_repeats_a_query_identically(self, shard_sets):
        _, target = shard_sets
        schema = paper_personal_schema()
        expected = load_shard_set(target / "json" / "manifest.json").match(schema)
        # No result cache: the second answer takes the fan-out again.
        loaded = load_shard_set(target / "frozen" / "manifest.json", query_cache_size=0)
        for _ in range(2):
            result = loaded.match(schema)
            assert result_key(result) == result_key(expected)
            assert path_records_key(result) == path_records_key(expected)

    def test_fan_out_matches_the_json_shard_set(self, shard_sets):
        # Fresh sets per query: a shard keeps its name memo from one query to
        # the next, so counters compare only between equally warm sets.
        _, target = shard_sets
        for schema in (paper_personal_schema(), contact_personal_schema()):
            expected = load_shard_set(target / "json" / "manifest.json").match(schema)
            result = load_shard_set(target / "frozen" / "manifest.json").match(schema)
            assert result_key(result) == result_key(expected)
            assert path_records_key(result) == path_records_key(expected)
            assert counters_key(result) == counters_key(expected)


def _one_tree_service(title: str) -> MatchingService:
    repository = SchemaRepository(name="one-tree")
    repository.add_tree(TreeBuilder.from_nested({"book": [title, "author"]}, name="library"))
    return MatchingService(repository, element_threshold=0.5, query_cache_size=0)


def _open_fd_count() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestOpenGenerations:
    """Each load maps the file as it is now and lets go of it with the service."""

    def test_loading_a_deleted_snapshot_raises(self, frozen_file):
        service = load_snapshot(frozen_file, query_cache_size=0)
        before = service.match(paper_personal_schema())
        frozen_file.unlink()
        with pytest.raises(ReproError, match="cannot open frozen snapshot"):
            load_frozen_service(frozen_file)
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

    def test_a_same_size_replacement_with_an_old_mtime_is_read_anew(self, tmp_path):
        # cp -p, rsync -t and reproducible builds restore the old mtime; a
        # replacement of equal size must still be read at its new contents.
        target = tmp_path / "snap.frozen"
        freeze_service(_one_tree_service("title"), target)
        first = load_snapshot(target)
        assert first.repository.tree(0).node(1).name == "title"
        stat = target.stat()
        freeze_service(_one_tree_service("tytle"), target)
        assert target.stat().st_size == stat.st_size
        os.utime(target, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert load_snapshot(target).repository.tree(0).node(1).name == "tytle"
        assert first.repository.tree(0).node(1).name == "title"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_dropped_services_release_their_file_descriptors(self, tmp_path):
        paths = []
        for index in range(12):
            paths.append(tmp_path / f"snap-{index}.frozen")
            freeze_service(_one_tree_service("title"), paths[-1])
        gc.collect()
        baseline = _open_fd_count()
        for path in paths:
            service = load_snapshot(path)
            assert service.match(TreeBuilder.from_nested({"book": ["title"]})).mappings
            del service
        gc.collect()
        assert _open_fd_count() == baseline

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_dropped_snapshots_and_compactions_release_their_file_descriptors(self, tmp_path):
        source = tmp_path / "snap.frozen"
        freeze_service(_one_tree_service("title"), source)
        gc.collect()
        baseline = _open_fd_count()
        for index in range(6):
            assert open_frozen(source).header["repository"]["tree_count"] == 1
            compact_frozen(source, tmp_path / f"gen-{index}.frozen")
        gc.collect()
        assert _open_fd_count() == baseline

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_dropped_shard_sets_release_their_file_descriptors(self, shard_sets):
        _, target = shard_sets
        gc.collect()
        baseline = _open_fd_count()
        for _ in range(4):
            loaded = load_shard_set(target / "frozen" / "manifest.json")
            assert loaded.match(paper_personal_schema()).mappings
            del loaded
        gc.collect()
        assert _open_fd_count() == baseline

    def test_a_same_size_shard_replacement_fails_the_manifest_digest(self, tmp_path):
        # A long-lived process reloads its shard set after shard 0's file was
        # replaced (same size, old mtime restored): the manifest's digest
        # check must see the new contents, not the mapping of the old ones.
        def write_set(title, target):
            repository = SchemaRepository(name="three-trees")
            for name, spec in (
                ("library", {"book": [title, "author"]}),
                ("people", {"person": ["name", "email"]}),
                ("orders", {"order": ["item", "price"]}),
            ):
                repository.add_tree(TreeBuilder.from_nested(spec, name=name))
            service = ShardedMatchingService.from_repository(
                repository, 3, router=RoundRobinRouter(), element_threshold=0.5
            )
            write_shard_set(service, target, frozen=True)
            return target / "manifest.json"

        manifest = write_set("title", tmp_path / "live")
        other = write_set("tytle", tmp_path / "other")
        assert load_shard_set(manifest).shard_count == 3
        entry = load_manifest(manifest)["shards"][0]["path"]
        shard_file, replacement = manifest.parent / entry, other.parent / entry
        stat = shard_file.stat()
        assert replacement.stat().st_size == stat.st_size
        os.replace(replacement, shard_file)
        os.utime(shard_file, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        with pytest.raises(ShardError, match="digest"):
            load_shard_set(manifest)

    def test_two_loads_of_one_file_never_share_a_thaw(self, frozen_file):
        thawed = load_snapshot(frozen_file, query_cache_size=0)
        untouched = load_snapshot(frozen_file, query_cache_size=0)
        before = untouched.match(paper_personal_schema())
        tree_count = untouched.repository.tree_count
        mutate(thawed, "add")
        assert type(thawed.repository) is SchemaRepository
        assert type(untouched.repository) is FrozenRepository
        assert untouched.repository.tree_count == tree_count
        # Counters differ between a cold and a warm query; the answer may not.
        after = untouched.match(paper_personal_schema())
        assert (result_key(after), path_records_key(after)) == (
            result_key(before),
            path_records_key(before),
        )


class TestLoadOverrides:
    """Load-time overrides replace what the frozen header records."""

    @pytest.mark.parametrize(
        "component, factory",
        [
            ("objective", lambda: BellflowerObjective(alpha=0.25)),
            ("objective", PathHeavyObjective),
            ("generator", lambda: BranchAndBoundGenerator(use_bounding=False)),
        ],
        ids=["objective-alpha", "objective-subclass", "generator-unbounded"],
    )
    def test_overrides_apply_to_a_frozen_load(self, snapshot_pair, component, factory):
        schema = paper_personal_schema()
        default = full_key(load_snapshot(snapshot_pair / "snap.frozen").match(schema))
        frozen = full_key(
            load_snapshot(snapshot_pair / "snap.frozen", **{component: factory()}).match(schema)
        )
        plain = full_key(
            load_snapshot(snapshot_pair / "snap.json", **{component: factory()}).match(schema)
        )
        # The override changes the answer, so a load that ignored it would show.
        assert frozen != default
        assert frozen == plain


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
