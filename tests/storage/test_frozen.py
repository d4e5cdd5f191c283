"""Frozen snapshots: write → mmap-load → bit-identical behaviour.

A snapshot is pure acceleration — any divergence from the service it was
written from would silently corrupt match results rather than crash.  Every
test therefore pins exact equality (rankings, path evidence, counters,
cluster reports) between a loaded service and the in-memory service the file
was written from, through mutation (thaw), sharding and load-time
overrides.  Each load maps the file as it is at that moment and releases the
mapping with the service.
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
from repro.matchers.index import RepositoryNameIndex
from repro.objective.bellflower import BellflowerObjective
from repro.schema.builder import TreeBuilder
from repro.schema.repository import SchemaRepository
from repro.service import MatchingService, load_snapshot, write_snapshot
from repro.service.snapshot import snapshot_config
from repro.shard import (
    RoundRobinRouter,
    ShardedMatchingService,
    load_manifest,
    load_shard_set,
    write_shard_set,
)
from repro.storage import (
    FrozenNameIndex,
    FrozenPartition,
    FrozenRepository,
    FrozenRepositoryDistanceOracle,
    open_frozen,
)
from repro.storage.builder import write_frozen_forest
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import contact_personal_schema, paper_personal_schema


def make_service(seed: int = 11, nodes: int = 800, **overrides) -> MatchingService:
    profile = RepositoryProfile(
        target_node_count=nodes,
        min_tree_size=10,
        max_tree_size=60,
        seed=seed,
        name=f"frozen-{seed}",
    )
    return MatchingService(
        RepositoryGenerator(profile).generate(), matcher=FuzzyNameMatcher(), **overrides
    )


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


def written_pair(target):
    """A fresh service and the snapshot it wrote to ``target / "snap.frozen"``."""
    service = make_service()
    write_snapshot(service, target / "snap.frozen")
    return service, target / "snap.frozen"


class WrittenSnapshot:
    """``snap.frozen`` in ``directory``, with what its writing service answered."""

    def __init__(self, directory):
        self.directory = directory
        service, self.path = written_pair(directory)
        self.repository = service.repository
        # Asked cold and in a fixed order, so a loaded service asked the same
        # questions in the same order must match them counter for counter.
        self.reference = {
            "paper": full_key(service.match(paper_personal_schema())),
            "contact": full_key(service.match(contact_personal_schema())),
        }

    def __truediv__(self, name):
        return self.directory / name


@pytest.fixture(scope="module")
def snapshot_pair(tmp_path_factory):
    """``snap.frozen`` written from :func:`make_service`, plus that service's answers."""
    return WrittenSnapshot(tmp_path_factory.mktemp("frozen"))


@pytest.fixture
def frozen_file(tmp_path):
    """A small service frozen to a file of its own: no other test has opened it."""
    write_snapshot(make_service(seed=29, nodes=400), tmp_path / "snap.frozen")
    return tmp_path / "snap.frozen"


@pytest.fixture(scope="module")
def reference_keys(snapshot_pair):
    return snapshot_pair.reference


class TestFrozenLoadEquivalence:
    def test_load_snapshot_returns_frozen_views(self, snapshot_pair):
        loaded = load_snapshot(snapshot_pair / "snap.frozen")
        assert type(loaded.repository) is FrozenRepository
        assert type(loaded.oracle) is FrozenRepositoryDistanceOracle
        assert type(loaded.partition) is FrozenPartition
        assert [type(index) for index in loaded.repository.cached_name_indexes().values()] == [
            FrozenNameIndex
        ]

    def test_frozen_views_satisfy_the_repository_contracts(self, snapshot_pair):
        frozen = load_snapshot(snapshot_pair / "snap.frozen").repository
        plain = snapshot_pair.repository
        assert frozen.tree_count == plain.tree_count
        assert frozen.node_count == plain.node_count
        assert [t.tree_id for t in frozen.trees()] == [t.tree_id for t in plain.trees()]
        for frozen_tree, plain_tree in zip(frozen.trees(), plain.trees()):
            assert [n.name for n in frozen_tree.nodes()] == [n.name for n in plain_tree.nodes()]
            assert [n.kind for n in frozen_tree.nodes()] == [n.kind for n in plain_tree.nodes()]

    def test_match_bit_identical_to_the_written_service(self, snapshot_pair, reference_keys):
        service = load_snapshot(snapshot_pair / "snap.frozen")
        assert full_key(service.match(paper_personal_schema())) == reference_keys["paper"]
        assert full_key(service.match(contact_personal_schema())) == reference_keys["contact"]

    def test_repeated_queries_reuse_the_frozen_views(self, snapshot_pair, reference_keys):
        service = load_snapshot(snapshot_pair / "snap.frozen")
        assert full_key(service.match(paper_personal_schema())) == reference_keys["paper"]
        # The second match may come from the query cache (as on the written
        # service) — the mapping identity must hold either way.
        repeat = service.match(paper_personal_schema())
        assert (result_key(repeat), path_records_key(repeat)) == reference_keys["paper"][:2]
        assert type(service.repository) is FrozenRepository  # queries never thaw


    def test_inspectable_header_matches_the_repository(self, snapshot_pair):
        snapshot = open_frozen(snapshot_pair / "snap.frozen")
        repository = snapshot_pair.repository
        assert snapshot.header["repository"]["tree_count"] == repository.tree_count
        assert snapshot.header["repository"]["node_count"] == repository.node_count
        assert len(snapshot.header["indexes"]) >= 1

    def test_rewriting_a_loaded_snapshot_is_byte_identical(self, snapshot_pair, tmp_path):
        # Writing reads every frozen view (forest, oracle tours, partition
        # CSRs, index postings); a view that decoded anything differently
        # from what was written would change the bytes.
        loaded = load_snapshot(snapshot_pair / "snap.frozen")
        write_snapshot(loaded, tmp_path / "again.frozen")
        assert (tmp_path / "again.frozen").read_bytes() == (
            snapshot_pair / "snap.frozen"
        ).read_bytes()


class TestFrozenIndexParity:
    """A loaded name index runs the written index's one candidate scan."""

    @pytest.fixture(scope="class")
    def parity_snapshot(self, tmp_path_factory):
        """The index of the service a snapshot was written from, and the file."""
        profile = RepositoryProfile(
            target_node_count=1500,
            min_tree_size=12,
            max_tree_size=70,
            seed=99,
            name="parity-repo",
        )
        service = MatchingService(RepositoryGenerator(profile).generate())
        path = tmp_path_factory.mktemp("parity") / "snap.frozen"
        write_snapshot(service, path)
        return service.repository.name_index(), path

    @pytest.fixture(scope="class")
    def index_pair(self, parity_snapshot):
        """The written index and its frozen mmap."""
        plain, path = parity_snapshot
        frozen = load_snapshot(path).repository.name_index()
        assert type(frozen) is FrozenNameIndex
        return plain, frozen

    @pytest.fixture(scope="class")
    def queries(self, parity_snapshot):
        """Exact hits, near misses, and strings unlike anything indexed."""
        plain, _ = parity_snapshot
        sampled = [plain.keys[i] for i in range(0, len(plain.keys), 37)]
        perturbed = [key[:-1] + "x" for key in sampled[:10] if len(key) > 3]
        return sampled + perturbed + [
            "name",
            "adress",
            "emial",
            "customernumber",
            "zzzzzzzz",
            "a",
            "shippingaddressline",
        ]

    def test_zero_threshold_prunes_nothing(self, index_pair):
        for index in index_pair:
            survivors, pruned = index.fuzzy_candidates("anything", 0.0)
            assert pruned == 0
            assert len(survivors) == len(index.keys)

    @pytest.mark.parametrize("threshold", [0.0, 0.3, 0.45, 0.6, 0.75, 0.85, 0.9, 0.92, 0.95])
    def test_frozen_candidates_match_the_plain_index(self, index_pair, queries, threshold):
        plain, frozen = index_pair
        for query in queries:
            plain_survivors, plain_pruned = plain.fuzzy_candidates(query, threshold)
            frozen_survivors, frozen_pruned = frozen.fuzzy_candidates(query, threshold)
            # Name-id numbering is shared (first-occurrence order), so the
            # survivor sets must agree id-for-id, not just key-for-key.
            assert sorted(frozen_survivors) == sorted(plain_survivors), (query, threshold)
            assert frozen_pruned == plain_pruned, (query, threshold)
            assert [frozen.keys[i] for i in frozen_survivors[:5]] == [
                plain.keys[i] for i in plain_survivors[:5]
            ] or sorted(frozen.keys[i] for i in frozen_survivors) == sorted(
                plain.keys[i] for i in plain_survivors
            )

    @pytest.mark.parametrize("threshold", [0.3, 0.6, 0.92])
    def test_pruned_pairs_weigh_each_pruned_name_by_its_node_count(
        self, index_pair, queries, threshold
    ):
        for index in index_pair:
            node_counts = [len(index.refs_for_id(i)) for i in range(len(index.keys))]
            assert sum(node_counts) == index.node_count
            for query in queries:
                survivors, pruned = index.fuzzy_candidates(query, threshold)
                kept = set(survivors)
                expected = sum(
                    count for name_id, count in enumerate(node_counts) if name_id not in kept
                )
                assert pruned == expected, (type(index).__name__, query, threshold)

    @pytest.mark.parametrize("which", [0, 1], ids=["plain", "frozen"])
    @pytest.mark.parametrize("threshold", [0.6, 0.92])
    def test_the_query_gram_set_is_built_only_when_a_bucket_can_prune(
        self, index_pair, queries, threshold, which, monkeypatch
    ):
        # A query of length L has at most L + 2 padded trigrams.  At 0.6 every
        # bucket's edit slack exceeds that, so no gram set is built; at 0.92 a
        # query of 5+ characters whose own length has a bucket gets one set.
        index = index_pair[which]
        built = []
        real = RepositoryNameIndex.query_grams

        def counting(self, query):
            built.append(query)
            return real(self, query)

        monkeypatch.setattr(RepositoryNameIndex, "query_grams", counting)
        keys = set(index_pair[0].keys)
        indexed = [query for query in queries if len(query) >= 5 and query in keys]
        assert len(indexed) >= 10
        for query in indexed:
            index.fuzzy_candidates(query, threshold)
        assert built == ([] if threshold == 0.6 else indexed)

    @pytest.mark.parametrize("threshold", [0.6, 0.92])
    def test_the_scan_decodes_no_key_and_no_ref_list(self, parity_snapshot, queries, threshold):
        # Length buckets and pruned-pair counts come from mapped offsets and
        # gram overlaps from the posting lists; only scoring survivors reads keys.
        _, path = parity_snapshot
        index = load_snapshot(path).repository.name_index()
        for query in queries:
            index.fuzzy_candidates(query, threshold)
        assert not index.keys._cache
        assert not index._refs._cache


class TestStreamingForestWriter:
    @pytest.mark.parametrize("max_fragment_size", [1, 5, 20])
    def test_writes_what_write_snapshot_writes(self, tmp_path, max_fragment_size):
        service = make_service(seed=31, nodes=400, partition_max_fragment_size=max_fragment_size)
        write_snapshot(service, tmp_path / "service.frozen")
        trees = list(service.repository.trees())
        write_frozen_forest(
            tmp_path / "forest.frozen",
            iter(trees),
            repository_name=service.repository.name,
            config=snapshot_config(
                element_threshold=service.element_threshold,
                delta=service.delta,
                matcher=service.matcher,
            ),
            max_fragment_size=max_fragment_size,
            case_sensitive=service.matcher.case_sensitive,
        )
        assert (tmp_path / "forest.frozen").read_bytes() == (
            tmp_path / "service.frozen"
        ).read_bytes()
        # Fragmenting a streamed tree leaves it as its repository holds it.
        assert [tree.tree_id for tree in trees] == list(range(service.repository.tree_count))


class TestMutationThaw:
    def test_mutation_thaws_and_stays_equivalent(self, tmp_path):
        written, path = written_pair(tmp_path)
        frozen_service = load_snapshot(path)
        extra = RepositoryGenerator(
            RepositoryProfile(target_node_count=60, min_tree_size=10, max_tree_size=30, seed=7)
        ).generate().tree(0)

        for service in (written, frozen_service):
            service.remove_tree(2)
            tree = copy.deepcopy(extra)
            tree.tree_id = -1
            service.add_tree(tree)

        # The first mutation materializes the repository in place: the frozen
        # service must behave as a plain in-memory one from then on.
        assert type(frozen_service.repository) is SchemaRepository
        for schema in (paper_personal_schema(), contact_personal_schema()):
            assert full_key(frozen_service.match(schema)) == full_key(written.match(schema))

    @pytest.mark.parametrize("kind", ["add", "remove"])
    def test_a_thawed_service_answers_like_the_written_one(self, tmp_path, kind):
        written, path = written_pair(tmp_path)
        frozen_service = load_snapshot(path)
        for service in (written, frozen_service):
            mutate(service, kind)
        assert type(frozen_service.repository) is SchemaRepository
        for schema in (paper_personal_schema(), contact_personal_schema()):
            assert full_key(frozen_service.match(schema)) == full_key(written.match(schema))


def make_sharded() -> ShardedMatchingService:
    repository = RepositoryGenerator(
        RepositoryProfile(
            target_node_count=700, min_tree_size=10, max_tree_size=55, seed=23, name="shards"
        )
    ).generate()
    return ShardedMatchingService.from_repository(
        repository, 3, router=RoundRobinRouter(), element_threshold=0.5
    )


@pytest.fixture(scope="module")
def shard_sets(tmp_path_factory):
    """One 3-shard service and the set it wrote to ``frozen/``."""
    target = tmp_path_factory.mktemp("shards")
    service = make_sharded()
    write_shard_set(service, target / "frozen", frozen=True)
    return service, target


class TestFrozenShardSet:
    def test_frozen_manifest_round_trip_is_bit_identical(self, shard_sets):
        service, target = shard_sets
        manifest = load_manifest(target / "frozen" / "manifest.json")
        for entry in manifest["shards"]:
            assert entry["path"].endswith(".frozen")
            header = open_frozen(target / "frozen" / entry["path"]).header
            assert header["repository"]["digest"] == entry["digest"]

        loaded = load_shard_set(target / "frozen" / "manifest.json")
        for shard in loaded.shards:
            assert type(shard.repository) is FrozenRepository
        for schema in (paper_personal_schema(), contact_personal_schema()):
            assert loaded.match(schema).ranking_key() == service.match(schema).ranking_key()

    def test_loading_a_frozen_set_and_its_stats_materialize_no_tree(self, shard_sets, monkeypatch):
        twin, target = shard_sets

        def materialize(self, tree_id):
            raise AssertionError(f"opening the set materialized tree {tree_id}")

        monkeypatch.setattr(FrozenRepository, "_materialize_tree", materialize)
        loaded = load_shard_set(target / "frozen" / "manifest.json")
        stats, twin_stats = loaded.stats(), twin.stats()
        for key in ("trees", "nodes", "largest_tree", "smallest_tree"):
            assert stats[key] == twin_stats[key]
        assert loaded._local_to_global == twin._local_to_global
        assert loaded._global_offsets == twin._global_offsets
        assert loaded._tree_sizes == twin._tree_sizes
        assert [(t.starts, t.deltas) for t in loaded._translators] == [
            (t.starts, t.deltas) for t in twin._translators
        ]

    def test_uncached_fan_out_repeats_a_query_identically(self, shard_sets):
        service, target = shard_sets
        schema = paper_personal_schema()
        expected = service.match(schema)
        # No result cache: the second answer takes the fan-out again.
        loaded = load_shard_set(target / "frozen" / "manifest.json", query_cache_size=0)
        for _ in range(2):
            result = loaded.match(schema)
            assert result_key(result) == result_key(expected)
            assert path_records_key(result) == path_records_key(expected)

    def test_fan_out_matches_the_set_it_was_written_from(self, tmp_path):
        # Fresh sets per query: a shard keeps its name memo from one query to
        # the next, so counters compare only between equally warm sets.
        for position, schema in enumerate((paper_personal_schema(), contact_personal_schema())):
            written = make_sharded()
            write_shard_set(written, tmp_path / str(position))
            expected = written.match(schema)
            result = load_shard_set(tmp_path / str(position) / "manifest.json").match(schema)
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
            load_snapshot(frozen_file)
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
        write_snapshot(replacement, frozen_file)
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
        write_snapshot(_one_tree_service("title"), target)
        first = load_snapshot(target)
        assert first.repository.tree(0).node(1).name == "title"
        stat = target.stat()
        write_snapshot(_one_tree_service("tytle"), target)
        assert target.stat().st_size == stat.st_size
        os.utime(target, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        assert load_snapshot(target).repository.tree(0).node(1).name == "tytle"
        assert first.repository.tree(0).node(1).name == "title"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_dropped_services_release_their_file_descriptors(self, tmp_path):
        paths = []
        for index in range(12):
            paths.append(tmp_path / f"snap-{index}.frozen")
            write_snapshot(_one_tree_service("title"), paths[-1])
        gc.collect()
        baseline = _open_fd_count()
        for path in paths:
            service = load_snapshot(path)
            assert service.match(TreeBuilder.from_nested({"book": ["title"]})).mappings
            del service
        gc.collect()
        assert _open_fd_count() == baseline

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_dropped_snapshots_release_their_file_descriptors(self, tmp_path):
        source = tmp_path / "snap.frozen"
        write_snapshot(_one_tree_service("title"), source)
        gc.collect()
        baseline = _open_fd_count()
        for _ in range(6):
            assert open_frozen(source).header["repository"]["tree_count"] == 1
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
        default = snapshot_pair.reference["paper"]
        frozen = full_key(
            load_snapshot(snapshot_pair / "snap.frozen", **{component: factory()}).match(schema)
        )
        # The written service, built with the same override.
        written = make_service(**{component: factory()})
        written.build_derived_state()
        plain = full_key(written.match(schema))
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
    def test_load_equals_the_written_service(self, seed, nodes):
        service = make_service(seed=seed, nodes=nodes)
        with tempfile.TemporaryDirectory() as scratch:
            base = Path(scratch)
            write_snapshot(service, base / "snap.frozen")
            frozen_loaded = load_snapshot(base / "snap.frozen")
            for schema in (paper_personal_schema(), contact_personal_schema()):
                assert full_key(frozen_loaded.match(schema)) == full_key(service.match(schema))
