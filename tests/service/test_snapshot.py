"""Snapshot round-trip tests: write → load → bit-identical behaviour.

A snapshot persists *derived* state, so a bug here would not crash — it would
silently return wrong distances or wrong candidates.  The tests therefore pin
exact equality between a loaded service and the one that wrote the snapshot,
for every structure the snapshot carries.
"""

from __future__ import annotations

import hashlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.reclustering import join_and_remove
from repro.cli import main
from repro.errors import ClusteringError, ConfigurationError, ReproError
from repro.labeling.distance import TreeDistanceOracle
from repro.labeling.sparse_table import SparseTable
from repro.matchers.index import RepositoryNameIndex
from repro.matchers.name import FuzzyNameMatcher, NGramNameMatcher, TokenNameMatcher
from repro.schema.serialization import repository_to_dict
from repro.service import (
    MatchingService,
    RepositoryPartition,
    load_snapshot,
    write_snapshot,
)
from repro.shard import ShardedMatchingService, load_shard_set, write_shard_set
from repro.storage import open_frozen
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import (
    book_personal_schema,
    contact_personal_schema,
    paper_personal_schema,
)

from _equivalence import candidates_key, result_key


def make_repository(seed: int, nodes: int = 450):
    profile = RepositoryProfile(
        target_node_count=nodes, min_tree_size=10, max_tree_size=45, seed=seed, name=f"snap-{seed}"
    )
    return RepositoryGenerator(profile).generate()


class TestSnapshotRoundTrip:
    @pytest.mark.parametrize("seed", [1, 7, 42])
    @pytest.mark.parametrize("threshold", [0.45, 0.6])
    def test_match_results_bit_identical(self, tmp_path, seed, threshold):
        service = MatchingService(make_repository(seed), element_threshold=threshold)
        path = tmp_path / "snapshot.frozen"
        write_snapshot(service, path)
        loaded = load_snapshot(path)
        for schema in (paper_personal_schema(), contact_personal_schema(), book_personal_schema()):
            original = service.match(schema)
            restored = loaded.match(schema)
            assert candidates_key(original.candidates) == candidates_key(restored.candidates)
            assert result_key(original) == result_key(restored)

    def test_snapshot_is_complete(self, tmp_path):
        service = MatchingService(make_repository(3), element_threshold=0.5)
        path = tmp_path / "snapshot.frozen"
        header = write_snapshot(service, path)
        snapshot = open_frozen(path)
        assert snapshot.header == header
        repository = service.repository
        assert header["repository"]["tree_count"] == repository.tree_count
        assert header["repository"]["node_count"] == repository.node_count
        assert len(snapshot.int32("oracle/tour_offsets")) == repository.tree_count + 1
        assert header["partition"] is not None
        assert len(snapshot.int32("partition/fragment_offsets")) == repository.tree_count + 1
        assert len(header["indexes"]) == 1
        assert len(snapshot.int32("index0/node_name_ids")) == repository.node_count
        assert header["indexes"][0]["gram_count"] > 0  # the trigram postings are on disk

    def test_snapshot_bytes_are_pinned(self, tmp_path):
        # The file's byte layout is part of FROZEN_VERSION 1: a change here
        # must bump the version, then update this digest.
        profile = RepositoryProfile(target_node_count=2000, seed=5, name="b")
        path = tmp_path / "snapshot.frozen"
        write_snapshot(MatchingService(RepositoryGenerator(profile).generate()), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "1866a5dbd86d2731234c644c7884fe981ed133a01d5cf7f2fa542757dda2331d"
        )

    def test_loaded_service_needs_no_rebuild(self, tmp_path, monkeypatch):
        """Every index, oracle and partition row comes from the file, never a rebuild."""
        service = MatchingService(make_repository(5), element_threshold=0.5)
        path = tmp_path / "snapshot.frozen"
        write_snapshot(service, path)
        expected = service.match(paper_personal_schema())

        def rebuild(*args, **kwargs):
            raise AssertionError("a snapshot load rebuilt derived state")

        monkeypatch.setattr(RepositoryNameIndex, "__init__", rebuild)
        monkeypatch.setattr(TreeDistanceOracle, "_build_euler_tour", rebuild)
        monkeypatch.setattr(RepositoryPartition, "_build_tree", rebuild)
        loaded = load_snapshot(path)
        loaded.build_derived_state()
        assert loaded.oracle.built_oracle_count == loaded.repository.tree_count
        assert loaded.partition.built_tree_count == loaded.repository.tree_count
        assert loaded.repository.cached_name_indexes()  # index installed, not lazy
        assert result_key(loaded.match(paper_personal_schema())) == result_key(expected)

    def test_oracle_round_trip_is_exact(self, tmp_path):
        repository = make_repository(9)
        service = MatchingService(repository, element_threshold=0.5)
        path = tmp_path / "snapshot.frozen"
        write_snapshot(service, path)
        loaded = load_snapshot(path)
        for tree in repository.trees():
            fresh = TreeDistanceOracle(tree)
            restored = loaded.oracle.oracle(tree.tree_id)
            ids = list(tree.node_ids())
            for first in ids[:: max(1, len(ids) // 7)]:
                for second in ids[:: max(1, len(ids) // 7)]:
                    assert restored.distance(first, second) == fresh.distance(first, second)
                    assert restored.lca(first, second) == fresh.lca(first, second)

    @pytest.mark.parametrize(
        "matcher",
        [
            FuzzyNameMatcher(case_sensitive=True),
            NGramNameMatcher(),
            TokenNameMatcher(),
        ],
        ids=["fuzzy-cs", "ngram", "token"],
    )
    def test_bundled_matchers_round_trip(self, tmp_path, matcher):
        service = MatchingService(make_repository(2, nodes=250), matcher=matcher, element_threshold=0.5)
        path = tmp_path / "snapshot.frozen"
        write_snapshot(service, path)
        loaded = load_snapshot(path)
        schema = paper_personal_schema()
        assert result_key(service.match(schema)) == result_key(loaded.match(schema))

    @pytest.mark.parametrize("variant", ["medium", "tree"])
    def test_variant_services_round_trip(self, tmp_path, variant):
        service = MatchingService(make_repository(4, nodes=300), variant=variant, element_threshold=0.5)
        path = tmp_path / "snapshot.frozen"
        write_snapshot(service, path)
        loaded = load_snapshot(path)
        assert loaded.variant_name == variant
        schema = paper_personal_schema()
        assert result_key(service.match(schema)) == result_key(loaded.match(schema))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_round_trip_property(self, tmp_path_factory, seed):
        """Property form of the round-trip guarantee over generated forests."""
        service = MatchingService(make_repository(seed, nodes=150), element_threshold=0.5)
        path = tmp_path_factory.mktemp("snap") / "snapshot.frozen"
        write_snapshot(service, path)
        loaded = load_snapshot(path)
        schema = paper_personal_schema()
        original = service.match(schema)
        restored = loaded.match(schema)
        assert candidates_key(original.candidates) == candidates_key(restored.candidates)
        assert result_key(original) == result_key(restored)


class TestSnapshotValidation:
    def test_rejects_a_foreign_file_and_another_version(self, tmp_path):
        foreign = tmp_path / "notes.txt"
        foreign.write_text("not a snapshot at all\n", encoding="utf-8")
        with pytest.raises(ReproError, match="not a frozen snapshot"):
            load_snapshot(foreign)
        path = tmp_path / "snapshot.frozen"
        write_snapshot(MatchingService(make_repository(6, nodes=150), element_threshold=0.5), path)
        image = path.read_bytes()
        assert image.count(b'"version":1') == 1
        path.write_bytes(image.replace(b'"version":1', b'"version":9'))
        with pytest.raises(ReproError, match="unsupported frozen snapshot version 9"):
            load_snapshot(path)

    def test_custom_matcher_requires_override(self, tmp_path):
        class WeirdMatcher(FuzzyNameMatcher):
            pass

        service = MatchingService(
            make_repository(6, nodes=150), matcher=WeirdMatcher(), element_threshold=0.5
        )
        path = tmp_path / "snapshot.frozen"
        header = write_snapshot(service, path)
        assert header["config"]["matcher"] is None
        with pytest.raises(ReproError):
            load_snapshot(path)
        loaded = load_snapshot(path, matcher=WeirdMatcher())
        schema = paper_personal_schema()
        assert result_key(service.match(schema)) == result_key(loaded.match(schema))

    def test_partition_reclustering_requires_override(self, tmp_path):
        service = MatchingService(
            make_repository(8, nodes=300),
            element_threshold=0.5,
            partition_max_fragment_size=10,
            partition_reclustering=join_and_remove(),
        )
        path = tmp_path / "snapshot.frozen"
        header = write_snapshot(service, path)
        assert header["partition"]["reclustering"] == service.partition.reclustering.name
        with pytest.raises(ClusteringError):
            load_snapshot(path)
        restored = load_snapshot(path, partition_reclustering=join_and_remove())
        assert restored.partition.max_fragment_size == 10
        schema = paper_personal_schema()
        assert result_key(service.match(schema)) == result_key(restored.match(schema))


def write_json_snapshot(path, repository):
    """A v1 JSON service snapshot, the document earlier builds wrote."""
    path.write_text(
        json.dumps(
            {
                "format": "bellflower-service-snapshot",
                "version": 1,
                "repository": repository_to_dict(repository),
                "config": {
                    "element_threshold": 0.5,
                    "delta": 0.75,
                    "variant": "partition",
                    "matcher": {"type": "fuzzy-name", "case_sensitive": False},
                    "use_batch_matching": None,
                    "query_cache_size": 64,
                },
                "name_indexes": [],
                "oracles": {},
                "partition": None,
            }
        ),
        encoding="utf-8",
    )
    return path


def shard_set_naming_json_shards(directory, repository):
    """A manifest whose shard entries name JSON snapshots, as earlier builds wrote."""
    sharded = ShardedMatchingService.from_repository(repository, 2, element_threshold=0.5)
    manifest = write_shard_set(sharded, directory)
    for shard_id, (entry, shard) in enumerate(zip(manifest["shards"], sharded.shards)):
        entry["path"] = f"shard-{shard_id}.snapshot.json"
        write_json_snapshot(directory / entry["path"], shard.repository)
    (directory / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return directory / "manifest.json"


def run_cli(argv, capsys):
    """Run the CLI; return its exit code and the ``error:`` line it printed."""
    code = main(argv)
    return code, capsys.readouterr().err


JSON_ENTRY_POINTS = [
    "load_snapshot",
    "load_shard_set",
    "cli-query",
    "cli-serve",
    "cli-trace-replay",
    "cli-snapshot-inspect",
    "write_shard_set-frozen-false",
]


class TestJsonSnapshotsFailLoudly:
    """An old JSON snapshot stops every entry point with a typed, actionable error."""

    @pytest.mark.parametrize("entry", JSON_ENTRY_POINTS)
    def test_entry_point_says_how_to_rebuild(self, entry, tmp_path, capsys, monkeypatch):
        repository = make_repository(12, nodes=150)
        snapshot = str(write_json_snapshot(tmp_path / "old.snapshot.json", repository))
        personal = '{"book": ["title", "author"]}'
        rebuild = r"JSON service snapshot.*rebuild it from the repository with `cli snapshot`"
        if entry == "write_shard_set-frozen-false":
            sharded = ShardedMatchingService.from_repository(repository, 2, element_threshold=0.5)
            with pytest.raises(ConfigurationError, match="always frozen"):
                write_shard_set(sharded, tmp_path / "set", frozen=False)
            assert not (tmp_path / "set").exists()
            return
        if entry == "load_snapshot":
            with pytest.raises(ReproError, match=rebuild):
                load_snapshot(snapshot)
            return
        if entry == "load_shard_set":
            (tmp_path / "set").mkdir()
            manifest = shard_set_naming_json_shards(tmp_path / "set", repository)
            shard_split = r" \(a shard set with `cli shard split`\)"
            with pytest.raises(ReproError, match=rebuild + shard_split):
                load_shard_set(manifest)
            return
        if entry == "cli-query":
            argv = ["query", "--snapshot", snapshot, "--personal", personal]
        elif entry == "cli-serve":
            monkeypatch.setattr("sys.stdin", io.StringIO(""))
            argv = ["serve", "--snapshot", snapshot]
        elif entry == "cli-trace-replay":
            trace = str(tmp_path / "trace.json")
            assert main(["trace", "synth", "--out", trace, "--length", "3", "--seed", "7"]) == 0
            capsys.readouterr()
            argv = ["trace", "replay", "--trace", trace, "--snapshot", snapshot]
        else:
            assert entry == "cli-snapshot-inspect"
            argv = ["snapshot", "inspect", "--snapshot", snapshot]
        code, err = run_cli(argv, capsys)
        assert code == 2
        assert err.startswith("error: ")
        assert "is a JSON service snapshot" in err
        assert "`cli snapshot`" in err and "`cli shard split`" in err


class TestSparseTableRebuild:
    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=60))
    def test_from_built_answers_like_the_original(self, values):
        original = SparseTable(values)
        rebuilt = SparseTable.from_built(values, original.levels())
        for low in range(0, len(values), max(1, len(values) // 8)):
            for high in range(low, len(values), max(1, len(values) // 8)):
                assert rebuilt.argmin(low, high) == original.argmin(low, high)
