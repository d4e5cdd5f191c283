"""Shard-set manifests: round-trips, validation, rebalancing.

A manifest ties per-shard snapshots into one versioned unit; a wrong or
stale manifest would not crash — it would merge rankings in the wrong
coordinate space.  Every malformation therefore fails loudly with a typed
error, and a loaded set must answer queries bit-identically to the service
that wrote it.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro.errors import ReproError, ShardError, ShardManifestError
from repro.shard import (
    MANIFEST_FORMAT,
    MANIFEST_VERSION,
    ClusterAffinityRouter,
    RoundRobinRouter,
    ShardedMatchingService,
    load_manifest,
    load_shard_set,
    merged_repository,
    rebalance_shard_set,
    write_shard_set,
)
from repro.workload.personal import paper_personal_schema

THRESHOLD = 0.5


@pytest.fixture
def shard_set(tmp_path, shard_repository):
    service = ShardedMatchingService.from_repository(
        shard_repository, 3, router=RoundRobinRouter(), element_threshold=THRESHOLD
    )
    write_shard_set(service, tmp_path)
    return tmp_path / "manifest.json"


class TestRoundTrip:
    def test_loaded_set_answers_identically(self, shard_set, reference_results, query_schemas):
        service = load_shard_set(shard_set)
        assert service.shard_count == 3
        assert isinstance(service.router, RoundRobinRouter)
        for schema, reference in zip(query_schemas, reference_results):
            assert service.match(schema).ranking_key() == reference.ranking_key()

    def test_router_parameters_survive_the_round_trip(self, tmp_path, shard_repository):
        service = ShardedMatchingService.from_repository(
            shard_repository,
            2,
            router=ClusterAffinityRouter(max_fragment_size=11),
            element_threshold=THRESHOLD,
        )
        write_shard_set(service, tmp_path)
        loaded = load_shard_set(tmp_path / "manifest.json")
        assert isinstance(loaded.router, ClusterAffinityRouter)
        assert loaded.router.max_fragment_size == 11

    def test_shard_set_is_relocatable(self, shard_set, tmp_path, reference_results):
        moved = tmp_path.parent / f"{tmp_path.name}-moved"
        shutil.copytree(tmp_path, moved)
        service = load_shard_set(moved / "manifest.json")
        result = service.match(paper_personal_schema())
        assert result.ranking_key() == reference_results[0].ranking_key()

    def test_cache_size_override_applies_to_front_end_and_shards(self, shard_set):
        service = load_shard_set(shard_set, query_cache_size=0)
        assert service.query_cache_size == 0
        assert all(shard.query_cache_size == 0 for shard in service.shards)

    def test_loaded_set_keeps_the_front_end_capacity_it_was_split_with(
        self, tmp_path, shard_repository
    ):
        service = ShardedMatchingService.from_repository(
            shard_repository, 2, element_threshold=THRESHOLD, query_cache_size=5
        )
        write_shard_set(service, tmp_path)
        loaded = load_shard_set(tmp_path / "manifest.json")
        assert loaded.query_cache_size == 5
        assert loaded.stats()["query_cache_capacity"] == 5
        first = loaded.match(paper_personal_schema())
        second = loaded.match(paper_personal_schema())
        assert second.ranking_key() == first.ranking_key()
        assert loaded.match(paper_personal_schema()) is second
        assert loaded.counters.get("query_cache_hits") == 2
        assert loaded.query_cache_len == 1
        assert all(shard.query_cache_len == 0 for shard in loaded.shards)

    def test_manifest_document_shape(self, shard_set, shard_repository):
        manifest = load_manifest(shard_set)
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["version"] == MANIFEST_VERSION
        assert manifest["shard_count"] == 3
        assert len(manifest["assignment"]) == shard_repository.tree_count
        assert sum(entry["nodes"] for entry in manifest["shards"]) == shard_repository.node_count


class TestMalformedManifests:
    def _write(self, tmp_path, payload) -> str:
        path = tmp_path / "manifest.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    def test_missing_file_is_a_typed_error(self, tmp_path):
        with pytest.raises(ShardManifestError, match="cannot read"):
            load_manifest(tmp_path / "absent.json")

    def test_invalid_json_is_a_typed_error(self, tmp_path):
        with pytest.raises(ShardManifestError, match="not valid JSON"):
            load_manifest(self._write(tmp_path, "{not json"))

    def test_non_object_document_is_a_typed_error(self, tmp_path):
        with pytest.raises(ShardManifestError, match="not a shard manifest"):
            load_manifest(self._write(tmp_path, [1, 2, 3]))

    def test_wrong_format_is_a_typed_error(self, tmp_path):
        with pytest.raises(ShardManifestError, match="not a shard manifest"):
            load_manifest(self._write(tmp_path, {"format": "something-else"}))

    def test_wrong_version_is_a_typed_error(self, tmp_path):
        with pytest.raises(ShardManifestError, match="version"):
            load_manifest(
                self._write(tmp_path, {"format": MANIFEST_FORMAT, "version": 999})
            )

    def test_shard_count_mismatch_is_a_typed_error(self, tmp_path):
        payload = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "shard_count": 2,
            "assignment": [0],
            "shards": [{"path": "a.json", "trees": 1, "nodes": 3}],
        }
        with pytest.raises(ShardManifestError, match="shard_count"):
            load_manifest(self._write(tmp_path, payload))

    def test_assignment_to_unknown_shard_is_a_typed_error(self, tmp_path):
        payload = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "shard_count": 1,
            "assignment": [0, 7],
            "shards": [{"path": "a.json", "trees": 2, "nodes": 6}],
        }
        with pytest.raises(ShardManifestError, match="unknown shard"):
            load_manifest(self._write(tmp_path, payload))

    def test_tree_count_disagreement_is_a_typed_error(self, tmp_path):
        payload = {
            "format": MANIFEST_FORMAT,
            "version": MANIFEST_VERSION,
            "shard_count": 1,
            "assignment": [0, 0],
            "shards": [{"path": "a.json", "trees": 5, "nodes": 6}],
        }
        with pytest.raises(ShardManifestError, match="declares 5 trees"):
            load_manifest(self._write(tmp_path, payload))

    def test_tampered_manifest_counts_fail_on_load(self, shard_set):
        payload = json.loads(shard_set.read_text())
        payload["shards"][0]["nodes"] = payload["shards"][0]["nodes"] + 1
        shard_set.write_text(json.dumps(payload))
        with pytest.raises(ShardError, match="manifest declares"):
            load_shard_set(shard_set)

    def test_swapped_snapshot_paths_fail_the_digest_check(self, shard_set):
        # Swap the snapshot paths of two shards holding the *same* number of
        # trees (round-robin guarantees such a pair exists): every count
        # check still passes, so only the content digest can catch the swap
        # before it silently mis-merges rankings.
        payload = json.loads(shard_set.read_text())
        entries = payload["shards"]
        pair = next(
            (i, j)
            for i in range(len(entries))
            for j in range(i + 1, len(entries))
            if entries[i]["trees"] == entries[j]["trees"]
        )
        i, j = pair
        entries[i]["path"], entries[j]["path"] = entries[j]["path"], entries[i]["path"]
        entries[i]["nodes"], entries[j]["nodes"] = entries[j]["nodes"], entries[i]["nodes"]
        shard_set.write_text(json.dumps(payload))
        with pytest.raises(ShardError, match="digest"):
            load_shard_set(shard_set)

    def test_missing_snapshot_file_is_a_typed_error(self, shard_set):
        (shard_set.parent / "shard-1.snapshot.frozen").unlink()
        with pytest.raises(ReproError, match="cannot open frozen snapshot"):
            load_shard_set(shard_set)

    def test_unknown_router_policy_is_a_typed_error(self, shard_set):
        payload = json.loads(shard_set.read_text())
        payload["router"] = {"policy": "hash-ring", "params": {}}
        shard_set.write_text(json.dumps(payload))
        with pytest.raises(ShardError, match="unknown shard router"):
            load_shard_set(shard_set)


class TestRebalance:
    def test_rebalance_preserves_results_and_bumps_version(
        self, shard_set, reference_results, query_schemas
    ):
        before = load_manifest(shard_set)
        manifest = rebalance_shard_set(shard_set, shard_count=2)
        assert manifest["shard_count"] == 2
        assert manifest["global_version"] == before["global_version"] + 1
        service = load_shard_set(shard_set)
        assert service.shard_count == 2
        for schema, reference in zip(query_schemas, reference_results):
            assert service.match(schema).ranking_key() == reference.ranking_key()

    def test_rebalance_with_new_router_records_it(self, shard_set):
        rebalance_shard_set(shard_set, router=ClusterAffinityRouter(max_fragment_size=9))
        manifest = load_manifest(shard_set)
        assert manifest["router"] == {
            "policy": "cluster-affinity",
            "params": {"max_fragment_size": 9},
        }

    def test_rebalance_to_a_new_directory_keeps_the_original(
        self, shard_set, tmp_path, reference_results
    ):
        target = tmp_path.parent / f"{tmp_path.name}-rebalanced"
        rebalance_shard_set(shard_set, shard_count=4, out_directory=target)
        original = load_shard_set(shard_set)
        rebalanced = load_shard_set(target / "manifest.json")
        assert original.shard_count == 3
        assert rebalanced.shard_count == 4
        schema = paper_personal_schema()
        assert (
            original.match(schema).ranking_key()
            == rebalanced.match(schema).ranking_key()
            == reference_results[0].ranking_key()
        )

    def test_merged_repository_reassembles_the_original(self, shard_set, shard_repository):
        service = load_shard_set(shard_set)
        merged = merged_repository(service)
        assert merged.tree_count == shard_repository.tree_count
        assert merged.node_count == shard_repository.node_count
        for tree_id in range(merged.tree_count):
            assert merged.tree(tree_id).name == shard_repository.tree(tree_id).name
