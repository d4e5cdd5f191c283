"""Snapshot round-trip tests: serialize → load → bit-identical behaviour.

A snapshot persists *derived* state, so a bug here would not crash — it would
silently return wrong distances or wrong candidates.  The tests therefore pin
exact equality between a loaded service and the one that wrote the snapshot,
for every structure the snapshot carries.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.reclustering import join_and_remove
from repro.errors import ClusteringError, ReproError
from repro.labeling.distance import TreeDistanceOracle
from repro.labeling.sparse_table import SparseTable
from repro.matchers.name import FuzzyNameMatcher, NGramNameMatcher, TokenNameMatcher
from repro.service import (
    MatchingService,
    RepositoryPartition,
    load_snapshot,
    service_to_snapshot_dict,
    snapshot_to_service,
    write_snapshot,
)
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
        path = tmp_path / "snapshot.json"
        write_snapshot(service, path)
        loaded = load_snapshot(path)
        for schema in (paper_personal_schema(), contact_personal_schema(), book_personal_schema()):
            original = service.match(schema)
            restored = loaded.match(schema)
            assert candidates_key(original.candidates) == candidates_key(restored.candidates)
            assert result_key(original) == result_key(restored)

    def test_snapshot_is_plain_json_and_complete(self, tmp_path):
        service = MatchingService(make_repository(3), element_threshold=0.5)
        path = tmp_path / "snapshot.json"
        payload = write_snapshot(service, path)
        reread = json.loads(path.read_text(encoding="utf-8"))
        assert reread == payload
        repository = service.repository
        assert len(payload["oracles"]) == repository.tree_count
        assert payload["partition"] is not None
        assert len(payload["partition"]["fragments"]) == repository.tree_count
        assert len(payload["name_indexes"]) == 1
        from repro.service.snapshot import _unpack_ints

        entry = payload["name_indexes"][0]
        assert len(_unpack_ints(entry["node_name_ids"])) == repository.node_count
        assert entry["blocking"] is not None  # warm-up built the trigram structures

    def test_snapshot_bytes_are_pinned(self, tmp_path):
        # The JSON carrier's byte layout is part of SNAPSHOT_VERSION 1: a
        # change here must bump the version, then update this digest.
        profile = RepositoryProfile(target_node_count=2000, seed=5, name="b")
        path = tmp_path / "snapshot.json"
        write_snapshot(MatchingService(RepositoryGenerator(profile).generate()), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "9df561d9fe8a105669a75ec1972f61f6bcc876a8d3de37583821c74c3b011218"
        )

    def test_loaded_service_needs_no_rebuild(self, tmp_path):
        """Every oracle/partition row must be present post-load, not lazily rebuilt."""
        service = MatchingService(make_repository(5), element_threshold=0.5)
        path = tmp_path / "snapshot.json"
        write_snapshot(service, path)
        loaded = load_snapshot(path)
        assert loaded.oracle.built_oracle_count == loaded.repository.tree_count
        assert loaded.partition.built_tree_count == loaded.repository.tree_count
        assert loaded.repository.cached_name_indexes()  # index installed, not lazy

    def test_oracle_round_trip_is_exact(self, tmp_path):
        repository = make_repository(9)
        service = MatchingService(repository, element_threshold=0.5)
        path = tmp_path / "snapshot.json"
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
        path = tmp_path / "snapshot.json"
        write_snapshot(service, path)
        loaded = load_snapshot(path)
        schema = paper_personal_schema()
        assert result_key(service.match(schema)) == result_key(loaded.match(schema))

    @pytest.mark.parametrize("variant", ["medium", "tree"])
    def test_variant_services_round_trip(self, tmp_path, variant):
        service = MatchingService(make_repository(4, nodes=300), variant=variant, element_threshold=0.5)
        path = tmp_path / "snapshot.json"
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
        path = tmp_path_factory.mktemp("snap") / "snapshot.json"
        write_snapshot(service, path)
        loaded = load_snapshot(path)
        schema = paper_personal_schema()
        original = service.match(schema)
        restored = loaded.match(schema)
        assert candidates_key(original.candidates) == candidates_key(restored.candidates)
        assert result_key(original) == result_key(restored)


class TestSnapshotValidation:
    def test_rejects_wrong_format_and_version(self):
        with pytest.raises(ReproError):
            snapshot_to_service({"format": "something-else"})
        service = MatchingService(make_repository(6, nodes=150), element_threshold=0.5)
        payload = service_to_snapshot_dict(service)
        payload["version"] = 999
        with pytest.raises(ReproError):
            snapshot_to_service(payload)

    def test_custom_matcher_requires_override(self):
        class WeirdMatcher(FuzzyNameMatcher):
            pass

        service = MatchingService(
            make_repository(6, nodes=150), matcher=WeirdMatcher(), element_threshold=0.5
        )
        payload = service_to_snapshot_dict(service)
        assert payload["config"]["matcher"] is None
        with pytest.raises(ReproError):
            snapshot_to_service(payload)
        loaded = snapshot_to_service(payload, matcher=WeirdMatcher())
        schema = paper_personal_schema()
        assert result_key(service.match(schema)) == result_key(loaded.match(schema))

    def test_partition_reclustering_requires_override(self):
        partition_payload = RepositoryPartition(
            max_fragment_size=10, reclustering=join_and_remove()
        ).to_payload()
        with pytest.raises(ClusteringError):
            RepositoryPartition.from_payload(partition_payload)
        restored = RepositoryPartition.from_payload(
            partition_payload, reclustering=join_and_remove()
        )
        assert restored.max_fragment_size == 10


class TestSparseTableRebuild:
    @settings(max_examples=25, deadline=None)
    @given(values=st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=60))
    def test_from_built_answers_like_the_original(self, values):
        original = SparseTable(values)
        rebuilt = SparseTable.from_built(values, original.levels())
        for low in range(0, len(values), max(1, len(values) // 8)):
            for high in range(low, len(values), max(1, len(values) // 8)):
                assert rebuilt.argmin(low, high) == original.argmin(low, high)
