"""Guard: serving answers a query without re-scanning the candidate table per cluster.

Stage 3 divides the candidate table among all clusters in one pass
(:func:`repro.clustering.cluster.split_candidates`).  The per-cluster
``MappingElementSets.restrict_to_refs`` scan it replaced stays as the
single-cluster path, so these tests patch it to raise and answer a query
through the two served shapes: a snapshot-loaded service and a shard set.  A serving path that falls back to one scan per cluster fails here.
"""

from __future__ import annotations

import pytest

from repro.matchers.selection import MappingElementSets
from repro.service import MatchingService, load_snapshot, write_snapshot
from repro.shard import ShardedMatchingService, load_shard_set, write_shard_set
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import paper_personal_schema


@pytest.fixture(scope="module")
def repository():
    profile = RepositoryProfile(
        target_node_count=800, min_tree_size=10, max_tree_size=60, seed=11, name="single-pass"
    )
    return RepositoryGenerator(profile).generate()


def forbid_per_cluster_scans(monkeypatch):
    def scan(self, global_ids):
        raise AssertionError("stage 3 re-scanned the candidate table for one cluster")

    monkeypatch.setattr(MappingElementSets, "restrict_to_refs", scan)


def test_snapshot_service_splits_candidates_once(repository, tmp_path, monkeypatch):
    written = MatchingService(repository)
    write_snapshot(written, tmp_path / "snap.frozen")
    expected = written.match(paper_personal_schema())
    assert expected.useful_cluster_count > 0 and expected.mappings

    served = load_snapshot(tmp_path / "snap.frozen")
    forbid_per_cluster_scans(monkeypatch)
    answer = served.match(paper_personal_schema())
    assert answer.ranking_key() == expected.ranking_key()
    assert answer.cluster_reports == expected.cluster_reports


def test_frozen_shard_set_splits_candidates_once(repository, tmp_path, monkeypatch):
    written = ShardedMatchingService.from_repository(repository, 2)
    write_shard_set(written, tmp_path, frozen=True)
    expected = written.match(paper_personal_schema())
    assert expected.useful_cluster_count > 0 and expected.mappings

    served = load_shard_set(tmp_path / "manifest.json")
    forbid_per_cluster_scans(monkeypatch)
    answer = served.match(paper_personal_schema())
    assert answer.ranking_key() == expected.ranking_key()
    assert answer.cluster_reports == expected.cluster_reports
