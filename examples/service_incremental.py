"""Service walkthrough: snapshot → load → incremental add → rebuild-identical queries.

Builds a :class:`~repro.service.MatchingService` over a synthetic repository,
persists it as a one-file snapshot, loads a second service from that snapshot,
registers a new schema tree on the *live* service (patching only the affected
index postings, oracle rows and partition fragments), and then verifies the
headline guarantee: the incrementally updated service answers queries
**bit-identically** to a service rebuilt from scratch over the same final
forest — while loading and updating in a fraction of the time.

Run with:  PYTHONPATH=src python examples/service_incremental.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

from repro.schema.builder import TreeBuilder
from repro.schema.serialization import tree_from_dict, tree_to_dict
from repro.schema.repository import SchemaRepository
from repro.service import MatchingService, load_snapshot, write_snapshot
from repro.workload import RepositoryGenerator, RepositoryProfile, paper_personal_schema


def crew_manifest_tree():
    """A tree that does not exist in the generated repository yet."""
    builder = TreeBuilder("crew-manifest")
    root = builder.root("crewManifest")
    member = builder.child(root, "member")
    builder.child(member, "name", datatype="string")
    builder.child(member, "address", datatype="string")
    builder.child(member, "email", datatype="string")
    builder.child(root, "vessel", datatype="string")
    return builder.build()


def main() -> None:
    # 1. A repository and a service with eagerly built derived state.
    profile = RepositoryProfile(target_node_count=2500, name="service-example")
    repository = RepositoryGenerator(profile).generate()
    service = MatchingService(repository, element_threshold=0.45, delta=0.7)
    print(f"repository: {repository.tree_count} trees, {repository.node_count} nodes")

    # 2. Snapshot it: one frozen file holding the forest + every derived table.
    snapshot_path = Path(tempfile.mkdtemp(prefix="bellflower_")) / "repository.snapshot.frozen"
    write_snapshot(service, snapshot_path)
    print(f"snapshot: {snapshot_path.stat().st_size} bytes at {snapshot_path}")

    # 3. A "new process" maps the snapshot instead of recomputing: opening is
    # O(header), and each tree, oracle and fragment list decodes on first use.
    started = time.perf_counter()
    served = load_snapshot(snapshot_path)
    print(f"loaded service in {time.perf_counter() - started:.4f}s "
          f"({served.repository.tree_count} trees mapped, "
          f"{served.oracle.built_oracle_count} oracles decoded so far)")

    # 4. Query, then register a new tree on the LIVE service.
    personal = paper_personal_schema()
    before = served.match(personal)
    tree_id = served.add_tree(crew_manifest_tree())
    after = served.match(personal)
    print(f"added tree {tree_id}; mappings {len(before.mappings)} -> {len(after.mappings)}")

    # 5. The guarantee: identical to a from-scratch rebuild of the final forest.
    rebuilt_repository = SchemaRepository(name="rebuilt")
    for tree in served.repository.trees():
        rebuilt_repository.add_tree(tree_from_dict(tree_to_dict(tree)))
    rebuilt = MatchingService(rebuilt_repository, element_threshold=0.45, delta=0.7)
    rebuilt_result = rebuilt.match(personal)
    assert after.ranking_key() == rebuilt_result.ranking_key(), "incremental != rebuild!"
    print("incremental update is bit-identical to a full rebuild ✓")

    top = after.mappings[0]
    tree = served.repository.tree(top.tree_id)
    print(f"best mapping now: Δ={top.score:.3f} in {tree.name!r}")
    print(f"service counters: {service_counters(served)}")


def service_counters(service: MatchingService) -> dict:
    return {
        name: value
        for name, value in service.counters.as_dict().items()
        if name in ("queries", "query_cache_hits", "query_cache_misses", "trees_added")
    }


if __name__ == "__main__":
    main()
