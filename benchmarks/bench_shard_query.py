#!/usr/bin/env python
"""Shard benchmark: fan-out/merge identity, cross-shard pruning, batch speedup.

Exercises the :mod:`repro.shard` subsystem over one generated repository and
gates three claims:

``outputs identical`` (hard gate)
    The sharded service's rankings — for every shard count tested, with and
    without ``top_k``, per query and through ``match_many`` — are
    bit-identical to the unsharded :class:`~repro.service.MatchingService`.

``cross-shard incumbent pruning fires`` (hard gate)
    In top-``k`` mode all shards share one incumbent pool; the merged
    ``incumbent_pruned_partial_mappings`` counter must be positive, i.e. a
    mapping found on one shard actually pruned search on others.

``batch fan-out speedup`` (``--min-batch-speedup``)
    The batched front-end (``match_many``: fingerprint dedup + bounded result
    cache + one task per (query, shard)) must beat the same duplicate-heavy
    workload replayed query-by-query against a cache-off unsharded twin
    (``query_cache_size=0``, same repository), which computes every query.
    This speedup is deterministic (dedup arithmetic, not parallelism), so it
    holds on single-core runners too.

The fan-out's ``match_many`` wall clock at the headline shard count is also
reported, with ``cpu_count`` and the CPU affinity set's size.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_shard_query.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service import MatchingService
from repro.shard import ShardedMatchingService
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import (
    book_personal_schema,
    contact_personal_schema,
    paper_personal_schema,
    publication_personal_schema,
    purchase_personal_schema,
)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_shard_query.json"


def distinct_schemas():
    return [
        paper_personal_schema(),
        contact_personal_schema(),
        book_personal_schema(),
        publication_personal_schema(),
        purchase_personal_schema(),
    ]


def ranking_keys(results):
    return [result.ranking_key() for result in results]


def cpu_affinity() -> int:
    """CPUs this process may run on (the affinity set where the OS reports one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=8_000, help="target repository node count")
    parser.add_argument("--shards", type=int, default=4, help="shard count for the headline runs")
    parser.add_argument("--threshold", type=float, default=0.55, help="element similarity threshold")
    parser.add_argument("--top-k", type=int, default=5, dest="top_k", help="top-k bound for the pruning runs")
    parser.add_argument("--batch-repeat", type=int, default=5, help="how often each distinct query repeats in the batch workload")
    parser.add_argument(
        "--min-batch-speedup",
        type=float,
        default=2.0,
        help="fail when the batched sharded front-end is not this many times faster than "
        "replaying the workload query-by-query against a cache-off unsharded service "
        "(0 disables)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON output path")
    args = parser.parse_args(argv)

    profile = RepositoryProfile(
        target_node_count=args.nodes, min_tree_size=20, max_tree_size=220, name="bench-shard"
    )
    repository = RepositoryGenerator(profile).generate()
    schemas = distinct_schemas()

    unsharded = MatchingService(repository, element_threshold=args.threshold)
    unsharded.build_derived_state()
    reference_full = [unsharded.match(schema) for schema in schemas]
    reference_topk = [unsharded.match(schema, top_k=args.top_k) for schema in schemas]

    # -- identity across shard counts (serial) --------------------------------
    identical = True
    incumbent_pruned = 0
    for shard_count in (1, 2, args.shards):
        service = ShardedMatchingService.from_repository(
            repository, shard_count, element_threshold=args.threshold, query_cache_size=0
        )
        full = [service.match(schema) for schema in schemas]
        topk = [service.match(schema, top_k=args.top_k) for schema in schemas]
        identical = (
            identical
            and ranking_keys(full) == ranking_keys(reference_full)
            and ranking_keys(topk) == ranking_keys(reference_topk)
        )
        if shard_count == args.shards:
            incumbent_pruned = sum(
                result.counters.get("incumbent_pruned_partial_mappings") for result in topk
            )

    # -- identity + wall clock of match_many (the headline shard count) -------
    fan_out = ShardedMatchingService.from_repository(
        repository, args.shards, element_threshold=args.threshold, query_cache_size=0
    )
    fan_out.build_derived_state()
    started = time.perf_counter()
    fan_out_results = fan_out.match_many(schemas, top_k=args.top_k)
    fan_out_seconds = time.perf_counter() - started
    identical = identical and ranking_keys(fan_out_results) == ranking_keys(reference_topk)

    # -- batched front-end vs query-by-query replay ---------------------------
    # The baseline must do the work reuse saves: ``unsharded`` already holds
    # every answer in its cache, so replay against a cache-off twin.
    batch = [schema for schema in schemas for _ in range(args.batch_repeat)]
    uncached = MatchingService(repository, element_threshold=args.threshold, query_cache_size=0)
    uncached.build_derived_state()
    started = time.perf_counter()
    naive_results = [uncached.match(schema, top_k=args.top_k) for schema in batch]
    naive_seconds = time.perf_counter() - started

    batch_service = ShardedMatchingService.from_repository(
        repository,
        args.shards,
        element_threshold=args.threshold,
        query_cache_size=len(schemas),
    )
    batch_service.build_derived_state()
    started = time.perf_counter()
    batch_results = batch_service.match_many(batch, top_k=args.top_k)
    batch_seconds = time.perf_counter() - started
    identical = identical and ranking_keys(batch_results) == ranking_keys(naive_results)
    batch_speedup = naive_seconds / batch_seconds if batch_seconds > 0 else float("inf")

    report = {
        "benchmark": "shard_query",
        "cpu_count": os.cpu_count(),
        "cpu_affinity": cpu_affinity(),
        "repository": {"trees": repository.tree_count, "nodes": repository.node_count},
        "shards": args.shards,
        "threshold": args.threshold,
        "top_k": args.top_k,
        "outputs_identical": identical,
        "incumbent_pruned_partial_mappings": incumbent_pruned,
        "serial_batch_seconds": round(fan_out_seconds, 6),
        "batch_workload": {
            "queries": len(batch),
            "distinct": len(schemas),
            "unsharded_replay_seconds": round(naive_seconds, 6),
            "sharded_match_many_seconds": round(batch_seconds, 6),
            "speedup": round(batch_speedup, 3),
            "duplicate_queries": batch_service.counters.get("duplicate_queries"),
            "query_cache_hits": batch_service.counters.get("query_cache_hits"),
            "shard_queries": batch_service.counters.get("shard_queries"),
        },
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))

    if not identical:
        print("FAIL: sharded and unsharded services disagree", file=sys.stderr)
        return 1
    if incumbent_pruned <= 0:
        print("FAIL: cross-shard incumbent pruning never fired", file=sys.stderr)
        return 1
    if args.min_batch_speedup > 0 and batch_speedup < args.min_batch_speedup:
        print(
            f"FAIL: batched fan-out speedup {batch_speedup:.2f}x below required "
            f"{args.min_batch_speedup}x",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: outputs identical across 1/2/{args.shards} shards and match_many, "
        f"cross-shard pruning cut {incumbent_pruned} partial mappings, "
        f"batched fan-out {batch_speedup:.1f}x faster than query-by-query replay"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
