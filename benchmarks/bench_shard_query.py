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
    holds on single-core runners too.  It is timed over ``BATCH_PAIRS``
    alternating pairs: each pair builds a fresh twin and a fresh batch set
    outside the timer and alternates which side runs first, and the gate
    reads the median per-pair ratio, so one noisy pass cannot decide it.

Also reported, ungated: the fan-out's ``match_many`` wall clock at the
headline shard count, and the *shard tax* — the median per-query time of a
2-shard set and of a ``--shards`` set, each divided by the unsharded
service's, all serial with the result cache off — with ``cpu_count`` and the
CPU affinity set's size.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_shard_query.py
"""

from __future__ import annotations

import argparse
import json
import statistics
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

from _host import host_fields

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_shard_query.json"
#: Timed passes over the schemas per service in the shard-tax measurement.
SHARD_TAX_ROUNDS = 10
#: Alternating (replay, batch) pairs timed by the batch gate.
BATCH_PAIRS = 11


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


def median_query_seconds(services, schemas):
    """Median wall clock of one ``match`` on each service, by service name.

    One warm-up pass each, then ``SHARD_TAX_ROUNDS`` passes that visit the
    services in turn, so drift in the host's speed reaches them all alike.
    """
    for service in services.values():
        for schema in schemas:
            service.match(schema)
    times = {name: [] for name in services}
    for _ in range(SHARD_TAX_ROUNDS):
        for name, service in services.items():
            for schema in schemas:
                started = time.perf_counter()
                service.match(schema)
                times[name].append(time.perf_counter() - started)
    return {name: statistics.median(values) for name, values in times.items()}


def timed(run):
    started = time.perf_counter()
    results = run()
    return time.perf_counter() - started, results


def batch_pairs(repository, schemas, args):
    """Time the batched front end against query-by-query replay, pair by pair.

    Each pair builds a fresh cache-off unsharded twin and a fresh batch set
    outside the timer, so it measures what one single-shot comparison would;
    odd pairs run the batch first, so neither side always runs second.
    Returns ``(replay_seconds, batch_seconds, identical, last_batch_service)``
    with one entry per pair in the two time lists.
    """
    batch = [schema for schema in schemas for _ in range(args.batch_repeat)]
    replay_seconds, batch_seconds = [], []
    identical = True
    for pair in range(BATCH_PAIRS):
        # The baseline must do the work reuse saves, so it replays against a
        # twin without a result cache.
        uncached = MatchingService(
            repository, element_threshold=args.threshold, query_cache_size=0
        )
        uncached.build_derived_state()
        batch_service = ShardedMatchingService.from_repository(
            repository,
            args.shards,
            element_threshold=args.threshold,
            query_cache_size=len(schemas),
        )
        batch_service.build_derived_state()

        def replay():
            return [uncached.match(schema, top_k=args.top_k) for schema in batch]

        def batched():
            return batch_service.match_many(batch, top_k=args.top_k)

        if pair % 2:
            batch_time, batch_results = timed(batched)
            replay_time, replay_results = timed(replay)
        else:
            replay_time, replay_results = timed(replay)
            batch_time, batch_results = timed(batched)
        replay_seconds.append(replay_time)
        batch_seconds.append(batch_time)
        identical = identical and ranking_keys(batch_results) == ranking_keys(replay_results)
    return replay_seconds, batch_seconds, identical, batch_service


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

    # -- shard tax: sharded vs unsharded per-query time (serial, cache off) ---
    tax_services = {
        "unsharded": MatchingService(
            repository, element_threshold=args.threshold, query_cache_size=0
        )
    }
    for shard_count in (2, args.shards):
        tax_services[f"shards_{shard_count}"] = ShardedMatchingService.from_repository(
            repository, shard_count, element_threshold=args.threshold, query_cache_size=0
        )
    medians = median_query_seconds(tax_services, schemas)
    unsharded_seconds = medians.pop("unsharded")
    shard_tax = {"unsharded_median_query_seconds": round(unsharded_seconds, 6)}
    for name, seconds in medians.items():
        shard_tax[name] = {
            "median_query_seconds": round(seconds, 6),
            "ratio": round(seconds / unsharded_seconds, 3),
        }

    # -- batched front-end vs query-by-query replay, alternating pairs -------
    replay_seconds, batch_seconds, batch_identical, batch_service = batch_pairs(
        repository, schemas, args
    )
    identical = identical and batch_identical
    ratios = [
        replay / batched if batched > 0 else float("inf")
        for replay, batched in zip(replay_seconds, batch_seconds)
    ]
    batch_speedup = statistics.median(ratios)
    lower_quartile, _, upper_quartile = statistics.quantiles(ratios, n=4)

    report = {
        "benchmark": "shard_query",
        **host_fields(),
        "repository": {"trees": repository.tree_count, "nodes": repository.node_count},
        "shards": args.shards,
        "threshold": args.threshold,
        "top_k": args.top_k,
        "outputs_identical": identical,
        "incumbent_pruned_partial_mappings": incumbent_pruned,
        "serial_batch_seconds": round(fan_out_seconds, 6),
        "shard_tax": shard_tax,
        "batch_workload": {
            "queries": len(schemas) * args.batch_repeat,
            "distinct": len(schemas),
            "pairs": len(ratios),
            "unsharded_replay_seconds": round(statistics.median(replay_seconds), 6),
            "sharded_match_many_seconds": round(statistics.median(batch_seconds), 6),
            "speedup": round(batch_speedup, 3),
            "speedup_quartiles": [round(lower_quartile, 3), round(upper_quartile, 3)],
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
            f"FAIL: batched fan-out speedup {batch_speedup:.2f}x (median of "
            f"{len(ratios)} pairs) below required {args.min_batch_speedup}x",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: outputs identical across 1/2/{args.shards} shards and match_many, "
        f"cross-shard pruning cut {incumbent_pruned} partial mappings, "
        f"batched fan-out {batch_speedup:.1f}x faster than query-by-query replay "
        f"(median of {len(ratios)} pairs)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
