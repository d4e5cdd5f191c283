#!/usr/bin/env python
"""Resilience benchmark: hedged tail latency, seeded chaos trials, failover.

Exercises the :mod:`repro.resilience` subsystem through the sharded query
path and gates three claims:

``hedged p99`` (``--max-hedged-p99-ratio``, hard gate)
    With one shard injected as a 100ms straggler, request hedging must cut
    the p99 query latency to at most half of the unhedged run.  Stragglers
    hit *primary* attempts (even call indexes); the hedge models a retry on a
    different replica path and runs clean.

``zero non-marked divergence`` (hard gate)
    Across ``--chaos-trials`` seeded trials of probabilistic injected crashes
    and delays, every result that diverges from the fault-free reference
    ranking must be *marked* (``degraded`` and/or ``partial``) or be a loud
    typed error.  A silent wrong answer — divergent but unmarked — fails the
    run.  Trials that retries/hedges fully absorb must stay bit-identical.

``degraded failover`` (hard gate)
    The ISSUE's acceptance scenario: one permanently dead shard plus one
    100ms straggler.  Queries must still answer (degraded, hedged), and the
    surviving mappings must be path-record-identical to a healthy service
    built over only the surviving shards' trees.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_resilience.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import encode
from repro.errors import ShardError
from repro.resilience import (
    BreakerPolicy,
    FaultPlan,
    FaultSpec,
    ResiliencePolicy,
    RetryPolicy,
)
from repro.schema.repository import SchemaRepository
from repro.service import MatchingService
from repro.shard import ShardedMatchingService
from repro.shard.service import copy_tree
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import (
    book_personal_schema,
    contact_personal_schema,
    paper_personal_schema,
)

from _host import host_fields

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_resilience.json"

STRAGGLER_MS = 100.0


def fast_retry(max_attempts=3):
    return RetryPolicy(base_delay_ms=1.0, max_delay_ms=5.0, multiplier=2.0, jitter=0.5)


def make_resilient(repository, shards, threshold, policy):
    return ShardedMatchingService.from_repository(
        repository, shards, element_threshold=threshold, query_cache_size=0, resilience=policy
    )


def percentile(samples, fraction):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(fraction * (len(ordered) - 1) + 0.5))]


def ranking_keys(results):
    return [result.ranking_key() for result in results]


def path_records(service, personal, result):
    return [
        (record.score, record.tree, record.assignment)
        for record in (
            encode.mapping_record(service.repository, personal, mapping)
            for mapping in result.mappings
        )
    ]


def measure_tail_latency(repository, args, schemas):
    """Unhedged vs hedged p99 under an injected 100ms straggler shard."""

    def run(plan, hedge_delay_ms):
        policy = ResiliencePolicy(
            retry=fast_retry(),
            hedge_delay_ms=hedge_delay_ms,
            fault_plan=plan,
            max_workers=4,
        )
        service = make_resilient(repository, args.shards, args.threshold, policy)
        latencies = []
        try:
            service.match(schemas[0])  # warm the fan-out pools (no cache: size 0)
            for index in range(args.latency_queries):
                schema = schemas[index % len(schemas)]
                started = time.perf_counter()
                service.match(schema)
                latencies.append(time.perf_counter() - started)
            counters = service.counters.as_dict()
        finally:
            service.close()
        return latencies, counters

    # Unhedged: every call to the straggler shard is a primary and stalls.
    unhedged_plan = FaultPlan(
        specs=(FaultSpec(key="shard-1", kind="delay", delay_ms=STRAGGLER_MS),)
    )
    # Hedged: primaries (even call indexes) stall, the hedge path runs clean.
    hedged_plan = FaultPlan(
        specs=(
            FaultSpec(key="shard-1", kind="delay", delay_ms=STRAGGLER_MS, calls={"every": 2}),
        )
    )
    unhedged, _ = run(unhedged_plan, hedge_delay_ms=None)
    hedged, hedged_counters = run(hedged_plan, hedge_delay_ms=args.hedge_ms)
    return {
        "queries": args.latency_queries,
        "straggler_ms": STRAGGLER_MS,
        "hedge_delay_ms": args.hedge_ms,
        "unhedged_p50_seconds": round(percentile(unhedged, 0.5), 6),
        "unhedged_p99_seconds": round(percentile(unhedged, 0.99), 6),
        "hedged_p50_seconds": round(percentile(hedged, 0.5), 6),
        "hedged_p99_seconds": round(percentile(hedged, 0.99), 6),
        "hedges_launched": hedged_counters.get("hedges_launched", 0),
        "hedges_won": hedged_counters.get("hedges_won", 0),
    }


def run_chaos_trials(repository, args, schemas, references):
    """Seeded probabilistic faults; count marked vs non-marked divergences."""
    identical = 0
    marked = 0
    loud_errors = 0
    non_marked_divergences = 0
    for trial in range(args.chaos_trials):
        plan = FaultPlan(
            specs=(
                FaultSpec(key="shard-0", kind="error", probability=0.4),
                FaultSpec(key="shard-1", kind="delay", delay_ms=2.0, probability=0.3),
                FaultSpec(key="shard-2", kind="error", probability=0.2),
            ),
            seed=trial,
        )
        policy = ResiliencePolicy(
            retry=fast_retry(),
            hedge_delay_ms=args.hedge_ms,
            breaker=BreakerPolicy(failure_threshold=3, cooldown_seconds=0.01),
            fault_plan=plan,
            max_workers=4,
        )
        service = make_resilient(repository, args.shards, args.threshold, policy)
        index = trial % len(schemas)
        try:
            result = service.match(schemas[index])
        except ShardError:
            loud_errors += 1  # a total outage answered loudly, not wrongly
            continue
        finally:
            service.close()
        if result.ranking_key() == references[index].ranking_key():
            identical += 1
        elif result.degraded or result.partial:
            marked += 1
        else:
            non_marked_divergences += 1
    return {
        "trials": args.chaos_trials,
        "bit_identical": identical,
        "marked_divergent": marked,
        "loud_errors": loud_errors,
        "non_marked_divergences": non_marked_divergences,
    }


def run_failover_acceptance(repository, args, schemas):
    """Dead shard 0 + straggler shard 1: degraded answers, survivors exact."""
    plan = FaultPlan(
        specs=(
            FaultSpec(key="shard-0", kind="error", message="shard down"),
            FaultSpec(key="shard-1", kind="delay", delay_ms=STRAGGLER_MS, calls={"every": 2}),
        )
    )
    policy = ResiliencePolicy(
        retry=fast_retry(max_attempts=2),
        hedge_delay_ms=args.hedge_ms,
        breaker=BreakerPolicy(failure_threshold=2, cooldown_seconds=60.0),
        fault_plan=plan,
        max_workers=4,
    )
    service = make_resilient(repository, args.shards, args.threshold, policy)
    try:
        results = [service.match(schema) for schema in schemas]
        degraded = all(r.degraded and r.skipped_shards == (0,) for r in results)
        survivors = SchemaRepository(name="survivors")
        for tree_id, shard_id in enumerate(service.assignment):
            if shard_id != 0:
                survivors.add_tree(copy_tree(service.tree(tree_id)))
        restricted = MatchingService(survivors, element_threshold=args.threshold)
        survivors_exact = all(
            path_records(service, schema, result)
            == path_records(restricted, schema, restricted.match(schema))
            for schema, result in zip(schemas, results)
        )
        counters = service.counters.as_dict()
        breaker_states = service.stats()["breaker_states"]
    finally:
        service.close()
    return {
        "queries": len(schemas),
        "all_degraded": degraded,
        "skipped_shard": 0,
        "survivors_exact": survivors_exact,
        "hedges_launched": counters.get("hedges_launched", 0),
        "hedges_won": counters.get("hedges_won", 0),
        "breaker_states": breaker_states,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=800, help="target repository node count")
    parser.add_argument("--shards", type=int, default=3, help="shard count")
    parser.add_argument("--threshold", type=float, default=0.55, help="element similarity threshold")
    parser.add_argument("--latency-queries", type=int, default=40, dest="latency_queries",
                        help="queries per latency run (p99 sample size)")
    parser.add_argument("--hedge-ms", type=float, default=15.0, dest="hedge_ms",
                        help="hedge launch delay in milliseconds")
    parser.add_argument("--chaos-trials", type=int, default=200, dest="chaos_trials",
                        help="seeded fault-injection trials")
    parser.add_argument(
        "--max-hedged-p99-ratio",
        type=float,
        default=0.5,
        help="fail when hedged p99 exceeds this fraction of the unhedged p99 (0 disables)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON output path")
    args = parser.parse_args(argv)

    profile = RepositoryProfile(
        target_node_count=args.nodes, min_tree_size=10, max_tree_size=60, name="bench-resilience"
    )
    repository = RepositoryGenerator(profile).generate()
    schemas = [paper_personal_schema(), contact_personal_schema(), book_personal_schema()]

    reference = MatchingService(repository, element_threshold=args.threshold)
    references = [reference.match(schema) for schema in schemas]

    # Sanity anchor: resilient mode without faults is bit-identical.
    clean = make_resilient(
        repository,
        args.shards,
        args.threshold,
        ResiliencePolicy(retry=fast_retry(), hedge_delay_ms=args.hedge_ms, max_workers=4),
    )
    try:
        fault_free_identical = ranking_keys(
            [clean.match(schema) for schema in schemas]
        ) == ranking_keys(references)
    finally:
        clean.close()

    latency = measure_tail_latency(repository, args, schemas)
    chaos = run_chaos_trials(repository, args, schemas, references)
    failover = run_failover_acceptance(repository, args, schemas)

    p99_ratio = (
        latency["hedged_p99_seconds"] / latency["unhedged_p99_seconds"]
        if latency["unhedged_p99_seconds"] > 0
        else 0.0
    )
    report = {
        "benchmark": "resilience",
        **host_fields(),
        "repository": {"trees": repository.tree_count, "nodes": repository.node_count},
        "shards": args.shards,
        "threshold": args.threshold,
        "fault_free_identical": fault_free_identical,
        "tail_latency": latency,
        "hedged_p99_ratio": round(p99_ratio, 3),
        "chaos": chaos,
        "failover": failover,
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))

    if not fault_free_identical:
        print("FAIL: fault-free resilient mode diverged from the unsharded service", file=sys.stderr)
        return 1
    if args.max_hedged_p99_ratio > 0 and p99_ratio > args.max_hedged_p99_ratio:
        print(
            f"FAIL: hedged p99 is {p99_ratio:.2f}x the unhedged p99, above the "
            f"allowed {args.max_hedged_p99_ratio}x",
            file=sys.stderr,
        )
        return 1
    if latency["hedges_won"] <= 0:
        print("FAIL: hedging never beat the straggler", file=sys.stderr)
        return 1
    if chaos["non_marked_divergences"] != 0:
        print(
            f"FAIL: {chaos['non_marked_divergences']} chaos trial(s) returned a divergent "
            "result without marking it degraded/partial",
            file=sys.stderr,
        )
        return 1
    if not (failover["all_degraded"] and failover["survivors_exact"]):
        print("FAIL: degraded failover did not preserve the surviving shards' results", file=sys.stderr)
        return 1
    print(
        f"ok: hedging cut the straggler p99 to {p99_ratio:.2f}x of unhedged, "
        f"{chaos['trials']} chaos trials with zero non-marked divergences "
        f"({chaos['bit_identical']} bit-identical, {chaos['marked_divergent']} marked, "
        f"{chaos['loud_errors']} loud errors), failover degraded cleanly to the survivors"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
