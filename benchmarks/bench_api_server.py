#!/usr/bin/env python
"""API benchmark: envelope overhead, unsharded batch speedup, server throughput.

Exercises the :mod:`repro.api` layer over one generated repository and gates
three claims:

``typed results identical`` (hard gate)
    For every workload schema, the ranking served through the typed
    ``MatchRequest`` path is bit-identical to the legacy
    ``match(tree, delta=..., top_k=...)`` path.

``envelope overhead`` (``--max-envelope-overhead``)
    The typed in-process path — ``service.match(MatchRequest)``: option
    validation, typed dispatch, query, response encode (``MatchResponse``)
    — may cost at most this fraction over the legacy in-process path
    (``service.match(tree, ...)``) on the same queries (default 5%).  Both
    paths hold their request objects across calls, as an in-process caller
    does; JSON/wire parsing of v1 request lines is *transport* cost, outside
    both paths, and is measured separately by the server section.  Measured
    with the query cache disabled so both paths do full search work, over
    ``--rounds`` back-to-back pairs whose order alternates (legacy first in
    even pairs, typed first in odd ones), and gated on the median of the
    per-pair ``typed/legacy - 1``: neither path always runs second, and a
    one-off scheduler blip moves one pair, not the verdict.

``unsharded batch speedup`` (``--min-batch-speedup``)
    ``match_many`` on the *unsharded* service — the fingerprint dedup +
    batching front-end this PR promoted down from the shard layer — must
    beat the same duplicate-heavy workload replayed query-by-query.  The
    win is deterministic dedup arithmetic (duplicates collapse to one
    search), so it holds on single-core runners too.

The asyncio TCP server is also exercised end to end (concurrent clients over
a socket, v1 envelopes) and reported as requests/second; that number is
report-only because socket throughput on shared runners is pure noise.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_api_server.py
"""

from __future__ import annotations

import argparse
import asyncio
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api.envelope import MatchRequest
from repro.api.server import MatcherServer
from repro.service import MatchingService
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import (
    book_personal_schema,
    contact_personal_schema,
    paper_personal_schema,
    publication_personal_schema,
    purchase_personal_schema,
)

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_api_server.json"


def distinct_schemas():
    return [
        paper_personal_schema(),
        contact_personal_schema(),
        book_personal_schema(),
        publication_personal_schema(),
        purchase_personal_schema(),
    ]


def bench_envelope_overhead(repository, schemas, args):
    """Median per-pair typed/legacy overhead over order-alternating full-work pairs."""
    service = MatchingService(
        repository,
        element_threshold=args.threshold,
        delta=args.delta,
        query_cache_size=0,  # both paths must do full element matching
    )
    service.build_derived_state()
    requests = [
        MatchRequest.from_wire(
            MatchRequest.from_schema(schema, delta=args.delta, top_k=args.top_k).to_wire()
        )
        for schema in schemas
    ]
    # Identity gate (and warm-up): the typed path must reproduce the legacy
    # rankings, down from the wire form.
    legacy_results = [
        service.match(schema, delta=args.delta, top_k=args.top_k) for schema in schemas
    ]
    typed_responses = [service.match(request) for request in requests]
    identical = all(
        [record.score for record in response.mappings]
        == [mapping.score for mapping in result.mappings]
        and response.mapping_count == len(result.mappings)
        for response, result in zip(typed_responses, legacy_results)
    )

    def run_legacy():
        start = time.perf_counter()
        for schema in schemas:
            service.match(schema, delta=args.delta, top_k=args.top_k)
        return time.perf_counter() - start

    def run_typed():
        start = time.perf_counter()
        for request in requests:
            service.match(request)
        return time.perf_counter() - start

    legacy_times, typed_times, overheads = [], [], []
    for pair in range(args.rounds):
        if pair % 2:
            typed_s = run_typed()
            legacy_s = run_legacy()
        else:
            legacy_s = run_legacy()
            typed_s = run_typed()
        legacy_times.append(legacy_s)
        typed_times.append(typed_s)
        overheads.append(typed_s / legacy_s - 1.0)
    return {
        "identical": identical,
        "pairs": args.rounds,
        "legacy_seconds": round(statistics.median(legacy_times), 4),
        "typed_seconds": round(statistics.median(typed_times), 4),
        "overhead_fraction": round(statistics.median(overheads), 4),
        "overhead_quartiles": [
            round(value, 4) for value in statistics.quantiles(overheads, n=4)
        ],
    }


def bench_batch_speedup(repository, schemas, args):
    """Duplicate-heavy workload: per-query loop vs promoted ``match_many``."""
    service = MatchingService(
        repository, element_threshold=args.threshold, delta=args.delta
    )
    service.build_derived_state()
    workload = [
        schemas[index % len(schemas)]
        for index in range(len(schemas) * args.batch_repeat)
    ]

    start = time.perf_counter()
    loop_results = [
        service.match(schema, delta=args.delta, top_k=args.top_k) for schema in workload
    ]
    loop_s = time.perf_counter() - start

    start = time.perf_counter()
    batch_results = service.match_many(workload, delta=args.delta, top_k=args.top_k)
    batch_s = time.perf_counter() - start

    identical = [result.ranking_key() for result in loop_results] == [
        result.ranking_key() for result in batch_results
    ]
    return {
        "identical": identical,
        "queries": len(workload),
        "distinct": len(schemas),
        "loop_seconds": round(loop_s, 4),
        "batch_seconds": round(batch_s, 4),
        "speedup": round(loop_s / batch_s, 2) if batch_s else float("inf"),
        "duplicate_queries": service.counters.get("duplicate_queries"),
    }


def bench_server_throughput(repository, schemas, args):
    """End-to-end socket round trips (report-only)."""
    service = MatchingService(
        repository, element_threshold=args.threshold, delta=args.delta
    )
    service.build_derived_state()
    payloads = [
        json.dumps(
            MatchRequest.from_schema(schema, delta=args.delta, top_k=args.top_k).to_wire()
        )
        for schema in schemas
    ]

    async def client(port, count):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        await reader.readline()  # ready
        answered = 0
        for index in range(count):
            writer.write((payloads[index % len(payloads)] + "\n").encode())
            await writer.drain()
            response = json.loads(await reader.readline())
            assert response.get("kind") == "match_response", response
            answered += 1
        writer.close()
        await writer.wait_closed()
        return answered

    async def main():
        server = MatcherServer(service, port=0, max_in_flight=args.clients)
        await server.start()
        start = time.perf_counter()
        try:
            answered = await asyncio.gather(
                *[client(server.port, args.requests_per_client) for _ in range(args.clients)]
            )
        finally:
            await server.stop()
        return sum(answered), time.perf_counter() - start

    answered, elapsed = asyncio.run(main())
    return {
        "clients": args.clients,
        "requests": answered,
        "seconds": round(elapsed, 4),
        "requests_per_second": round(answered / elapsed, 1) if elapsed else float("inf"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=6_000, help="target repository node count")
    parser.add_argument("--threshold", type=float, default=0.55, help="element similarity threshold")
    parser.add_argument("--delta", type=float, default=0.6, help="objective threshold")
    parser.add_argument("--top-k", type=int, default=5, dest="top_k", help="search bound for every query")
    parser.add_argument(
        "--rounds", type=int, default=101,
        help="order-alternating legacy/typed pairs for the overhead median (at least 2)",
    )
    parser.add_argument("--batch-repeat", type=int, default=6, help="how often each distinct query repeats in the batch workload")
    parser.add_argument("--clients", type=int, default=4, help="concurrent TCP clients for the server section")
    parser.add_argument("--requests-per-client", type=int, default=5, dest="requests_per_client")
    parser.add_argument("--seed", type=int, default=20060403)
    parser.add_argument(
        "--max-envelope-overhead", type=float, default=0.05, dest="max_envelope_overhead",
        help="gate: typed-path overhead fraction over the legacy path (default 0.05 = 5%%)",
    )
    parser.add_argument(
        "--min-batch-speedup", type=float, default=2.0, dest="min_batch_speedup",
        help="gate: unsharded match_many speedup over the per-query loop (default 2.0)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="benchmark JSON output path")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds needs at least 2 pairs")

    profile = RepositoryProfile(
        target_node_count=args.nodes, seed=args.seed, name=f"bench-api-{args.nodes}"
    )
    repository = RepositoryGenerator(profile).generate()
    schemas = distinct_schemas()
    print(f"repository: {repository.tree_count} trees, {repository.node_count} nodes")

    overhead = bench_envelope_overhead(repository, schemas, args)
    print(
        f"envelope overhead: legacy {overhead['legacy_seconds']}s, typed {overhead['typed_seconds']}s "
        f"({overhead['overhead_fraction']:+.2%}), identical={overhead['identical']}"
    )
    batch = bench_batch_speedup(repository, schemas, args)
    print(
        f"unsharded batch: loop {batch['loop_seconds']}s, match_many {batch['batch_seconds']}s "
        f"({batch['speedup']}x over {batch['queries']} queries / {batch['distinct']} distinct), "
        f"identical={batch['identical']}"
    )
    server = bench_server_throughput(repository, schemas, args)
    print(
        f"asyncio server: {server['requests']} requests over {server['clients']} clients "
        f"in {server['seconds']}s ({server['requests_per_second']} req/s, report-only)"
    )

    failures = []
    if not overhead["identical"]:
        failures.append("typed-path results differ from the legacy path")
    if not batch["identical"]:
        failures.append("match_many results differ from the per-query loop")
    if overhead["overhead_fraction"] > args.max_envelope_overhead:
        failures.append(
            f"envelope overhead {overhead['overhead_fraction']:.2%} exceeds "
            f"{args.max_envelope_overhead:.2%}"
        )
    if batch["speedup"] < args.min_batch_speedup:
        failures.append(
            f"batch speedup {batch['speedup']}x below the {args.min_batch_speedup}x floor"
        )

    payload = {
        "benchmark": "api_server",
        "config": {
            "nodes": repository.node_count,
            "trees": repository.tree_count,
            "threshold": args.threshold,
            "delta": args.delta,
            "top_k": args.top_k,
            "rounds": args.rounds,
            "batch_repeat": args.batch_repeat,
            "seed": args.seed,
        },
        "envelope_overhead": overhead,
        "batch": batch,
        "server": server,
        "gates": {
            "max_envelope_overhead": args.max_envelope_overhead,
            "min_batch_speedup": args.min_batch_speedup,
            "failures": failures,
        },
    }
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    if failures:
        for failure in failures:
            print(f"GATE FAILED: {failure}", file=sys.stderr)
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
