#!/usr/bin/env python
"""Storage scaling benchmark: frozen cold-open stays flat, queries sublinear.

Generates repositories of increasing tree count (10k → 100k trees ≈ 100k → 1M
nodes at paper scale), freezes each one, and gates the two claims the frozen
storage subsystem makes:

``cold-open is O(1)``
    Opening a frozen snapshot maps segments instead of parsing them, so the
    first-open latency must stay flat while the repository grows 10x — gated
    by both an absolute ceiling (``--max-open-seconds``, default 100ms) and a
    growth ratio (``--max-open-growth``).

``candidate queries are sublinear``
    The candidate scan visits the repository's unique names, not its nodes,
    and the vocabulary grows far more slowly than the forest, so the
    per-query candidate-generation latency across the same 10x growth must
    rise by at most ``--max-query-growth-fraction`` of the size ratio.  At
    ``--threshold`` 0.92 (the default) both the length and the trigram bound
    prune; ``unique_names`` records the vocabulary at each scale.

``candidate identity`` (hard gate)
    At every scale the frozen index must return exactly the survivor sets
    and pruned-pair counts of an in-memory index over the same repository.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_storage_scaling.py
    PYTHONPATH=src python benchmarks/bench_storage_scaling.py --tree-scales 2000,20000
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.matchers.index import RepositoryNameIndex
from repro.service import MatchingService, load_snapshot, write_snapshot
from repro.workload.generator import RepositoryGenerator, RepositoryProfile

from _host import host_fields

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_storage_scaling.json"

#: Candidate-generation probes: realistic schema-element names (long enough
#: for the trigram bound to prune at high thresholds) plus near-misses.
QUERIES = [
    "customernumber",
    "shippingaddress",
    "departmentname",
    "telephonenumber",
    "organizationunit",
    "deliverydate",
    "accountbalance",
    "publicationyear",
    "contactperson",
    "referencecode",
]


def build_frozen(trees: int, workdir: Path):
    """Generate ``trees`` small trees, freeze them, return (repo, path, timings)."""
    profile = RepositoryProfile(
        target_node_count=trees * 10,
        min_tree_size=6,
        max_tree_size=14,
        name=f"storage-scale-{trees}",
    )
    started = time.perf_counter()
    repository = RepositoryGenerator(profile).generate()
    generate_seconds = time.perf_counter() - started

    service = MatchingService(repository)
    target = workdir / f"scale-{trees}.frozen"
    started = time.perf_counter()
    write_snapshot(service, target)
    freeze_seconds = time.perf_counter() - started
    return repository, target, generate_seconds, freeze_seconds


def measure_open(path: Path, rounds: int) -> tuple[float, float]:
    """(first-open seconds, best reopen seconds) for one frozen snapshot.

    Every round maps and validates the file from scratch; the gates read the
    first round only.
    """
    timings = []
    for _ in range(max(rounds, 1)):
        started = time.perf_counter()
        load_snapshot(path)
        timings.append(time.perf_counter() - started)
    return timings[0], min(timings)


def measure_queries(index, threshold: float, rounds: int) -> tuple[float, int]:
    """Best-of-rounds seconds for one pass of all probes, plus survivor total."""
    survivors_total = 0
    best = float("inf")
    for round_number in range(max(rounds, 1)):
        started = time.perf_counter()
        survivors_total = 0
        for query in QUERIES:
            survivors, _ = index.fuzzy_candidates(query, threshold)
            survivors_total += len(survivors)
        best = min(best, time.perf_counter() - started)
    return best, survivors_total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tree-scales",
        type=str,
        default="10000,100000",
        help="comma-separated repository sizes in trees, ascending (~10 nodes per tree)",
    )
    parser.add_argument("--threshold", type=float, default=0.92, help="candidate query threshold")
    parser.add_argument("--rounds", type=int, default=5, help="timing rounds (best-of)")
    parser.add_argument(
        "--max-open-seconds",
        type=float,
        default=0.1,
        help="fail when the largest scale's first frozen open exceeds this (0 disables)",
    )
    parser.add_argument(
        "--max-open-growth",
        type=float,
        default=5.0,
        help="fail when first-open latency grows more than this across the scales (0 disables)",
    )
    parser.add_argument(
        "--max-query-growth-fraction",
        type=float,
        default=0.5,
        help="fail when query latency growth exceeds this fraction of the size growth (0 disables)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON output path")
    parser.add_argument(
        "--workdir", type=Path, default=None, help="scratch dir for frozen files (default: temp dir)"
    )
    args = parser.parse_args(argv)

    scales = sorted(int(token) for token in args.tree_scales.split(",") if token.strip())
    if len(scales) < 2:
        print("FAIL: need at least two --tree-scales to measure growth", file=sys.stderr)
        return 2

    with contextlib.ExitStack() as stack:
        if args.workdir is None:
            workdir = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="bench_storage_")))
        else:
            workdir = args.workdir
            workdir.mkdir(parents=True, exist_ok=True)
        return _run(args, scales, workdir)


def _run(args, scales, workdir: Path) -> int:
    rows = []
    diverging_scales = []
    for trees in scales:
        repository, path, generate_seconds, freeze_seconds = build_frozen(trees, workdir)
        first_open, best_open = measure_open(path, args.rounds)
        service = load_snapshot(path)
        index = service.repository.name_index()
        query_seconds, survivors_total = measure_queries(index, args.threshold, args.rounds)

        row = {
            "trees": repository.tree_count,
            "nodes": repository.node_count,
            "frozen_bytes": path.stat().st_size,
            "generate_seconds": round(generate_seconds, 3),
            "freeze_seconds": round(freeze_seconds, 3),
            "first_open_seconds": round(first_open, 6),
            "best_open_seconds": round(best_open, 6),
            "query_pass_seconds": round(query_seconds, 6),
            "survivors_total": survivors_total,
            "unique_names": len(index.keys),
        }

        # Identity: the frozen index vs an in-memory index over the same
        # repository (shared name-id numbering).
        memory = RepositoryNameIndex(repository)
        for query in QUERIES:
            frozen_survivors, frozen_pruned = index.fuzzy_candidates(query, args.threshold)
            memory_survivors, memory_pruned = memory.fuzzy_candidates(query, args.threshold)
            if (
                sorted(frozen_survivors) != sorted(memory_survivors)
                or frozen_pruned != memory_pruned
            ):
                diverging_scales.append(row["nodes"])
                break

        rows.append(row)
        print(json.dumps(row, sort_keys=True), flush=True)

    size_growth = rows[-1]["nodes"] / rows[0]["nodes"]
    open_growth = (
        rows[-1]["first_open_seconds"] / rows[0]["first_open_seconds"]
        if rows[0]["first_open_seconds"] > 0
        else float("inf")
    )
    query_growth = (
        rows[-1]["query_pass_seconds"] / rows[0]["query_pass_seconds"]
        if rows[0]["query_pass_seconds"] > 0
        else float("inf")
    )

    report = {
        "benchmark": "storage_scaling",
        **host_fields(),
        "threshold": args.threshold,
        "rounds": args.rounds,
        "queries": len(QUERIES),
        "scales": rows,
        "size_growth": round(size_growth, 3),
        "open_growth": round(open_growth, 3),
        "query_growth": round(query_growth, 3),
        "query_growth_fraction_of_size": round(query_growth / size_growth, 4),
        "candidates_identical": not diverging_scales,
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))

    if diverging_scales:
        print(
            "FAIL: frozen candidates diverge from the in-memory index at "
            f"{diverging_scales} nodes",
            file=sys.stderr,
        )
        return 1
    if args.max_open_seconds > 0 and rows[-1]["first_open_seconds"] > args.max_open_seconds:
        print(
            f"FAIL: first open at {rows[-1]['nodes']} nodes took "
            f"{rows[-1]['first_open_seconds'] * 1000:.1f}ms "
            f"(> {args.max_open_seconds * 1000:.0f}ms)",
            file=sys.stderr,
        )
        return 1
    if args.max_open_growth > 0 and open_growth > args.max_open_growth:
        print(
            f"FAIL: first-open latency grew {open_growth:.2f}x over a "
            f"{size_growth:.0f}x size growth (limit {args.max_open_growth}x)",
            file=sys.stderr,
        )
        return 1
    if (
        args.max_query_growth_fraction > 0
        and query_growth > args.max_query_growth_fraction * size_growth
    ):
        print(
            f"FAIL: query latency grew {query_growth:.2f}x over a {size_growth:.0f}x "
            f"size growth (limit {args.max_query_growth_fraction:.2f} of size growth)",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: cold open flat ({open_growth:.2f}x over {size_growth:.0f}x growth, "
        f"{rows[-1]['first_open_seconds'] * 1000:.2f}ms at {rows[-1]['nodes']} nodes), "
        f"queries sublinear ({query_growth:.2f}x), candidates identical at every scale"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
