#!/usr/bin/env python
"""Smoke benchmark: naive vs batch element matching.

Runs the element-matching stage over a generated repository of >= 500 trees
with both selector paths — the naive per-pair scan and the indexed batch
pipeline (name dedup + lossless length/trigram prefilter + pruned
Damerau–Levenshtein kernel) — verifies that the produced mapping-element sets
are identical, and writes the timings plus the batch path's prune/hit
counters to ``BENCH_element_matching.json`` so the perf trajectory is tracked
across PRs.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_element_matching.py

The workload replays several personal schemas and repeats every query
(matching the paper's repeated-query / heavy-traffic scenario, where the
batch path's cross-query memo pays off); the naive path keeps its own
pair-level cache, so the comparison is against the seed's best configuration,
not a strawman.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.matchers.name import FuzzyNameMatcher
from repro.matchers.selection import MappingElementSelector
from repro.utils.counters import CounterSet
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import (
    book_personal_schema,
    contact_personal_schema,
    paper_personal_schema,
    publication_personal_schema,
    purchase_personal_schema,
)

from _host import host_fields

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_element_matching.json"


def snapshot(sets):
    return {
        node_id: [(e.ref.global_id, e.similarity) for e in sets.elements_for(node_id)]
        for node_id in sets.personal_node_ids
    }


def run_path(repository, schemas, threshold, use_batch, repeats):
    """One timed sweep: fresh matcher, every schema, ``repeats`` rounds."""
    matcher = FuzzyNameMatcher()
    selector = MappingElementSelector(matcher, threshold=threshold, use_batch=use_batch)
    counters = CounterSet()
    results = []
    started = time.perf_counter()
    for _ in range(repeats):
        results = [selector.select(schema, repository, counters=counters) for schema in schemas]
    elapsed = time.perf_counter() - started
    return elapsed, results, counters


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=10_000, help="target repository node count")
    parser.add_argument("--min-tree-size", type=int, default=12)
    parser.add_argument("--max-tree-size", type=int, default=20)
    parser.add_argument("--threshold", type=float, default=0.6, help="element similarity threshold")
    parser.add_argument("--repeats", type=int, default=3, help="rounds per path (repeated-query scenario)")
    parser.add_argument("--min-speedup", type=float, default=3.0, help="fail below this batch speedup (0 disables)")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON output path")
    args = parser.parse_args(argv)

    profile = RepositoryProfile(
        target_node_count=args.nodes,
        min_tree_size=args.min_tree_size,
        max_tree_size=args.max_tree_size,
        name="bench-element-matching",
    )
    repository = RepositoryGenerator(profile).generate()
    if repository.tree_count < 500:
        print(f"warning: repository has only {repository.tree_count} trees (< 500)", file=sys.stderr)
    schemas = [
        paper_personal_schema(),
        contact_personal_schema(),
        book_personal_schema(),
        publication_personal_schema(),
        purchase_personal_schema(),
    ]

    naive_seconds, naive_results, _ = run_path(
        repository, schemas, args.threshold, use_batch=False, repeats=args.repeats
    )
    batch_seconds, batch_results, batch_counters = run_path(
        repository, schemas, args.threshold, use_batch=True, repeats=args.repeats
    )

    identical = all(
        snapshot(naive) == snapshot(batch)
        for naive, batch in zip(naive_results, batch_results)
    )
    speedup = naive_seconds / batch_seconds if batch_seconds > 0 else float("inf")

    report = {
        "benchmark": "element_matching",
        **host_fields(),
        "repository": {
            "trees": repository.tree_count,
            "nodes": repository.node_count,
            "unique_names": repository.name_index().unique_name_count,
        },
        "threshold": args.threshold,
        "personal_schemas": len(schemas),
        "repeats": args.repeats,
        "naive_seconds": round(naive_seconds, 6),
        "batch_seconds": round(batch_seconds, 6),
        "speedup": round(speedup, 3),
        "outputs_identical": identical,
        "batch_counters": batch_counters.as_dict(),
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))

    if not identical:
        print("FAIL: batch and naive mapping-element sets differ", file=sys.stderr)
        return 1
    if args.min_speedup > 0 and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x below required {args.min_speedup}x", file=sys.stderr)
        return 1
    print(f"ok: batch path {speedup:.1f}x faster, outputs identical")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
