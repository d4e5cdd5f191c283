#!/usr/bin/env python
"""Mapping-search benchmark: top-k incumbent pruning against the complete search.

Exercises the unified search core (:mod:`repro.mapping.engine`) on a
multi-cluster workload (one cluster per repository tree — the non-clustered
baseline, which maximizes the number of independent per-cluster searches):

``complete search``
    The classic "every mapping with ``Δ >= δ``" semantics.

``top-k search``
    The same query with ``top_k`` set: the per-cluster searches share a
    :class:`~repro.mapping.engine.TopKPool` incumbent, so mappings found in
    one cluster raise the pruning floor for all others.  Gates: the top-k
    ranking must equal the first k entries of the complete ranking (hard),
    the search must create measurably fewer partial mappings (the paper's
    machine-independent efficiency indicator; ``--min-partial-reduction``)
    with the ``incumbent_pruned_partial_mappings`` counter strictly positive,
    and it must be faster in wall-clock terms (``--min-topk-speedup``).

Both searches run serially.  The report records ``cpu_count`` and the CPU
affinity set's size beside the timings.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_mapping_search.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.system.bellflower import Bellflower
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import contact_personal_schema, paper_personal_schema

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_mapping_search.json"

COUNTERS_OF_INTEREST = (
    "partial_mappings",
    "pruned_partial_mappings",
    "incumbent_pruned_partial_mappings",
    "bound_evaluations",
    "evaluated_mappings",
)


def _best_of(rounds: int, run) -> tuple[float, object]:
    """Best wall-clock of ``rounds`` runs; returns (seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(rounds):
        started = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - started)
    return best, result


def _cpu_affinity() -> int:
    """CPUs this process may run on (the affinity set where the OS reports one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=12_000, help="target repository node count")
    parser.add_argument("--min-tree-size", type=int, default=30)
    parser.add_argument("--max-tree-size", type=int, default=150)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--threshold", type=float, default=0.42, help="element similarity threshold")
    parser.add_argument("--delta", type=float, default=0.55, help="objective threshold δ")
    parser.add_argument("--top-k", type=int, default=5, dest="top_k", help="k for the top-k regime")
    parser.add_argument("--rounds", type=int, default=3, help="timing rounds (best-of)")
    parser.add_argument(
        "--min-partial-reduction",
        type=float,
        default=1.2,
        help="fail when the complete search does not create this many times more partial mappings than top-k (0 disables)",
    )
    parser.add_argument(
        "--min-topk-speedup",
        type=float,
        default=1.2,
        help="fail when the top-k search is not this many times faster than the complete one (0 disables)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON output path")
    args = parser.parse_args(argv)

    profile = RepositoryProfile(
        target_node_count=args.nodes,
        min_tree_size=args.min_tree_size,
        max_tree_size=args.max_tree_size,
        seed=args.seed,
        name="bench-mapping-search",
    )
    repository = RepositoryGenerator(profile).generate()
    schemas = {"paper": paper_personal_schema(), "contact": contact_personal_schema()}

    serial_system = Bellflower(repository, element_threshold=args.threshold, delta=args.delta)
    # Hold the element stage constant across both searches: the benchmark
    # isolates mapping *generation*.
    candidates = {name: serial_system.element_matching(schema) for name, schema in schemas.items()}

    report: dict = {
        "nodes": repository.node_count,
        "trees": repository.tree_count,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": _cpu_affinity(),
        "delta": args.delta,
        "element_threshold": args.threshold,
        "top_k": args.top_k,
        "queries": {},
    }
    failures = []
    outputs_identical = True

    for name, schema in schemas.items():
        table = candidates[name]

        complete_seconds, complete = _best_of(
            args.rounds, lambda: serial_system.match(schema, candidates=table)
        )
        topk_seconds, topk = _best_of(
            args.rounds, lambda: serial_system.match(schema, candidates=table, top_k=args.top_k)
        )

        # -- hard identity gate ---------------------------------------------
        if topk.ranking_key() != complete.ranking_key()[: args.top_k]:
            failures.append(f"{name}: top-{args.top_k} ranking is not a prefix of the complete ranking")
            outputs_identical = False

        query_report = {
            "useful_clusters": complete.useful_cluster_count,
            "search_space": complete.search_space,
            "mappings_complete": complete.mapping_count,
            "complete_generation_seconds": round(complete_seconds, 6),
            "topk_generation_seconds": round(topk_seconds, 6),
            "topk_speedup": round(complete_seconds / topk_seconds, 3),
            "partial_reduction": round(
                complete.partial_mappings / max(1, topk.partial_mappings), 3
            ),
            "counters_complete": {
                key: complete.counters.get(key) for key in COUNTERS_OF_INTEREST
            },
            "counters_topk": {key: topk.counters.get(key) for key in COUNTERS_OF_INTEREST},
        }
        report["queries"][name] = query_report

        # -- pruning gates ----------------------------------------------------
        if topk.counters.get("incumbent_pruned_partial_mappings") <= 0:
            failures.append(f"{name}: shared incumbent never pruned a partial mapping")
        if args.min_partial_reduction and query_report["partial_reduction"] < args.min_partial_reduction:
            failures.append(
                f"{name}: partial-mapping reduction {query_report['partial_reduction']}x "
                f"< required {args.min_partial_reduction}x"
            )
        if args.min_topk_speedup and query_report["topk_speedup"] < args.min_topk_speedup:
            failures.append(
                f"{name}: top-k wall-clock speedup {query_report['topk_speedup']}x "
                f"< required {args.min_topk_speedup}x"
            )

    report["outputs_identical"] = outputs_identical
    report["ok"] = not failures
    args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(report, indent=2))
    print(f"wrote {args.out}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
