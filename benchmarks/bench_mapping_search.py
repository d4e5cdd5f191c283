#!/usr/bin/env python
"""Mapping-search benchmark: top-k incumbent pruning and executor backends.

Exercises the unified search core (:mod:`repro.mapping.engine`) on a
multi-cluster workload (one cluster per repository tree — the non-clustered
baseline, which maximizes the number of independent per-cluster searches):

``complete search``
    The classic "every mapping with ``Δ >= δ``" semantics, timed under the
    serial, thread-pool and process-pool executors.  All three must produce
    bit-identical rankings *and counters* (hard gate).

``top-k search``
    The same query with ``top_k`` set: the per-cluster searches share a
    :class:`~repro.mapping.engine.TopKPool` incumbent, so mappings found in
    one cluster raise the pruning floor for all others.  Gates: the top-k
    ranking must equal the first k entries of the complete ranking (hard),
    the search must create measurably fewer partial mappings (the paper's
    machine-independent efficiency indicator; ``--min-partial-reduction``)
    with the ``incumbent_pruned_partial_mappings`` counter strictly positive,
    and it must be faster in wall-clock terms (``--min-topk-speedup``).

``process executor``
    Complete-search wall clock under :class:`~repro.utils.executor.ProcessPoolTaskExecutor`
    vs the serial baseline, in two flavours: plain (every task unpickles its
    payload, oracle included) and frozen (the repository is frozen to a
    temporary snapshot and served from it, so each task's oracle pickles to a
    path and workers reopen the mapped file once).  ``--min-process-speedup``
    gates the frozen flavour — the gate is skipped (and recorded as such)
    when the process may run on one CPU only, where a process pool cannot win
    by construction.  Both flavours must stay bit-identical to serial,
    counters included.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_mapping_search.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service import MatchingService, load_snapshot
from repro.storage import freeze_service
from repro.system.bellflower import Bellflower
from repro.utils.executor import (
    ProcessPoolTaskExecutor,
    ThreadPoolTaskExecutor,
    available_cpu_count,
)
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


def _fail(message: str) -> int:
    print(f"FAIL: {message}", file=sys.stderr)
    return 1


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
    parser.add_argument("--workers", type=int, default=None, help="pool size (default: cpu count)")
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
    parser.add_argument(
        "--min-process-speedup",
        type=float,
        default=1.0,
        help="fail when the frozen-snapshot process executor does not beat serial by this factor (0 disables; auto-skipped when only one CPU is usable)",
    )
    parser.add_argument(
        "--tasks-per-worker",
        type=int,
        default=1,
        dest="tasks_per_worker",
        help="cluster-chunking knob forwarded to ProcessPoolTaskExecutor",
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
    # Hold the element stage constant across every regime: the benchmark
    # isolates mapping *generation*.
    candidates = {name: serial_system.element_matching(schema) for name, schema in schemas.items()}

    report: dict = {
        "nodes": repository.node_count,
        "trees": repository.tree_count,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": available_cpu_count(),
        "delta": args.delta,
        "element_threshold": args.threshold,
        "top_k": args.top_k,
        "tasks_per_worker": args.tasks_per_worker,
        "queries": {},
        "gates": {},
    }
    failures = []
    outputs_identical = True

    process_pool = ProcessPoolTaskExecutor(args.workers, tasks_per_worker=args.tasks_per_worker)
    frozen_pool = ProcessPoolTaskExecutor(args.workers, tasks_per_worker=args.tasks_per_worker)
    thread_pool = ThreadPoolTaskExecutor(args.workers)
    process_system = Bellflower(
        repository, element_threshold=args.threshold, delta=args.delta, executor=process_pool
    )
    thread_system = Bellflower(
        repository, element_threshold=args.threshold, delta=args.delta, executor=thread_pool
    )
    # The same repository frozen and served from the file; the "tree"
    # variant is the Bellflower default clusterer the other regimes run.
    scratch = tempfile.TemporaryDirectory(prefix="bench-mapping-search-")
    snapshot_path = Path(scratch.name) / "repository.frozen"
    freeze_service(
        MatchingService(
            repository,
            variant="tree",
            element_threshold=args.threshold,
            delta=args.delta,
            query_cache_size=0,
        ),
        snapshot_path,
    )
    frozen_system = load_snapshot(snapshot_path, executor=frozen_pool).system
    # Warm the pools once so fork/thread start-up is not billed to the timings.
    process_pool.map(len, [(), ()])
    frozen_pool.map(len, [(), ()])
    thread_pool.map(len, [(), ()])
    first_name = next(iter(schemas))
    frozen_system.match(schemas[first_name], candidates=candidates[first_name])  # warm the reopen cache

    try:
        for name, schema in schemas.items():
            table = candidates[name]

            complete_seconds, complete = _best_of(
                args.rounds, lambda: serial_system.match(schema, candidates=table)
            )
            topk_seconds, topk = _best_of(
                args.rounds, lambda: serial_system.match(schema, candidates=table, top_k=args.top_k)
            )
            thread_seconds, threaded = _best_of(
                args.rounds, lambda: thread_system.match(schema, candidates=table)
            )
            process_seconds, processed = _best_of(
                args.rounds, lambda: process_system.match(schema, candidates=table)
            )
            frozen_seconds, frozen = _best_of(
                args.rounds, lambda: frozen_system.match(schema, candidates=table)
            )
            frozen_workers = frozen_pool.last_workers_used
            frozen_chunk_sizes = list(frozen_pool.last_chunk_sizes)

            # -- hard identity gates -------------------------------------------
            if topk.ranking_key() != complete.ranking_key()[: args.top_k]:
                failures.append(f"{name}: top-{args.top_k} ranking is not a prefix of the complete ranking")
            for backend_name, backend_result in (
                ("thread", threaded),
                ("process", processed),
                ("process+frozen", frozen),
            ):
                if backend_result.ranking_key() != complete.ranking_key():
                    failures.append(f"{name}: {backend_name} executor ranking differs from serial")
                    outputs_identical = False
                if (
                    backend_result.generation.counters.as_dict()
                    != complete.generation.counters.as_dict()
                ):
                    failures.append(f"{name}: {backend_name} executor counters differ from serial")
                    outputs_identical = False

            query_report = {
                "useful_clusters": complete.useful_cluster_count,
                "search_space": complete.search_space,
                "mappings_complete": complete.mapping_count,
                "complete_generation_seconds": round(complete_seconds, 6),
                "topk_generation_seconds": round(topk_seconds, 6),
                "thread_generation_seconds": round(thread_seconds, 6),
                "process_generation_seconds": round(process_seconds, 6),
                "frozen_generation_seconds": round(frozen_seconds, 6),
                "topk_speedup": round(complete_seconds / topk_seconds, 3),
                "process_speedup": round(complete_seconds / process_seconds, 3),
                "frozen_process_speedup": round(complete_seconds / frozen_seconds, 3),
                "thread_speedup": round(complete_seconds / thread_seconds, 3),
                "process_workers": frozen_workers,
                "process_chunk_sizes": frozen_chunk_sizes,
                "partial_reduction": round(
                    complete.partial_mappings / max(1, topk.partial_mappings), 3
                ),
                "counters_complete": {
                    key: complete.counters.get(key) for key in COUNTERS_OF_INTEREST
                },
                "counters_topk": {key: topk.counters.get(key) for key in COUNTERS_OF_INTEREST},
            }
            report["queries"][name] = query_report

            # -- pruning gates --------------------------------------------------
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

            # -- process-executor gate (frozen flavour) -------------------------
            if args.min_process_speedup and available_cpu_count() < 2:
                report["gates"][f"{name}_process_speedup"] = "skipped (one usable CPU)"
            elif args.min_process_speedup:
                report["gates"][f"{name}_process_speedup"] = query_report["frozen_process_speedup"]
                if query_report["frozen_process_speedup"] < args.min_process_speedup:
                    failures.append(
                        f"{name}: frozen-snapshot process-executor speedup "
                        f"{query_report['frozen_process_speedup']}x "
                        f"< required {args.min_process_speedup}x"
                    )
    finally:
        process_pool.close()
        frozen_pool.close()
        thread_pool.close()
        scratch.cleanup()

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
