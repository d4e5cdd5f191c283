#!/usr/bin/env python
"""Ingestion benchmark: byte-identity, resume-identity, replay bit-identity.

End-to-end gates over the ``repro.ingest`` pipeline and the trace replayer
(ISSUE 10's acceptance criteria):

``byte identity`` (hard gate)
    Ingesting the bundled corpus plus a deterministic synthetic directory
    source twice, into two fresh run directories, must produce byte-identical
    frozen snapshots.

``resume identity`` (hard gate)
    A third run killed at the dedupe stage boundary and resumed must produce
    the same bytes as the uninterrupted runs.

``replay bit identity`` (hard gate)
    A Zipf-skewed synthetic query trace replayed against the ingested
    snapshot (unsharded) and against a 3-shard split of the same forest must
    report identical per-query ranking digests.

``dedup speedup`` (gated by ``--min-dedup-speedup``)
    Replaying the skewed trace through ``match_many`` (fingerprint dedup in
    each batch, the result cache across rounds) must beat a query-by-query
    ``match`` replay on a cache-off twin (``query_cache_size=0``, same
    snapshot) by at least the configured factor.  The baseline computes
    every query, so the ratio is the work that reuse saves.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_ingest.py
    PYTHONPATH=src python benchmarks/bench_ingest.py --trace-length 120 --rounds 5
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.ingest import BundledCorpusSource, DirectorySource, IngestConfig, IngestPipeline
from repro.shard import ShardedMatchingService
from repro.service import load_snapshot
from repro.utils.rng import SeededRandom
from repro.workload.trace import replay_trace, synthesize_zipf_trace
from repro.workload.vocabulary import DOMAINS

from _host import host_fields

DEFAULT_OUT = Path(__file__).resolve().parent.parent / "BENCH_ingest.json"


def build_synthetic_corpus(directory: Path, seed: int) -> None:
    """A deterministic directory source: one DTD per domain plus edge cases.

    Pure function of ``seed`` — the byte-identity gate depends on two
    invocations writing the same files.
    """
    directory.mkdir(parents=True, exist_ok=True)
    base = SeededRandom(seed)
    for domain in DOMAINS:
        rng = base.spawn("bench-corpus", domain.name)
        root = rng.choice(list(domain.roots))
        container = rng.choice(list(domain.containers))
        leaves = rng.sample(list(domain.leaves), k=min(4, len(domain.leaves)))
        lines = [
            f"<!ELEMENT {root} ({container}+)>",
            f"<!ELEMENT {container} ({', '.join(leaves)})>".replace(", ", ", ").replace(", ", ","),
        ]
        for leaf in leaves:
            lines.append(f"<!ELEMENT {leaf} (#PCDATA)>")
        (directory / f"{domain.name}.dtd").write_text("\n".join(lines) + "\n", encoding="utf-8")
    # A content duplicate (dedupe must drop it) and a malformed document
    # (quarantine must absorb it without failing the run).
    first = sorted(path.name for path in directory.glob("*.dtd"))[0]
    (directory / "zz-duplicate.dtd").write_bytes((directory / first).read_bytes())
    (directory / "zz-malformed.xsd").write_text(
        "<xs:schema xmlns:xs='http://www.w3.org/2001/XMLSchema'><broken>", encoding="utf-8"
    )


def run_ingest(run_dir: Path, corpus: Path, config: IngestConfig, **kwargs):
    pipeline = IngestPipeline(
        run_dir, [BundledCorpusSource(), DirectorySource(corpus, label="synthetic")], config
    )
    started = time.perf_counter()
    status = pipeline.run(**kwargs)
    return status, time.perf_counter() - started


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def measure_replay(trace, backend, rounds: int, use_match_many: bool) -> tuple[float, dict]:
    best = float("inf")
    report = None
    for _ in range(max(rounds, 1)):
        started = time.perf_counter()
        report = replay_trace(trace, backend, use_match_many=use_match_many)
        best = min(best, time.perf_counter() - started)
    return best, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=20060403)
    parser.add_argument("--trace-length", type=int, default=80, help="queries in the replay trace")
    parser.add_argument("--trace-skew", type=float, default=1.3, help="zipf exponent of the trace")
    parser.add_argument("--rounds", type=int, default=3, help="replay timing rounds (best-of)")
    parser.add_argument("--shards", type=int, default=3, help="shard count for the sharded replay")
    parser.add_argument(
        "--min-dedup-speedup", type=float, default=1.5,
        help="fail when match_many replay is not at least this much faster than "
        "query-by-query replay (0 disables the gate; the ratio is always reported)",
    )
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT, help="JSON output path")
    parser.add_argument(
        "--workdir", type=Path, default=None, help="scratch dir for runs (default: temp dir)"
    )
    args = parser.parse_args(argv)

    with contextlib.ExitStack() as stack:
        if args.workdir is None:
            workdir = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="bench_ingest_")))
        else:
            workdir = args.workdir
            workdir.mkdir(parents=True, exist_ok=True)
        return _run(args, workdir)


def _run(args, workdir: Path) -> int:
    corpus = workdir / "corpus"
    build_synthetic_corpus(corpus, args.seed)
    config = IngestConfig()

    status_a, seconds_a = run_ingest(workdir / "run-a", corpus, config)
    status_b, seconds_b = run_ingest(workdir / "run-b", corpus, config)
    digest_a = status_a["snapshot"]["sha256"]
    byte_identical = digest_a == status_b["snapshot"]["sha256"]

    # Kill at the dedupe boundary, then resume in a fresh pipeline object
    # (sources re-supplied, config recovered from the manifest).
    run_ingest(workdir / "run-c", corpus, config, stop_after="dedupe")
    resumed = IngestPipeline(
        workdir / "run-c",
        [BundledCorpusSource(), DirectorySource(corpus, label="synthetic")],
    )
    started = time.perf_counter()
    status_c = resumed.run(resume=True)
    resume_seconds = time.perf_counter() - started
    resume_identical = status_c["snapshot"]["sha256"] == digest_a

    snapshot_path = Path(status_a["snapshot"]["path"])
    trace = synthesize_zipf_trace(args.trace_length, args.seed, skew=args.trace_skew)

    # The baseline runs on a cache-off twin: on the batched service itself
    # every replayed query would be a cache hit after the first round.
    service = load_snapshot(snapshot_path)
    uncached = load_snapshot(snapshot_path, query_cache_size=0)
    batched_seconds, batched_report = measure_replay(trace, service, args.rounds, True)
    single_seconds, single_report = measure_replay(trace, uncached, args.rounds, False)

    from repro.schema.repository import SchemaRepository
    from repro.schema.serialization import tree_from_dict, tree_to_dict

    thawed = SchemaRepository(name="bench-ingest")
    for tree in service.repository.trees():
        thawed.add_tree(tree_from_dict(tree_to_dict(tree)))
    sharded = ShardedMatchingService.from_repository(
        thawed,
        args.shards,
        element_threshold=config.element_threshold,
        delta=config.delta,
        partition_max_fragment_size=config.partition_max_fragment_size,
    )
    try:
        _, sharded_report = measure_replay(trace, sharded, 1, True)
    finally:
        sharded.close()

    replay_identical = (
        batched_report["query_digests"] == single_report["query_digests"]
        and batched_report["query_digests"] == sharded_report["query_digests"]
    )
    dedup_speedup = single_seconds / batched_seconds if batched_seconds > 0 else float("inf")

    report = {
        "benchmark": "ingest",
        **host_fields(),
        "seed": args.seed,
        "corpus": {
            "documents": status_a["stages"]["fetch"].get("documents"),
            "quarantined": len(status_a["quarantined"]),
            "kept": status_a["stages"]["dedupe"].get("kept"),
            "dropped": status_a["stages"]["dedupe"].get("dropped"),
        },
        "ingest_seconds": {"first": round(seconds_a, 3), "second": round(seconds_b, 3)},
        "resume_seconds": round(resume_seconds, 3),
        "snapshot_sha256": digest_a,
        "byte_identical": byte_identical,
        "resume_identical": resume_identical,
        "trace": {
            "length": args.trace_length,
            "skew": args.trace_skew,
            "unique_queries": batched_report["unique_queries"],
            "option_groups": batched_report["option_groups"],
            "ranking_digest": batched_report["ranking_digest"],
        },
        "replay_identical": replay_identical,
        "replay_seconds": {
            "match_many": round(batched_seconds, 6),
            "single": round(single_seconds, 6),
        },
        "dedup_speedup": round(dedup_speedup, 3),
    }
    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps(report, indent=2, sort_keys=True))

    if not byte_identical:
        print("FAIL: two identical ingestion runs produced different snapshot bytes", file=sys.stderr)
        return 1
    if not resume_identical:
        print("FAIL: the killed-and-resumed run diverged from the uninterrupted snapshot", file=sys.stderr)
        return 1
    if not replay_identical:
        print("FAIL: trace replay digests diverge across backends/replay modes", file=sys.stderr)
        return 1
    if args.min_dedup_speedup > 0 and dedup_speedup < args.min_dedup_speedup:
        print(
            f"FAIL: match_many replay speedup {dedup_speedup:.2f}x is below the "
            f"{args.min_dedup_speedup:.2f}x gate",
            file=sys.stderr,
        )
        return 1
    print(
        f"ok: snapshots byte-identical (sha256 {digest_a[:12]}…), resume identical, "
        f"replay bit-identical across {args.shards}-shard and unsharded backends, "
        f"match_many dedup speedup {dedup_speedup:.2f}x "
        f"({batched_report['unique_queries']}/{args.trace_length} unique queries)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
