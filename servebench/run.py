#!/usr/bin/env python3
"""Serving benchmark for the Bellflower matcher.

Starts the matcher the way ``cli serve --port`` does — a snapshot (or shard
set) behind :class:`repro.api.server.MatcherServer` on a localhost port, with
the CLI's admission limit — and drives it with one closed-loop client: the
next request is sent only after the previous answer arrived.  Answers are
checked against an independent in-process reference after the timed window.

Run from the repository root::

    python3 servebench/run.py --workload zipf --seed 1 --seconds 50 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (latency and set-up time); with ``--trace 1`` the run
records per-layer spans (see ``spans.py``) and the metrics are per-layer self
times, work counts and cache hit shares instead.

Workloads (inputs in ``workloads.py``) share one request stream, Zipf traces
with perturbed names, and differ in what serves it:

``zipf``      the stream as drawn, against one JSON snapshot: the query cache
              answers repeats and the vectorized kernel scores names;
``distinct``  the stream without exact repeats, against a two-shard frozen
              shard set: no cache answers a request, scoring takes the scalar
              loop, and every request fans out to both shards.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"

#: workload -> (carrier (see ``deployment.CARRIERS``), exact repeats kept)
WORKLOADS = {"zipf": ("json", True), "distinct": ("frozen", False)}
#: Cold starts before and after the timed window; ``setup_s`` is the median
#: of all of them, so it samples the host at both ends of the run.  The last
#: one before the window serves it.
SETUP_REPEATS = 3
#: Untimed requests after start-up, so first-call costs stay out of the timed
#: window.
WARMUP_REQUESTS = 48


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def generate_repository(seed: int, path: Path):
    from repro.schema.serialization import save_repository
    from repro.workload.generator import RepositoryGenerator, RepositoryProfile
    from workloads import REPOSITORY_NODES, seed_for

    profile = RepositoryProfile(
        target_node_count=REPOSITORY_NODES,
        seed=seed_for(seed, "repository"),
        name=f"servebench-{seed}",
    )
    repository = RepositoryGenerator(profile).generate()
    save_repository(repository, path)


def drive(client, queries, stop_at: float, exchanges: list, latencies: list, recorder=None) -> None:
    """One closed-loop client: send, wait for the answer, repeat until ``stop_at``."""
    from workloads import request_line

    for query in queries:
        line = request_line(query)
        span = recorder.begin_request() if recorder is not None else 0
        sent = time.perf_counter()
        answer = client.call(line)
        received = time.perf_counter()
        if recorder is not None:
            recorder.end_request(span, sent, received)
        latencies.append(received - sent)
        exchanges.append((query, answer))
        if received >= stop_at:
            return
    raise RuntimeError("request stream ran out before the timed window ended")


def cache_counts(backend):
    return backend.counters.get("query_cache_hits"), backend.counters.get("query_cache_misses")


def cold_start(repository_path: Path, directory: Path, carrier: str, seconds: list):
    from deployment import Deployment

    gc.collect()  # so a start never pays for collecting an earlier one's garbage
    start = time.perf_counter()
    deployment = Deployment(repository_path, directory, carrier)
    seconds.append(time.perf_counter() - start)
    return deployment


def run(args, work: Path) -> dict:
    from reference import Reference, check_answers
    from spans import COUNTS, LAYERS, SpanRecorder, instrument
    from workloads import STREAM_LENGTH, distinct, query_stream, request_line

    carrier, repeats = WORKLOADS[args.workload]
    repository_path = work / "repository.json"
    generate_repository(args.seed, repository_path)
    warmup = query_stream(args.seed, "warmup", WARMUP_REQUESTS)
    queries = query_stream(args.seed, "timed", STREAM_LENGTH)
    stream = queries if repeats else list(distinct(queries, warmup))
    # The benchmark's own inputs stay outside the collector's view, as they
    # would in a client process of their own.
    gc.collect()
    gc.freeze()
    setup_seconds = []
    for attempt in range(SETUP_REPEATS - 1):
        cold_start(repository_path, work / f"before-{attempt}", carrier, setup_seconds).close()
    deployment = cold_start(repository_path, work / "serving", carrier, setup_seconds)

    recorder = SpanRecorder() if args.trace else None
    exchanges, latencies = [], []
    try:
        for query in warmup:
            deployment.client.call(request_line(query))
        hits_before, misses_before = cache_counts(deployment.backend)
        gc.collect()
        restore = instrument(recorder) if recorder is not None else None
        began = time.perf_counter()
        try:
            drive(deployment.client, stream, began + args.seconds, exchanges, latencies, recorder)
        finally:
            elapsed = time.perf_counter() - began
            if restore is not None:
                restore()
        hits_after, misses_after = cache_counts(deployment.backend)
    finally:
        deployment.close()
    for attempt in range(SETUP_REPEATS):
        cold_start(repository_path, work / f"after-{attempt}", carrier, setup_seconds).close()

    failed, wrong = check_answers(Reference(repository_path), exchanges, args.seed)
    answered = len(exchanges)
    result = {"correct": failed == 0 and wrong == 0, "attempted": answered, "failed": failed}
    if recorder is None:
        metrics = {
            "latency_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "latency_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
            "setup_s": (statistics.median(setup_seconds), "s"),
        }
    else:
        self_seconds = recorder.self_seconds()
        metrics = {f"{layer}_ms": (self_seconds[layer] * 1e3 / answered, "ms") for layer in LAYERS}
        metrics["traced_latency_ms"] = (statistics.median(latencies) * 1e3, "ms")
        for counter in COUNTS:
            metrics[counter] = (recorder.counts[counter] / answered, "count")
        hits, misses = hits_after - hits_before, misses_after - misses_before
        metrics["query_cache_hit_pct"] = (100.0 * hits / max(1, hits + misses), "%")
        for metric, part, whole in (
            ("name_memo_hit_pct", "name_memo_hits", "name_memo_lookups"),
            ("kernel_vectorized_pct", "kernel_vectorized", "kernel_batches"),
        ):
            metrics[metric] = (100.0 * recorder.counts[part] / max(1, recorder.counts[whole]), "%")
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {answered} requests "
        f"in {elapsed:.2f}s, failed={failed} wrong={wrong}",
        file=sys.stderr,
    )
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"error: no matcher sources under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
