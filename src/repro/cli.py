"""Command-line interface for the Bellflower matcher.

Nine subcommands cover the typical usage of the library without writing code:

``match``
    Match a personal schema (given as a nested JSON specification) against a
    directory of ``.xsd`` / ``.dtd`` files or a previously generated repository
    JSON file, and print the ranked mappings.

``generate``
    Generate a synthetic schema repository (the stand-in for the paper's
    web-harvested collection) and write it to a JSON file that ``match`` and the
    benchmarks can reuse.

``experiment``
    Run one of the registered paper experiments (``table1``, ``figure4``,
    ``figure5``, ``figure6``, ``ablations``) and print its table.

``snapshot``
    Build a :class:`~repro.service.MatchingService` over a repository, eagerly
    materialize all derived state (name/trigram index, distance oracles,
    repository partition) and persist everything as one frozen snapshot file
    (``inspect`` prints a snapshot's header and segment table).

``query``
    Load a snapshot (or a shard set via ``--shards``) and answer a single
    personal-schema query (what ``match`` does, minus rebuilding the derived
    state) — or a whole batch of them from a JSON-lines file (``--batch``).

``serve``
    Load a snapshot (or a shard set) and answer a stream of v1 request
    envelopes (``{"v": 1, "kind": ...}``, see :mod:`repro.api`): one per
    stdin line, one v1 response envelope per stdout line, until EOF — or,
    with ``--port``, a concurrent asyncio JSONL TCP server for many
    simultaneous clients.  ``mutation`` envelopes add or remove trees in the
    live repository incrementally; ``batch`` envelopes answer many queries in
    one request.

``shard``
    Manage shard sets: ``split`` partitions a repository into N per-shard
    snapshots tied together by a manifest, ``status`` inspects a manifest,
    ``rebalance`` re-splits an existing set with a new shard count or router.

``ingest``
    Run the staged corpus-ingestion pipeline (``run``), inspect a run
    directory (``status``) or continue an interrupted run (``resume``).  The
    output is a frozen snapshot that ``query``/``serve`` load directly.

``trace``
    Synthesize a Zipf-skewed query trace (``synth``) or replay a trace file
    against a snapshot or shard set (``replay``), reporting the canonical
    ranking digest that must be bit-identical across backends.

Examples
--------
::

    python -m repro.cli generate --nodes 5000 --out repo.json
    python -m repro.cli match --repository repo.json \\
        --personal '{"book": ["title", "author"]}' --variant medium --top 5
    python -m repro.cli match --schema-dir ./schemas --personal '{"contact": ["name", "email"]}'
    python -m repro.cli experiment table1 --scale quick
    python -m repro.cli snapshot --repository repo.json --out repo.snapshot.frozen
    python -m repro.cli query --snapshot repo.snapshot.frozen \\
        --personal '{"person": ["name", "email"]}' --top 5
    python -m repro.cli shard split --repository repo.json --shards 4 \\
        --router size-balanced --out-dir ./shards
    python -m repro.cli shard status --manifest ./shards/manifest.json
    python -m repro.cli query --shards ./shards/manifest.json --batch queries.jsonl
    echo '{"v": 1, "kind": "match", "schema": {"person": ["name", "email"]}}' | \\
        python -m repro.cli serve --shards ./shards/manifest.json
    python -m repro.cli ingest run --run-dir ./run --bundled --source-dir ./schemas
    python -m repro.cli ingest resume --run-dir ./run --bundled --source-dir ./schemas
    python -m repro.cli trace synth --out trace.json --length 200 --seed 7
    python -m repro.cli trace replay --trace trace.json --snapshot run/out.frozen
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.schema.builder import TreeBuilder
from repro.schema.dtd_parser import parse_dtd_file
from repro.schema.repository import SchemaRepository
from repro.schema.serialization import load_repository, save_repository
from repro.schema.xsd_parser import parse_xsd_file
from repro.system.bellflower import Bellflower
from repro.system.variants import available_variant_names, clustering_variant
from repro.workload.generator import RepositoryGenerator, RepositoryProfile


def _load_schema_directory(directory: Path) -> SchemaRepository:
    """Parse every .xsd/.dtd file under ``directory`` into one repository."""
    repository = SchemaRepository(name=directory.name or "schemas")
    documents = sorted(
        [path for path in directory.rglob("*") if path.suffix.lower() in (".xsd", ".dtd")]
    )
    if not documents:
        raise ReproError(f"no .xsd or .dtd files found under {directory}")
    for path in documents:
        if path.suffix.lower() == ".xsd":
            trees = parse_xsd_file(path)
        else:
            trees = parse_dtd_file(path)
        repository.add_trees(trees)
    return repository


def _load_repository_argument(args: argparse.Namespace) -> SchemaRepository:
    if args.repository:
        return load_repository(Path(args.repository))
    if args.schema_dir:
        return _load_schema_directory(Path(args.schema_dir))
    raise ReproError("either --repository or --schema-dir is required")


def _personal_schema_from_json(text: str):
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"--personal is not valid JSON: {exc}") from exc
    return _personal_schema_from_spec(spec)


def _print_result(repository, personal, result, top: int, delta: float, variant_name: str) -> None:
    summary = result.summary()
    print(
        f"repository: {repository.tree_count} trees, {repository.node_count} nodes; "
        f"mapping elements: {result.counters.get('mapping_elements')}; variant: {variant_name}"
    )
    print(
        f"useful clusters: {summary['useful_clusters']}, search space: {summary['search_space']}, "
        f"partial mappings: {summary['partial_mappings']}, mappings >= {delta}: {summary['mappings']}"
    )
    for rank, mapping in enumerate(result.mappings[:top], start=1):
        tree = repository.tree(mapping.tree_id)
        print(f"#{rank} Δ={mapping.score:.3f} in {tree.name}")
        for node_id, element in sorted(mapping.assignment.items()):
            print(f"    {personal.node(node_id).name} -> {tree.root_path(element.ref.node_id)}")


def _command_match(args: argparse.Namespace) -> int:
    repository = _load_repository_argument(args)
    personal = _personal_schema_from_json(args.personal)
    variant = clustering_variant(args.variant)
    system = Bellflower(
        repository,
        clusterer=variant.make_clusterer(),
        element_threshold=args.element_threshold,
        delta=args.delta,
        variant_name=variant.name,
    )
    result = system.match(personal)
    _print_result(repository, personal, result, args.top, args.delta, variant.name)
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    profile = RepositoryProfile(
        target_node_count=args.nodes,
        min_tree_size=args.min_tree_size,
        max_tree_size=args.max_tree_size,
        seed=args.seed,
        name=f"synthetic-{args.nodes}",
    )
    repository = RepositoryGenerator(profile).generate()
    save_repository(repository, Path(args.out))
    print(
        f"wrote {repository.node_count} nodes in {repository.tree_count} trees to {args.out} "
        f"(seed {args.seed})"
    )
    return 0


def _command_experiment(args: argparse.Namespace) -> int:
    from repro.experiments.config import ExperimentConfig, build_workload
    from repro.experiments.harness import registry

    config = ExperimentConfig.paper_scale() if args.scale == "paper" else ExperimentConfig.quick()
    spec = registry.get(args.name)
    workload = build_workload(config)
    result = spec.runner(config, workload)
    render = getattr(result, "render", None)
    print(f"=== {args.name}: {spec.description}")
    if callable(render):
        print(render())
    return 0


def _make_service(repository, args: argparse.Namespace):
    from repro.service import MatchingService

    return MatchingService(
        repository,
        variant=getattr(args, "variant", "partition"),
        element_threshold=args.element_threshold,
        delta=args.delta,
        partition_max_fragment_size=args.max_fragment_size,
    )


def _command_snapshot(args: argparse.Namespace) -> int:
    from repro.service import write_snapshot

    if not args.out:
        raise ReproError("snapshot requires --out (or use 'snapshot inspect')")
    repository = _load_repository_argument(args)
    service = _make_service(repository, args)
    header = write_snapshot(service, Path(args.out))
    print(
        f"wrote snapshot of {repository.node_count} nodes in {repository.tree_count} trees "
        f"to {args.out} (variant {service.variant_name}, "
        f"{len(header['segments'])} segments, {len(header['indexes'])} name indexes, "
        f"digest {header['repository']['digest']})"
    )
    return 0


def _command_snapshot_inspect(args: argparse.Namespace) -> int:
    """Header-only inspection: no tree, oracle or index is ever materialized."""
    from repro.storage import open_frozen

    path = Path(args.snapshot)
    header = open_frozen(path).header
    meta = header["repository"]
    print(f"frozen snapshot {path}")
    print(f"  format:  {header['format']} v{header['version']}")
    print(
        f"  forest:  {meta['tree_count']} trees, {meta['node_count']} nodes "
        f"(largest {meta['largest_tree']}, smallest {meta['smallest_tree']}), "
        f"digest {meta['digest']}"
    )
    config = header.get("config", {})
    print(
        f"  config:  variant={config.get('variant')!r} "
        f"element_threshold={config.get('element_threshold')} delta={config.get('delta')}"
    )
    print(f"  indexes: {len(header.get('indexes', []))}")
    partition = header.get("partition")
    print(
        "  partition: none"
        if partition is None
        else f"  partition: max_fragment_size={partition['max_fragment_size']} "
        f"reclustering={partition['reclustering']!r}"
    )
    print(f"  segments ({len(header['segments'])}):")
    for entry in header["segments"]:
        print(
            f"    {entry['name']:<28} {entry['kind']:<6} "
            f"count={entry['count']:<10} bytes={entry['length']:<10} offset={entry['offset']}"
        )
    return 0


def _resilience_from_args(args: argparse.Namespace):
    """Build the sharded fan-out's :class:`~repro.resilience.ResiliencePolicy`.

    ``None`` (strict mode — any shard failure propagates) unless at least one
    of ``--retries``, ``--hedge-ms`` or ``--fault-plan`` was given.
    """
    from repro.resilience import FaultPlan, ResiliencePolicy, RetryPolicy, load_fault_plan

    retries = getattr(args, "retries", None)
    hedge_ms = getattr(args, "hedge_ms", None)
    plan_path = getattr(args, "fault_plan", None)
    if retries is None and hedge_ms is None and plan_path is None:
        return None
    plan: Optional[FaultPlan] = None
    if plan_path is not None:
        try:
            plan = load_fault_plan(Path(plan_path))
        except ValueError as exc:
            raise ReproError(str(exc)) from exc
    try:
        retry = RetryPolicy() if retries is None else RetryPolicy(max_attempts=retries)
        return ResiliencePolicy(retry=retry, hedge_delay_ms=hedge_ms, fault_plan=plan)
    except ValueError as exc:
        raise ReproError(str(exc)) from exc


def _load_service_argument(args: argparse.Namespace):
    """Load the service a ``query``/``serve`` invocation names.

    ``--snapshot`` loads a single :class:`~repro.service.MatchingService`;
    ``--shards`` loads a :class:`~repro.shard.ShardedMatchingService` from a
    shard-set manifest.  Exactly one must be given.  ``--cache-size``
    overrides the persisted query-cache capacity in both cases.

    Resilience flags (``--retries``, ``--hedge-ms``, ``--fault-plan``) turn
    on the shard layer's retry/hedge/failover fan-out, so they need
    ``--shards``.
    """
    from repro.service import load_snapshot
    from repro.shard import load_shard_set

    snapshot = getattr(args, "snapshot", None)
    shards = getattr(args, "shards", None)
    if bool(snapshot) == bool(shards):
        raise ReproError("pass exactly one of --snapshot or --shards")
    cache_size = getattr(args, "cache_size", None)
    if snapshot:
        if any(
            getattr(args, flag, None) is not None for flag in ("retries", "hedge_ms", "fault_plan")
        ):
            raise ReproError(
                "--retries, --hedge-ms and --fault-plan require --shards (shard-level failover)"
            )
        return load_snapshot(Path(snapshot), query_cache_size=cache_size)
    resilience = _resilience_from_args(args)
    return load_shard_set(Path(shards), query_cache_size=cache_size, resilience=resilience)


def _close_service(service) -> None:
    """Release what a CLI-owned service holds on the way out.

    The sharded ``close()`` stops the resilient fan-out's thread pools.
    """
    close = getattr(service, "close", None)
    if callable(close):
        close()


def _personal_schema_from_spec(spec, name: str = "personal"):
    """Build a personal schema from a nested JSON spec (``--personal``, ``--batch``)."""
    if not isinstance(spec, dict):
        raise ReproError(
            "a personal schema must be a JSON object mapping the root name to its children"
        )
    return TreeBuilder.from_nested(spec, name=name)


def _load_batch_file(path_text: str):
    """Read a batch of personal-schema specs: one JSON object per line."""
    if path_text == "-":
        lines = sys.stdin.read().splitlines()
    else:
        path = Path(path_text)
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            raise ReproError(f"cannot read batch file {path}: {exc}") from exc
    schemas = []
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            spec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ReproError(f"batch line {line_number} is not valid JSON: {exc}") from exc
        schemas.append(_personal_schema_from_spec(spec, name=f"batch-{line_number}"))
    if not schemas:
        raise ReproError("batch file contains no queries")
    return schemas


def _deadline_kwargs(args: argparse.Namespace) -> dict:
    """The ``deadline=`` kwarg ``--timeout-ms`` asks for (``{}`` when unbounded)."""
    timeout_ms = getattr(args, "timeout_ms", None)
    if timeout_ms is None:
        return {}
    from repro.api.validation import validate_timeout_ms
    from repro.resilience import Deadline

    return {"deadline": Deadline.after_ms(validate_timeout_ms(timeout_ms))}


def _match_many(service, schemas, delta, top_k, deadline_kwargs=None):
    """Batch entry point that also serves foreign matchers (no ``match_many``)."""
    extra = deadline_kwargs or {}
    batcher = getattr(service, "match_many", None)
    if batcher is not None:
        return batcher(schemas, delta=delta, top_k=top_k, **extra)
    return [service.match(schema, delta=delta, top_k=top_k, **extra) for schema in schemas]


def _command_query(args: argparse.Namespace) -> int:
    # Usage errors fail before the (potentially expensive) service load.
    if bool(args.personal) == bool(args.batch):
        raise ReproError("pass exactly one of --personal or --batch")
    if args.top < 0:
        raise ReproError(f"top must be non-negative, got {args.top}")
    deadline_kwargs = _deadline_kwargs(args)
    service = _load_service_argument(args)
    try:
        return _run_query(service, args, deadline_kwargs)
    finally:
        _close_service(service)


def _run_query(service, args: argparse.Namespace, deadline_kwargs) -> int:
    if args.batch:
        from repro.api.encode import match_response
        from repro.api.envelope import MatchOptions

        schemas = _load_batch_file(args.batch)
        results = _match_many(service, schemas, args.delta, args.top_k, deadline_kwargs)
        page = MatchOptions(limit=args.top)
        for personal, result in zip(schemas, results):
            response = match_response(service.repository, personal, result, page)
            print(json.dumps(response.to_wire()))
        if hasattr(service, "match_many"):
            # Both bundled services answer batches through the batch front
            # end; foreign matchers without match_many get no summary
            # because their counters mean something else.
            counters = service.counters
            print(
                f"batch: {len(schemas)} queries, "
                f"{counters.get('duplicate_queries')} duplicates, "
                f"{counters.get('query_cache_hits')} cache hits",
                file=sys.stderr,
            )
        return 0
    personal = _personal_schema_from_json(args.personal)
    result = service.match(personal, delta=args.delta, top_k=args.top_k, **deadline_kwargs)
    _print_result(
        service.repository,
        personal,
        result,
        args.top,
        service.delta if args.delta is None else args.delta,
        getattr(service, "variant_name", None) or result.variant_name,
    )
    if getattr(result, "partial", False):
        print("note: deadline expired — ranking is partial (best mappings found in time)")
    if getattr(result, "degraded", False):
        skipped = ", ".join(str(s) for s in getattr(result, "skipped_shards", ()))
        print(f"note: degraded — shards [{skipped}] were unreachable and are not covered")
    return 0


def serve_loop(service, lines, out) -> int:
    """The JSON-lines request loop: one v1 envelope per request line, no matter what.

    A thin adapter over the shared :class:`repro.api.dispatch.RequestDispatcher`
    — the same dispatcher the asyncio TCP server uses, so the stdin and TCP
    transports speak literally the same protocol: the dispatcher's ready
    envelope first, then one v1 response envelope per v1 request envelope.

    Robustness contract: *nothing* a client sends — invalid JSON, a JSON line
    that is not an object (``[1, 2]``, ``"hello"``), an object without
    ``"v"``, a structurally broken schema specification, or an unexpected
    exception anywhere inside request handling — may ever escape as a
    traceback and kill the server.  Every failure is reported as a v1
    ``{"kind": "error", ...}`` envelope (with the exception class in
    ``"type"`` for unexpected errors) and the loop moves on to the next line.
    """
    from repro.api.dispatch import RequestDispatcher

    dispatcher = RequestDispatcher(service)
    print(json.dumps(dispatcher.ready_envelope()), file=out, flush=True)
    for line in lines:
        line = line.strip()
        if not line:
            continue
        print(json.dumps(dispatcher.handle_line(line)), file=out, flush=True)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    """Serve queries over stdin (default) or a concurrent TCP port (``--port``).

    Requests are v1 envelopes (see :mod:`repro.api.envelope`):
    ``{"v": 1, "kind": "match", "schema": {...}, "options"?: {...}}`` runs a
    query (``options.top_k`` bounds the *search* to the k best mappings with
    cross-cluster pruning; ``offset``/``limit`` page the answer;
    ``timeout_ms`` sets its deadline); ``"kind": "batch"`` runs many;
    ``"kind": "mutation"`` adds or removes a tree incrementally;
    ``"kind": "stats"`` reports the service counters.  Each transport greets
    with one ``{"v": 1, "kind": "ready"}`` envelope, then answers every
    request line with one v1 envelope; malformed or failing requests produce
    a ``{"kind": "error"}`` envelope instead of terminating the loop (see
    :func:`serve_loop`).

    Tree ids are positional: removing a tree shifts every later tree's id
    down by one (see :meth:`SchemaRepository.remove_tree`), so ids returned by
    earlier ``add`` responses are invalidated by any ``remove``.  Mutation
    responses therefore echo the stable tree *name* alongside the positional
    id, and removals may target ``tree_name`` instead of ``tree_id``.

    With ``--shards`` the same protocol runs against a sharded service:
    ``batch`` requests dedup + fan out across shards, ``stats`` adds a
    ``per_shard`` breakdown, and mutations route through the shard layer
    (merged tree ids).

    With ``--port`` the process listens on a TCP socket instead of stdin:
    many clients connect concurrently (JSON lines per connection, one
    greeting each), request handling is offloaded to a thread pool with at
    most ``--max-in-flight`` requests executing at once, and SIGINT/SIGTERM
    shut the server down gracefully.
    """
    service = _load_service_argument(args)
    try:
        return _run_serve(service, args)
    finally:
        _close_service(service)


def _run_serve(service, args: argparse.Namespace) -> int:
    if args.port is not None:
        from repro.api.server import run_server

        def _announce(server):
            print(
                json.dumps(
                    {
                        "serving": {"host": server.host, "port": server.port},
                        "trees": service.repository.tree_count,
                        "nodes": service.repository.node_count,
                    }
                ),
                flush=True,
            )

        try:
            return run_server(
                service,
                host=args.host,
                port=args.port,
                max_in_flight=args.max_in_flight,
                drain_timeout=args.drain_timeout,
                on_ready=_announce,
            )
        except ValueError as exc:
            # Bad server parameters (e.g. --max-in-flight 0): the clean
            # `error: ...` + exit 2 contract, not a traceback.
            raise ReproError(str(exc)) from exc
        except OSError as exc:
            raise ReproError(f"cannot bind {args.host}:{args.port}: {exc}") from exc
    return serve_loop(service, sys.stdin, sys.stdout)


def _make_router_argument(router_name: str, max_fragment_size: int):
    from repro.shard import make_router

    params = {}
    if router_name == "cluster-affinity":
        # The affinity weights mirror the partition the shards serve, so the
        # router reuses the service's fragment-size cap.
        params["max_fragment_size"] = max_fragment_size
    return make_router(router_name, params)


def _command_shard_split(args: argparse.Namespace) -> int:
    from repro.shard import ShardedMatchingService, write_shard_set

    repository = _load_repository_argument(args)
    router = _make_router_argument(args.router, args.max_fragment_size)
    service = ShardedMatchingService.from_repository(
        repository,
        args.shards,
        router=router,
        element_threshold=args.element_threshold,
        delta=args.delta,
        query_cache_size=args.cache_size,
        partition_max_fragment_size=args.max_fragment_size,
    )
    manifest = write_shard_set(service, Path(args.out_dir))
    sizes = ", ".join(
        f"shard {index}: {entry['trees']} trees/{entry['nodes']} nodes"
        for index, entry in enumerate(manifest["shards"])
    )
    print(
        f"split {repository.tree_count} trees ({repository.node_count} nodes) into "
        f"{args.shards} shards with router {args.router} ({sizes}); "
        f"manifest at {Path(args.out_dir) / 'manifest.json'}"
    )
    return 0


def _command_shard_status(args: argparse.Namespace) -> int:
    from repro.shard import load_manifest

    manifest = load_manifest(Path(args.manifest))
    router = manifest.get("router", {})
    trees = len(manifest.get("assignment", []))
    nodes = sum(int(entry.get("nodes", 0)) for entry in manifest["shards"])
    print(
        f"shard set: {manifest['shard_count']} shards, {trees} trees, {nodes} nodes; "
        f"router {router.get('policy')!r} {router.get('params') or {}}; "
        f"global version {manifest.get('global_version')}"
    )
    for index, entry in enumerate(manifest["shards"]):
        print(
            f"  shard {index}: {entry.get('trees')} trees, {entry.get('nodes')} nodes "
            f"({entry['path']})"
        )
    return 0


def _command_shard_rebalance(args: argparse.Namespace) -> int:
    from repro.shard import rebalance_shard_set

    router = None
    if args.router is not None:
        router = _make_router_argument(args.router, args.max_fragment_size)
    manifest = rebalance_shard_set(
        Path(args.manifest),
        shard_count=args.shards,
        router=router,
        out_directory=args.out_dir,
    )
    target = Path(args.out_dir) if args.out_dir else Path(args.manifest).parent
    print(
        f"rebalanced to {manifest['shard_count']} shards "
        f"(router {manifest['router']['policy']}, global version {manifest['global_version']}); "
        f"manifest at {target / 'manifest.json'}"
    )
    return 0


def _ingest_sources(args: argparse.Namespace):
    from repro.ingest import ArchiveSource, BundledCorpusSource, DirectorySource

    sources = []
    if getattr(args, "bundled", False):
        sources.append(BundledCorpusSource())
    for directory in getattr(args, "source_dir", None) or ():
        sources.append(DirectorySource(Path(directory)))
    for archive in getattr(args, "archive", None) or ():
        sources.append(ArchiveSource(Path(archive)))
    return sources


def _ingest_pipeline(args: argparse.Namespace, *, with_config: bool):
    from repro.ingest import IngestConfig, IngestPipeline

    config = None
    if with_config:
        config = IngestConfig(
            repository_name=args.name,
            element_threshold=args.element_threshold,
            delta=args.delta,
            partition_max_fragment_size=args.max_fragment_size,
            max_depth=args.max_depth,
        )
    return IngestPipeline(Path(args.run_dir), _ingest_sources(args), config)


def _print_ingest_status(status: dict) -> None:
    print(f"ingestion run {status['run_dir']} (sources: {', '.join(status['sources'])})")
    for stage, entry in status["stages"].items():
        counts = ", ".join(
            f"{key}={value}"
            for key, value in entry.items()
            if key not in ("state", "snapshot_sha256")
        )
        print(f"  {stage:<9} {entry['state']}" + (f"  ({counts})" if counts else ""))
    if status["quarantined"]:
        print(f"  quarantined documents ({len(status['quarantined'])}):")
        for doc_id in status["quarantined"]:
            print(f"    {doc_id}")
    snapshot = status.get("snapshot")
    if snapshot:
        print(f"  snapshot: {snapshot['path']} (sha256 {snapshot['sha256']})")
    else:
        print("  snapshot: not yet written")


def _command_ingest_run(args: argparse.Namespace) -> int:
    pipeline = _ingest_pipeline(args, with_config=True)
    _print_ingest_status(pipeline.run(stop_after=args.stop_after))
    return 0


def _command_ingest_resume(args: argparse.Namespace) -> int:
    # No config flags here: the run manifest is authoritative, and a resume
    # under a different config could not reproduce the interrupted run.
    pipeline = _ingest_pipeline(args, with_config=False)
    _print_ingest_status(pipeline.run(resume=True, stop_after=args.stop_after))
    return 0


def _command_ingest_status(args: argparse.Namespace) -> int:
    pipeline = _ingest_pipeline(args, with_config=False)
    _print_ingest_status(pipeline.status())
    return 0


def _parse_optional_floats(text: str, flag: str):
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part == "default":
            values.append(None)
            continue
        try:
            values.append(float(part))
        except ValueError as exc:
            raise ReproError(f"{flag} entries must be numbers or 'default': {part!r}") from exc
    if not values:
        raise ReproError(f"{flag} must list at least one value")
    return values


def _parse_optional_ints(text: str, flag: str):
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part in ("default", "all"):
            values.append(None)
            continue
        try:
            values.append(int(part))
        except ValueError as exc:
            raise ReproError(f"{flag} entries must be integers, 'default' or 'all': {part!r}") from exc
    if not values:
        raise ReproError(f"{flag} must list at least one value")
    return values


def _command_trace_synth(args: argparse.Namespace) -> int:
    from repro.workload.trace import save_trace, synthesize_zipf_trace

    trace = synthesize_zipf_trace(
        args.length,
        args.seed,
        name=args.name,
        skew=args.skew,
        deltas=_parse_optional_floats(args.deltas, "--deltas"),
        top_ks=_parse_optional_ints(args.top_ks, "--top-ks"),
    )
    save_trace(trace, Path(args.out))
    print(
        f"wrote trace {trace.name!r}: {len(trace.queries)} queries "
        f"({trace.unique_query_count()} unique) to {args.out} (seed {args.seed})"
    )
    return 0


def _command_trace_replay(args: argparse.Namespace) -> int:
    from repro.workload.trace import load_trace, replay_trace

    trace = load_trace(Path(args.trace))
    service = _load_service_argument(args)
    try:
        report = replay_trace(trace, service, use_match_many=not args.single)
    finally:
        _close_service(service)
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0
    print(
        f"replayed {report['queries']} queries ({report['unique_queries']} unique, "
        f"{report['option_groups']} option groups) from trace {report['trace']!r}"
    )
    if report["partial"] or report["degraded"]:
        print(f"  partial: {report['partial']}, degraded: {report['degraded']}")
    print(f"  ranking digest: {report['ranking_digest']}")
    return 0


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    """The resilience flags ``query`` and ``serve`` share."""
    parser.add_argument(
        "--retries", type=int, default=None,
        help="with --shards: attempts per shard query before the shard is skipped "
        "and the answer degrades to the surviving shards (default: fail fast)",
    )
    parser.add_argument(
        "--hedge-ms", type=float, default=None, dest="hedge_ms",
        help="with --shards: launch one duplicate shard attempt if the primary has "
        "not answered after this many milliseconds; first result wins",
    )
    parser.add_argument(
        "--fault-plan", default=None, dest="fault_plan",
        help="with --shards: JSON fault-plan file injecting deterministic "
        "delays/errors/hangs into shard calls; testing only",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Bellflower: clustered XML schema matching (ICDE 2006 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    match_parser = subparsers.add_parser("match", help="match a personal schema against a repository")
    match_parser.add_argument("--personal", required=True, help="personal schema as nested JSON, e.g. '{\"book\": [\"title\", \"author\"]}'")
    match_parser.add_argument("--repository", help="repository JSON file written by 'generate'")
    match_parser.add_argument("--schema-dir", help="directory of .xsd/.dtd files to match against")
    match_parser.add_argument("--variant", default="medium", choices=available_variant_names(), help="clustering variant")
    match_parser.add_argument("--delta", type=float, default=0.7, help="objective-function threshold")
    match_parser.add_argument("--element-threshold", type=float, default=0.45, help="element-matcher threshold")
    match_parser.add_argument("--top", type=int, default=10, help="number of mappings to print")
    match_parser.set_defaults(handler=_command_match)

    generate_parser = subparsers.add_parser("generate", help="generate a synthetic schema repository")
    generate_parser.add_argument("--nodes", type=int, default=2500, help="target number of schema nodes")
    generate_parser.add_argument("--min-tree-size", type=int, default=20)
    generate_parser.add_argument("--max-tree-size", type=int, default=220)
    generate_parser.add_argument("--seed", type=int, default=20060403)
    generate_parser.add_argument("--out", required=True, help="output JSON file")
    generate_parser.set_defaults(handler=_command_generate)

    experiment_parser = subparsers.add_parser("experiment", help="run one of the paper's experiments")
    experiment_parser.add_argument("name", help="experiment id (table1, figure4, figure5, figure6, ablations)")
    experiment_parser.add_argument("--scale", choices=("quick", "paper"), default="quick")
    experiment_parser.set_defaults(handler=_command_experiment)

    service_variants = ["partition", *available_variant_names()]
    snapshot_parser = subparsers.add_parser(
        "snapshot", help="build a matching service and persist it (repository + derived state)"
    )
    snapshot_parser.add_argument("--repository", help="repository JSON file written by 'generate'")
    snapshot_parser.add_argument("--schema-dir", help="directory of .xsd/.dtd files to serve")
    snapshot_parser.add_argument("--variant", default="partition", choices=service_variants, help="clustering configuration ('partition' is the precomputable default)")
    snapshot_parser.add_argument("--element-threshold", type=float, default=0.45)
    snapshot_parser.add_argument("--delta", type=float, default=0.7)
    snapshot_parser.add_argument("--max-fragment-size", type=int, default=20, help="partition fragment size cap")
    snapshot_parser.add_argument("--out", help="output snapshot file (frozen, mmap-loaded)")
    snapshot_parser.set_defaults(handler=_command_snapshot)

    snapshot_subparsers = snapshot_parser.add_subparsers(dest="snapshot_command", required=False)
    inspect_parser = snapshot_subparsers.add_parser(
        "inspect", help="print a snapshot's header and segment table (no full load)"
    )
    inspect_parser.add_argument("--snapshot", required=True, help="snapshot file")
    inspect_parser.set_defaults(handler=_command_snapshot_inspect)

    query_parser = subparsers.add_parser("query", help="answer queries from a snapshot or shard set")
    query_parser.add_argument("--snapshot", help="snapshot file written by 'snapshot'")
    query_parser.add_argument("--shards", help="shard-set manifest written by 'shard split'")
    query_parser.add_argument("--personal", help="personal schema as nested JSON")
    query_parser.add_argument(
        "--batch",
        help="JSON-lines file of personal schemas ('-' for stdin); prints one v1 match_response per line",
    )
    query_parser.add_argument("--delta", type=float, default=None, help="override the snapshot's δ")
    query_parser.add_argument("--top", type=int, default=10, help="number of mappings to print")
    query_parser.add_argument(
        "--top-k", type=int, default=None, dest="top_k",
        help="bound the search to the k best mappings (enables cross-cluster pruning; default: all mappings >= δ)",
    )
    query_parser.add_argument(
        "--cache-size", type=int, default=None, dest="cache_size",
        help="query-cache capacity override (entries; 0 disables; default: the snapshot's setting)",
    )
    query_parser.add_argument(
        "--timeout-ms", type=int, default=None, dest="timeout_ms",
        help="per-query search deadline in milliseconds; on expiry the best mappings "
        "found so far are returned, marked partial (default: unbounded)",
    )
    _add_resilience_arguments(query_parser)
    query_parser.set_defaults(handler=_command_query)

    serve_parser = subparsers.add_parser(
        "serve", help="serve JSON-line queries from stdin (or TCP with --port) against a snapshot or shard set"
    )
    serve_parser.add_argument("--snapshot", help="snapshot file written by 'snapshot'")
    serve_parser.add_argument("--shards", help="shard-set manifest written by 'shard split'")
    serve_parser.add_argument(
        "--port", type=int, default=None,
        help="serve a concurrent asyncio JSONL TCP server on this port instead of stdin (0 picks a free port)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address for --port")
    serve_parser.add_argument(
        "--max-in-flight", type=int, default=8, dest="max_in_flight",
        help="bound on concurrently executing requests across all TCP connections",
    )
    serve_parser.add_argument(
        "--cache-size", type=int, default=None, dest="cache_size",
        help="query-cache capacity override (entries; 0 disables; default: the snapshot's setting)",
    )
    serve_parser.add_argument(
        "--drain-timeout", type=float, default=5.0, dest="drain_timeout",
        help="seconds in-flight requests get to finish after SIGINT/SIGTERM (--port mode)",
    )
    _add_resilience_arguments(serve_parser)
    serve_parser.set_defaults(handler=_command_serve)

    shard_parser = subparsers.add_parser("shard", help="manage shard sets (split, status, rebalance)")
    shard_subparsers = shard_parser.add_subparsers(dest="shard_command", required=True)
    router_names = ["round-robin", "size-balanced", "cluster-affinity"]

    split_parser = shard_subparsers.add_parser(
        "split", help="partition a repository into per-shard snapshots plus a manifest"
    )
    split_parser.add_argument("--repository", help="repository JSON file written by 'generate'")
    split_parser.add_argument("--schema-dir", help="directory of .xsd/.dtd files to serve")
    split_parser.add_argument("--shards", type=int, required=True, help="number of shards")
    split_parser.add_argument(
        "--router", default="size-balanced", choices=router_names, help="tree placement policy"
    )
    split_parser.add_argument("--element-threshold", type=float, default=0.45)
    split_parser.add_argument("--delta", type=float, default=0.7)
    split_parser.add_argument("--max-fragment-size", type=int, default=20, help="partition fragment size cap")
    split_parser.add_argument(
        "--cache-size", type=int, default=64, dest="cache_size",
        help="result-cache capacity of the set's front end (recorded in the shard snapshots)",
    )
    split_parser.add_argument("--out-dir", required=True, dest="out_dir", help="directory for the shard set")
    split_parser.set_defaults(handler=_command_shard_split)

    status_parser = shard_subparsers.add_parser("status", help="inspect a shard-set manifest")
    status_parser.add_argument("--manifest", required=True, help="manifest written by 'shard split'")
    status_parser.set_defaults(handler=_command_shard_status)

    rebalance_parser = shard_subparsers.add_parser(
        "rebalance", help="re-split an existing shard set (results are preserved exactly)"
    )
    rebalance_parser.add_argument("--manifest", required=True, help="manifest written by 'shard split'")
    rebalance_parser.add_argument("--shards", type=int, default=None, help="new shard count (default: keep)")
    rebalance_parser.add_argument(
        "--router", default=None, choices=router_names, help="new placement policy (default: keep)"
    )
    rebalance_parser.add_argument("--max-fragment-size", type=int, default=20, help="cluster-affinity weight granularity")
    rebalance_parser.add_argument(
        "--out-dir", default=None, dest="out_dir",
        help="write the new set here instead of rewriting in place",
    )
    rebalance_parser.set_defaults(handler=_command_shard_rebalance)

    ingest_parser = subparsers.add_parser(
        "ingest", help="staged corpus ingestion into a frozen snapshot (run, status, resume)"
    )
    ingest_subparsers = ingest_parser.add_subparsers(dest="ingest_command", required=True)

    def _add_ingest_source_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--run-dir", required=True, dest="run_dir", help="ingestion run directory")
        sub.add_argument(
            "--source-dir", action="append", dest="source_dir", default=[],
            help="directory tree of .dtd/.xsd files (repeatable)",
        )
        sub.add_argument(
            "--archive", action="append", default=[],
            help="zip or tar archive of .dtd/.xsd files (repeatable)",
        )
        sub.add_argument(
            "--bundled", action="store_true",
            help="include the bundled hand-written corpus (repro.workload.corpus)",
        )
        sub.add_argument(
            "--stop-after", default=None, dest="stop_after",
            choices=("fetch", "parse", "validate", "dedupe", "merge"),
            help="stop at this stage boundary (resume later); default: run to completion",
        )

    ingest_run_parser = ingest_subparsers.add_parser(
        "run", help="start a new ingestion run (fetch, parse, validate, dedupe, merge)"
    )
    _add_ingest_source_arguments(ingest_run_parser)
    ingest_run_parser.add_argument("--name", default="repository", help="repository name in the snapshot")
    ingest_run_parser.add_argument("--element-threshold", type=float, default=0.45)
    ingest_run_parser.add_argument("--delta", type=float, default=0.7)
    ingest_run_parser.add_argument("--max-fragment-size", type=int, default=20, help="partition fragment size cap")
    ingest_run_parser.add_argument("--max-depth", type=int, default=12, dest="max_depth", help="parser nesting cap")
    ingest_run_parser.set_defaults(handler=_command_ingest_run)

    ingest_status_parser = ingest_subparsers.add_parser("status", help="inspect an ingestion run directory")
    ingest_status_parser.add_argument("--run-dir", required=True, dest="run_dir", help="ingestion run directory")
    ingest_status_parser.set_defaults(handler=_command_ingest_status)

    ingest_resume_parser = ingest_subparsers.add_parser(
        "resume", help="continue an interrupted run (config comes from the run manifest)"
    )
    _add_ingest_source_arguments(ingest_resume_parser)
    ingest_resume_parser.set_defaults(handler=_command_ingest_resume)

    trace_parser = subparsers.add_parser(
        "trace", help="synthesize or replay query traces (synth, replay)"
    )
    trace_subparsers = trace_parser.add_subparsers(dest="trace_command", required=True)

    trace_synth_parser = trace_subparsers.add_parser(
        "synth", help="synthesize a seeded Zipf-skewed query trace"
    )
    trace_synth_parser.add_argument("--out", required=True, help="output trace JSON file")
    trace_synth_parser.add_argument("--length", type=int, default=100, help="number of queries")
    trace_synth_parser.add_argument("--seed", type=int, default=20060403)
    trace_synth_parser.add_argument("--skew", type=float, default=1.1, help="zipf exponent (weight 1/rank^skew)")
    trace_synth_parser.add_argument(
        "--deltas", default="default",
        help="comma-separated δ values per query ('default' uses the backend's δ)",
    )
    trace_synth_parser.add_argument(
        "--top-ks", default="default,5", dest="top_ks",
        help="comma-separated top-k values per query ('default'/'all' means unbounded)",
    )
    trace_synth_parser.add_argument("--name", default=None, help="trace name (default: derived)")
    trace_synth_parser.set_defaults(handler=_command_trace_synth)

    trace_replay_parser = trace_subparsers.add_parser(
        "replay", help="replay a trace against a snapshot or shard set"
    )
    trace_replay_parser.add_argument("--trace", required=True, help="trace JSON file")
    trace_replay_parser.add_argument("--snapshot", help="snapshot file")
    trace_replay_parser.add_argument("--shards", help="shard-set manifest written by 'shard split'")
    trace_replay_parser.add_argument(
        "--single", action="store_true",
        help="replay query-by-query through match() instead of the deduping match_many() batch path",
    )
    trace_replay_parser.add_argument("--json", action="store_true", help="print the full JSON report")
    trace_replay_parser.add_argument(
        "--cache-size", type=int, default=None, dest="cache_size",
        help="query-cache capacity override (entries; 0 disables)",
    )
    trace_replay_parser.set_defaults(handler=_command_trace_replay)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
