"""Versioned on-disk snapshots of a matching service's repository + derived state.

A snapshot is one frozen file (:mod:`repro.storage`) holding everything a
serving process needs:

* the repository forest itself, as flat structure arrays and string tables;
* every built name/trigram index — the unique keys, the per-name node
  references and the trigram posting lists;
* every per-tree labeling distance oracle — Euler tour, depth sequence,
  first occurrences and the sparse-table levels, so the O(n log n) doubling
  construction is skipped on load;
* the precomputed repository partition (when the service uses the default
  partition clusterer);
* the service configuration (thresholds, matcher, variant), so
  :func:`load_snapshot` returns a ready :class:`~repro.service.MatchingService`.

:func:`write_snapshot` materializes all derived state first, so a snapshot is
*complete*: a loader never rebuilds anything.  :func:`load_snapshot` maps the
file and returns in O(header) time regardless of repository size; every heavy
structure is a view that decodes what a query touches, on first touch
(:mod:`repro.storage.frozen`).  The container layout and its version policy
live in :mod:`repro.storage.format`.

Not everything is serializable: custom matcher objects, custom clusterers and
reclustering strategies carry code.  Snapshots record what they can (a config
descriptor for the bundled matchers, the preset variant name, the reclustering
strategy *name*) and :func:`load_snapshot` insists the caller supply the
missing objects rather than silently substituting defaults.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional

from repro.clustering.kmeans import Clusterer
from repro.clustering.reclustering import ReclusteringStrategy
from repro.errors import ClusteringError, ConfigurationError, ReproError
from repro.mapping.base import MappingGenerator
from repro.matchers.base import ElementMatcher
from repro.matchers.name import FuzzyNameMatcher, NGramNameMatcher, TokenNameMatcher
from repro.objective.base import ObjectiveFunction
from repro.service.partition import PartitionClusterer
from repro.service.service import MatchingService
from repro.system.results import DEFAULT_QUERY_CACHE_SIZE

# ``repro.storage`` builds on this package (partitions, fingerprints), so its
# modules are imported where they are used rather than at import time.


def _matcher_config(matcher: ElementMatcher) -> Optional[Dict[str, Any]]:
    """A reconstructible descriptor of a bundled matcher, else ``None``."""
    if type(matcher) is FuzzyNameMatcher:
        return {"type": "fuzzy-name", "case_sensitive": matcher.case_sensitive}
    if type(matcher) is NGramNameMatcher:
        return {
            "type": "ngram-name",
            "size": matcher.size,
            "case_sensitive": matcher.case_sensitive,
        }
    if type(matcher) is TokenNameMatcher and matcher.synonyms is None:
        return {
            "type": "token-name",
            "expand": matcher.expand,
            "coverage_weight": matcher.coverage_weight,
        }
    return None


def _matcher_from_config(config: Optional[Dict[str, Any]]) -> ElementMatcher:
    if config is None:
        raise ReproError(
            "snapshot does not describe its matcher (a custom matcher was used); "
            "pass matcher= to load_snapshot"
        )
    kind = config.get("type")
    if kind == "fuzzy-name":
        return FuzzyNameMatcher(case_sensitive=bool(config.get("case_sensitive", False)))
    if kind == "ngram-name":
        return NGramNameMatcher(
            size=int(config.get("size", 3)),
            case_sensitive=bool(config.get("case_sensitive", False)),
        )
    if kind == "token-name":
        return TokenNameMatcher(
            expand=bool(config.get("expand", True)),
            coverage_weight=float(config.get("coverage_weight", 0.5)),
        )
    raise ReproError(f"snapshot names an unknown matcher type {kind!r}")


def snapshot_config(
    *,
    element_threshold: float,
    delta: float,
    matcher: ElementMatcher,
    variant: Optional[str] = PartitionClusterer.name,
    query_cache_size: int = DEFAULT_QUERY_CACHE_SIZE,
) -> Dict[str, Any]:
    """The header ``config`` block that :func:`load_snapshot` rebuilds a service from.

    Every writer takes it from here — :func:`write_snapshot` for a live
    service, the ingestion merge for a default service over its corpus — so
    no two writers can record it differently.  The defaults are
    :class:`MatchingService`'s.
    """
    return {
        "element_threshold": element_threshold,
        "delta": delta,
        "variant": variant,
        "matcher": _matcher_config(matcher),
        # No loader reads it (every service takes the batch element-matching
        # path its matcher supports); kept so written files stay
        # byte-identical.
        "use_batch_matching": None,
        "query_cache_size": query_cache_size,
    }


def write_snapshot(service: MatchingService, path: str | Path) -> Dict[str, Any]:
    """Write a complete service snapshot to ``path`` and return its header.

    All derived state is materialized first.  The write is atomic (temp file
    + rename in the target directory), so a crash mid-write can never
    truncate an existing good snapshot — serving processes keep a loadable
    file at all times.
    """
    from repro.storage.builder import _FrozenWriter

    service.build_derived_state()
    repository = service.repository
    writer = _FrozenWriter(repository.name)
    writer.set_config(
        snapshot_config(
            element_threshold=service.element_threshold,
            delta=service.delta,
            matcher=service.matcher,
            variant=service.variant_name,
            query_cache_size=service.query_cache_size,
        )
    )
    partition = service.partition
    if partition is not None:
        writer.set_partition(
            partition.max_fragment_size,
            None if partition.reclustering is None else partition.reclustering.name,
        )
    oracle = service.oracle
    for tree in repository.trees():
        tree_id = tree.tree_id
        writer.add_tree(
            tree,
            oracle_payload=oracle.oracle(tree_id).to_payload(),
            fragments=(
                partition.fragments_for(repository, tree_id, oracle)
                if partition is not None
                else None
            ),
        )
    indexes = repository.cached_name_indexes()
    for index in indexes.values():
        index.ensure_blocking()
        blocking = index.blocking_payload()
        writer.add_index(
            index.case_sensitive,
            list(index.keys),
            index.node_name_ids(),
            gram_counts=blocking["gram_counts"],
            postings=blocking["postings"],
        )
    if not indexes:
        # A matcher without batch support builds no index; synthesize the
        # matcher's case mode so every open stays O(header).
        writer.add_index_from_forest(
            bool(getattr(service.matcher, "case_sensitive", True))
        )
    return writer.write(path)


def load_snapshot(
    path: str | Path,
    *,
    matcher: Optional[ElementMatcher] = None,
    objective: Optional[ObjectiveFunction] = None,
    generator: Optional[MappingGenerator] = None,
    clusterer: Optional[Clusterer] = None,
    partition_reclustering: Optional[ReclusteringStrategy] = None,
    query_cache_size: Optional[int] = None,
) -> MatchingService:
    """A ready :class:`MatchingService` over the snapshot at ``path``.

    O(header) regardless of repository size: the repository, name indexes,
    distance oracle and partition are all frozen views.  Keyword overrides
    replace the corresponding snapshot configuration; they are *required*
    where the snapshot records that a non-serializable object was in play
    (custom matcher or clusterer, partition reclustering).
    ``query_cache_size`` replaces the recorded result-cache capacity: the
    number of compact answers the cache keeps (see
    :class:`~repro.system.results.ResultCache`).

    Each call maps the file anew and builds a fresh object graph, so two
    loaded services never observe each other's thaws and a replaced file is
    read at its current generation.  The mapping and its file descriptor live
    as long as the service's views reference them.
    """
    from repro.storage.format import open_frozen
    from repro.storage.frozen import (
        FrozenNameIndex,
        FrozenPartition,
        FrozenRepository,
        FrozenRepositoryDistanceOracle,
    )

    snapshot = open_frozen(path)
    header = snapshot.header
    config = header.get("config", {})
    repository = FrozenRepository(snapshot)
    if matcher is None:
        matcher = _matcher_from_config(config.get("matcher"))

    variant = config.get("variant")
    kwargs: Dict[str, Any] = {}
    if clusterer is not None:
        kwargs["clusterer"] = clusterer
    elif variant == PartitionClusterer.name:
        partition_meta = header.get("partition")
        if partition_meta is not None:
            recorded = partition_meta.get("reclustering")
            if recorded is not None and partition_reclustering is None:
                raise ClusteringError(
                    f"snapshot partition was built with reclustering strategy {recorded!r}; "
                    "pass an equivalent strategy via partition_reclustering to load it"
                )
            # The constructor adopts the clusterer's partition, so mutations
            # on the loaded service keep maintaining the loaded fragments.
            kwargs["clusterer"] = PartitionClusterer(
                FrozenPartition(snapshot, reclustering=partition_reclustering)
            )
    elif variant is not None:
        kwargs["variant"] = variant
    else:
        raise ConfigurationError(
            "snapshot was written with a custom clusterer; pass clusterer= to load_snapshot"
        )

    service = MatchingService(
        repository,
        matcher=matcher,
        objective=objective,
        generator=generator,
        element_threshold=float(config.get("element_threshold", 0.6)),
        delta=float(config.get("delta", 0.75)),
        query_cache_size=(
            int(config.get("query_cache_size", DEFAULT_QUERY_CACHE_SIZE))
            if query_cache_size is None
            else query_cache_size
        ),
        **kwargs,
    )
    # The pipeline builds a plain lazy oracle in its constructor; swap in the
    # frozen one before anything queries it (Bellflower reads ``self.oracle``
    # at call time only).
    service._system.oracle = FrozenRepositoryDistanceOracle(snapshot, repository)
    for position in range(len(header.get("indexes", []))):
        repository.install_name_index(FrozenNameIndex(snapshot, position))
    return service
