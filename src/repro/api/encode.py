"""Encode backend results into wire envelopes.

The translation from a :class:`~repro.system.results.MatchResult` (live
objects: mappings holding repository node refs, counter sets, stage timers)
into a :class:`~repro.api.envelope.MatchResponse` (plain records a JSON line
can carry) lives here, in one place, so the CLI, the stdin serve loop, the
asyncio server and the tests all render a mapping identically.  The functions
are duck-typed over the repository (``tree(tree_id)`` + path rendering) so
they serve the real :class:`~repro.schema.repository.SchemaRepository` and the
sharded merged-coordinate view alike — no runtime import of any backend.

Encoding renders each path once: a tree memoizes its nodes' root paths
(:meth:`~repro.schema.tree.SchemaTree.root_path`), and a result keeps the
records rendered for it (``MatchResult.rendered_records``), tagged with the
repository version they were rendered under.  A result the result cache
answers again therefore pays only for paging and ``to_wire``.  Sharing the
records between queries is sound because the cache key's fingerprint hashes
every node name and the parent structure, which is all a personal path reads;
the version tag re-renders a result encoded after a mutation that may have
renumbered its trees.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.api.envelope import (
    AssignmentEntry,
    ClusterStat,
    ExplainReport,
    MappingRecord,
    MatchOptions,
    MatchResponse,
)

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids backend imports
    from repro.mapping.model import SchemaMapping
    from repro.schema.tree import SchemaTree
    from repro.system.results import MatchResult


def mapping_record(repository, personal: "SchemaTree", mapping: "SchemaMapping") -> MappingRecord:
    """Render one mapping as paths (the stable, coordinate-free identity)."""
    tree = repository.tree(mapping.tree_id)
    return MappingRecord(
        score=mapping.score,
        tree=tree.name,
        tree_id=mapping.tree_id,
        assignment=tuple(
            AssignmentEntry(
                personal=personal.root_path(node_id),
                repository=tree.root_path(element.ref.node_id),
                similarity=element.similarity,
            )
            for node_id, element in sorted(mapping.assignment.items())
        ),
    )


def _page_records(
    repository, personal: "SchemaTree", result: "MatchResult", options: MatchOptions
) -> Tuple[MappingRecord, ...]:
    """The records of the page ``options`` selects, rendering only ranks not yet rendered.

    Rendered records stay on the result under the repository version they
    were rendered for; a result encoded under another version starts afresh.
    Threads encoding one result at once may render the same rank twice and
    store equal, immutable records, so no lock is taken.
    """
    mappings = result.mappings
    version = repository.version
    # getattr: a foreign Matcher's result object may not declare the field.
    rendered = getattr(result, "rendered_records", None)
    if rendered is None or rendered[0] != version:
        rendered = result.rendered_records = (version, [None] * len(mappings))
    records = rendered[1]
    end = None if options.limit is None else options.offset + options.limit
    page = []
    for rank in range(len(mappings))[options.offset : end]:
        record = records[rank]
        if record is None:
            record = records[rank] = mapping_record(repository, personal, mappings[rank])
        page.append(record)
    return tuple(page)


def explain_report(result: "MatchResult") -> ExplainReport:
    """Per-cluster search statistics plus the run's pruning totals."""
    return ExplainReport(
        useful_clusters=result.useful_cluster_count,
        search_space=result.search_space,
        partial_mappings=result.partial_mappings,
        partial=bool(getattr(result, "partial", False)),
        clusters=tuple(
            ClusterStat(
                cluster_id=report.cluster_id,
                tree_id=report.tree_id,
                member_count=report.member_count,
                mapping_element_count=report.mapping_element_count,
                search_space=report.search_space,
            )
            for report in result.cluster_reports
        ),
    )


def match_response(
    repository,
    personal: "SchemaTree",
    result: "MatchResult",
    options: MatchOptions,
    warnings: Tuple[str, ...] = (),
) -> MatchResponse:
    """Page and encode one result according to the request's options."""
    timings = dict(result.timers.elapsed())
    timings["total"] = result.total_seconds
    # getattr: foreign Matcher implementations may return result objects that
    # predate the resilience flags; absent flags mean an exact result.
    return MatchResponse(
        mappings=_page_records(repository, personal, result, options),
        mapping_count=len(result.mappings),
        offset=options.offset,
        counters=result.counters.as_dict(),
        timings=timings,
        explain=explain_report(result) if options.explain else None,
        warnings=warnings,
        partial=bool(getattr(result, "partial", False)),
        degraded=bool(getattr(result, "degraded", False)),
        skipped_shards=tuple(getattr(result, "skipped_shards", ()) or ()),
    )
