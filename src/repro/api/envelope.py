"""Typed request/response envelopes with a versioned wire codec.

One wire format for every front-end.  Before this package, the repo exposed
four query surfaces: three divergent ``match`` signatures and the untyped
JSON dicts of the serve loop (with its ``"top"`` vs ``"top_k"`` naming wart).
The envelopes below are the single typed vocabulary all of them now share:

* :class:`MatchRequest` — a personal schema plus :class:`MatchOptions`
  (``delta``, ``top_k``, ``explain``, result page);
* :class:`MatchResponse` — the ranked :class:`MappingRecord` page, counters,
  stage timings and an optional :class:`ExplainReport`;
* :class:`BatchRequest` / :class:`BatchResponse` — many match requests in one
  envelope (served by ``match_many``: fingerprint dedup + batching);
* :class:`MutationRequest` / :class:`MutationResponse` — add/remove a tree;
* :class:`StatsRequest` / :class:`StatsResponse` — operational stats or the
  backend's :meth:`describe` card;
* :class:`ErrorResponse` — the failure envelope.

Wire format and version policy
------------------------------
``to_wire()`` emits a plain JSON-serializable dict carrying ``{"v": 1,
"kind": "<kind>", ...}``; ``from_wire()`` parses one back.  The codec is
versioned as a unit: a payload whose ``"v"`` differs from
:data:`PROTOCOL_VERSION` is rejected with
:class:`~repro.errors.InvalidRequestError` (clients must not guess), while
*unknown fields are ignored* so v1 servers tolerate forward-compatible
additive clients.  Every codec satisfies ``from_wire(to_wire(x)) == x``
(pinned by hypothesis round-trip properties in ``tests/api``).

Deprecated aliases
------------------
v1 match options accept ``"top"`` as a deprecated alias for ``"top_k"`` (the
legacy serve protocol used ``top`` to trim the printed list and ``top_k`` to
bound the search — the wart this codec retires).  The alias maps through and
the response carries a warning string; new clients must send ``top_k`` and
use ``offset``/``limit`` for result paging.

Tree-id shift rule
------------------
Repository tree ids are *positional*: removing tree ``t`` shifts every id
``> t`` down by one.  Mutation responses therefore return the stable
``tree_name`` alongside the positional ``tree_id``, and removal requests may
name the tree (``tree_name``) instead of numbering it — names survive
shifts, ids returned by earlier ``add`` responses are invalidated by any
remove.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.api.validation import (
    validate_delta,
    validate_page,
    validate_timeout_ms,
    validate_top_k,
)
from repro.errors import InvalidRequestError
from repro.schema.builder import TreeBuilder
from repro.schema.serialization import tree_from_dict, tree_to_dict
from repro.schema.tree import SchemaTree

#: The wire-protocol version this build speaks.  Bumped only by PRs that
#: change envelope semantics; additive fields do not bump it (v1 parsers
#: ignore unknown keys).
PROTOCOL_VERSION = 1

#: Accepted encodings of a schema on the wire: the nested ``{root: children}``
#: shorthand the CLI always spoke, and the full-fidelity serialized tree
#: (kinds, datatypes, properties) of :func:`~repro.schema.serialization.tree_to_dict`.
SCHEMA_FORMATS = ("nested", "tree")

DEPRECATED_TOP_WARNING = (
    "field 'top' is deprecated in v1 match options: it was mapped to 'top_k'; "
    "use 'top_k' to bound the search and 'offset'/'limit' to page results"
)

DEPRECATED_TOP_IGNORED_WARNING = (
    "field 'top' is deprecated in v1 match options and was ignored because "
    "'top_k' was also given; use 'offset'/'limit' to page results"
)


def check_envelope(payload: object, kind: Optional[str] = None) -> Mapping:
    """Validate the ``{"v": 1, "kind": ...}`` frame shared by every envelope."""
    if not isinstance(payload, Mapping):
        raise InvalidRequestError(
            f"envelope must be a JSON object, got {type(payload).__name__}"
        )
    version = payload.get("v")
    # Strict: the version must be the integer 1 — True and 1.0 compare equal
    # to 1 in Python but are not valid protocol versions on the wire.
    if (
        isinstance(version, bool)
        or not isinstance(version, int)
        or version != PROTOCOL_VERSION
    ):
        raise InvalidRequestError(
            f"unsupported protocol version {version!r} (this build speaks v{PROTOCOL_VERSION})"
        )
    if kind is not None and payload.get("kind") != kind:
        raise InvalidRequestError(
            f"expected a {kind!r} envelope, got kind {payload.get('kind')!r}"
        )
    return payload


def build_schema_payload(schema: Mapping, schema_format: str, name: str) -> SchemaTree:
    """Materialize the schema a request carries into a :class:`SchemaTree`."""
    if schema_format == "tree":
        return tree_from_dict(dict(schema))
    return TreeBuilder.from_nested(schema, name=name)


def _check_schema_payload(schema: object, schema_format: object) -> None:
    if not isinstance(schema, Mapping) or not schema:
        raise InvalidRequestError("request needs a non-empty 'schema' object")
    if schema_format not in SCHEMA_FORMATS:
        raise InvalidRequestError(
            f"schema_format must be one of {SCHEMA_FORMATS}, got {schema_format!r}"
        )


# -- match -------------------------------------------------------------------


@dataclass(frozen=True)
class MatchOptions:
    """Everything that shapes one query besides the schema itself.

    ``delta`` / ``top_k`` override the backend's search semantics (validated
    at the API boundary, see :mod:`repro.api.validation`); ``explain``
    requests an :class:`ExplainReport`; ``offset``/``limit`` page the ranked
    mapping list *after* the search (they never change what is searched,
    only what is returned).  ``timeout_ms`` puts a cooperative
    :class:`~repro.resilience.Deadline` on the search: on expiry the backend
    returns its current incumbents with ``partial: true`` in the response
    instead of running to completion (an additive v1 field — servers without
    it ignore the key and simply never produce partials).
    """

    delta: Optional[float] = None
    top_k: Optional[int] = None
    explain: bool = False
    offset: int = 0
    limit: Optional[int] = None
    timeout_ms: Optional[int] = None

    def validate(self) -> "MatchOptions":
        validate_delta(self.delta)
        validate_top_k(self.top_k)
        if not isinstance(self.explain, bool):
            raise InvalidRequestError(f"explain must be a boolean, got {self.explain!r}")
        validate_page(self.offset, self.limit)
        validate_timeout_ms(self.timeout_ms)
        return self

    def to_wire(self) -> Dict[str, object]:
        return {
            "delta": self.delta,
            "top_k": self.top_k,
            "explain": self.explain,
            "offset": self.offset,
            "limit": self.limit,
            "timeout_ms": self.timeout_ms,
        }

    @classmethod
    def from_wire(cls, payload: object) -> "MatchOptions":
        options, _warnings = options_from_wire(payload)
        return options


def options_from_wire(payload: object) -> Tuple[MatchOptions, Tuple[str, ...]]:
    """Parse match options, returning deprecation warnings alongside.

    The warnings (currently only the ``top`` → ``top_k`` alias) belong in the
    *response*, so the caller threads them through the request's
    non-comparing ``warnings`` field.
    """
    if payload is None:
        return MatchOptions(), ()
    if not isinstance(payload, Mapping):
        raise InvalidRequestError(
            f"options must be a JSON object, got {type(payload).__name__}"
        )
    warnings = []
    top_k = payload.get("top_k")
    if payload.get("top") is not None:
        if top_k is None:
            top_k = payload["top"]
            warnings.append(DEPRECATED_TOP_WARNING)
        else:
            warnings.append(DEPRECATED_TOP_IGNORED_WARNING)
    options = MatchOptions(
        delta=payload.get("delta"),
        top_k=top_k,
        explain=payload.get("explain", False),
        offset=payload.get("offset", 0),
        limit=payload.get("limit"),
        timeout_ms=payload.get("timeout_ms"),
    ).validate()
    return options, tuple(warnings)


@dataclass(frozen=True)
class MatchRequest:
    """One typed query: a schema (wire form) plus :class:`MatchOptions`.

    ``schema`` stays in wire form (a plain dict) so the request is cheap to
    build, compare and re-serialize; :meth:`build_schema` materializes the
    :class:`~repro.schema.tree.SchemaTree` when a backend executes it.
    ``warnings`` carries parse-time deprecation notices into the response; it
    is excluded from equality so codec round-trips compare on content.
    """

    schema: Mapping[str, object]
    schema_format: str = "nested"
    name: str = "personal"
    options: MatchOptions = MatchOptions()
    warnings: Tuple[str, ...] = field(default=(), compare=False)
    #: Memoized result of :meth:`build_schema` — re-executing one request
    #: object (retries, fan-out to several backends) must not re-parse the
    #: tree.  Never compared, never on the wire.
    _schema_cache: Optional[SchemaTree] = field(
        default=None, init=False, compare=False, repr=False
    )

    kind = "match"

    @classmethod
    def from_schema(
        cls,
        tree: SchemaTree,
        *,
        delta: Optional[float] = None,
        top_k: Optional[int] = None,
        explain: bool = False,
        offset: int = 0,
        limit: Optional[int] = None,
        timeout_ms: Optional[int] = None,
    ) -> "MatchRequest":
        """Wrap an in-memory tree with full fidelity (kinds, datatypes, properties)."""
        return cls(
            schema=tree_to_dict(tree),
            schema_format="tree",
            name=tree.name,
            options=MatchOptions(
                delta=delta,
                top_k=top_k,
                explain=explain,
                offset=offset,
                limit=limit,
                timeout_ms=timeout_ms,
            ),
        )

    def build_schema(self) -> SchemaTree:
        if self._schema_cache is None:
            # A benign race under concurrent executors: both threads build
            # the same tree, last write wins.
            object.__setattr__(
                self,
                "_schema_cache",
                build_schema_payload(self.schema, self.schema_format, self.name),
            )
        return self._schema_cache

    def to_wire(self) -> Dict[str, object]:
        return {
            "v": PROTOCOL_VERSION,
            "kind": self.kind,
            "schema": dict(self.schema),
            "schema_format": self.schema_format,
            "name": self.name,
            "options": self.options.to_wire(),
        }

    @classmethod
    def from_wire(cls, payload: object) -> "MatchRequest":
        data = check_envelope(payload, kind=cls.kind)
        schema = data.get("schema")
        schema_format = data.get("schema_format", "nested")
        _check_schema_payload(schema, schema_format)
        name = data.get("name", "personal")
        if not isinstance(name, str) or not name:
            raise InvalidRequestError(f"name must be a non-empty string, got {name!r}")
        options, warnings = options_from_wire(data.get("options"))
        return cls(
            schema=dict(schema),
            schema_format=schema_format,
            name=name,
            options=options,
            warnings=warnings,
        )


@dataclass(frozen=True)
class AssignmentEntry:
    """One personal-node → repository-node edge of a mapping (path form)."""

    personal: str
    repository: str
    similarity: float

    def to_wire(self) -> Dict[str, object]:
        return {
            "personal": self.personal,
            "repository": self.repository,
            "similarity": self.similarity,
        }

    @classmethod
    def from_wire(cls, payload: object) -> "AssignmentEntry":
        if not isinstance(payload, Mapping):
            raise InvalidRequestError("assignment entry must be a JSON object")
        return cls(
            personal=payload.get("personal", ""),
            repository=payload.get("repository", ""),
            similarity=payload.get("similarity", 0.0),
        )


@dataclass(frozen=True)
class MappingRecord:
    """One ranked mapping in wire form: score, target tree, assignment paths."""

    score: float
    tree: str
    tree_id: int
    assignment: Tuple[AssignmentEntry, ...]

    def to_wire(self) -> Dict[str, object]:
        return {
            "score": self.score,
            "tree": self.tree,
            "tree_id": self.tree_id,
            "assignment": [entry.to_wire() for entry in self.assignment],
        }

    @classmethod
    def from_wire(cls, payload: object) -> "MappingRecord":
        if not isinstance(payload, Mapping):
            raise InvalidRequestError("mapping record must be a JSON object")
        return cls(
            score=payload.get("score", 0.0),
            tree=payload.get("tree", ""),
            tree_id=payload.get("tree_id", -1),
            assignment=tuple(
                AssignmentEntry.from_wire(entry) for entry in payload.get("assignment", [])
            ),
        )


@dataclass(frozen=True)
class ClusterStat:
    """Per-cluster search statistics for :class:`ExplainReport`."""

    cluster_id: int
    tree_id: int
    member_count: int
    mapping_element_count: int
    search_space: int

    def to_wire(self) -> Dict[str, object]:
        return {
            "cluster_id": self.cluster_id,
            "tree_id": self.tree_id,
            "member_count": self.member_count,
            "mapping_element_count": self.mapping_element_count,
            "search_space": self.search_space,
        }

    @classmethod
    def from_wire(cls, payload: object) -> "ClusterStat":
        if not isinstance(payload, Mapping):
            raise InvalidRequestError("cluster stat must be a JSON object")
        return cls(
            cluster_id=payload.get("cluster_id", -1),
            tree_id=payload.get("tree_id", -1),
            member_count=payload.get("member_count", 0),
            mapping_element_count=payload.get("mapping_element_count", 0),
            search_space=payload.get("search_space", 0),
        )


@dataclass(frozen=True)
class ExplainReport:
    """How the search went: useful clusters, search space, pruning totals.

    ``partial`` mirrors the response-level flag: the search hit its deadline
    and these statistics describe the truncated run, not a complete one.
    """

    useful_clusters: int
    search_space: int
    partial_mappings: int
    clusters: Tuple[ClusterStat, ...] = ()
    partial: bool = False

    def to_wire(self) -> Dict[str, object]:
        return {
            "useful_clusters": self.useful_clusters,
            "search_space": self.search_space,
            "partial_mappings": self.partial_mappings,
            "clusters": [stat.to_wire() for stat in self.clusters],
            "partial": self.partial,
        }

    @classmethod
    def from_wire(cls, payload: object) -> "ExplainReport":
        if not isinstance(payload, Mapping):
            raise InvalidRequestError("explain report must be a JSON object")
        return cls(
            useful_clusters=payload.get("useful_clusters", 0),
            search_space=payload.get("search_space", 0),
            partial_mappings=payload.get("partial_mappings", 0),
            clusters=tuple(
                ClusterStat.from_wire(stat) for stat in payload.get("clusters", [])
            ),
            partial=bool(payload.get("partial", False)),
        )


@dataclass(frozen=True)
class MatchResponse:
    """The ranked mapping page plus everything a client needs to trust it.

    ``mappings`` is the requested page (``offset``/``limit`` applied);
    ``mapping_count`` is the total the search produced, so clients can page.
    ``counters``/``timings`` carry the run's
    :class:`~repro.utils.counters.CounterSet` and stage timer values.

    Two resilience flags qualify the answer (both additive v1 fields):
    ``partial`` — the search deadline expired and the mappings are the
    incumbents found so far, not the complete ranking; ``degraded`` — one or
    more shards were skipped (dead or breaker-open) and ``skipped_shards``
    names them, so the ranking covers only the surviving shards.  A response
    with neither flag is exact.
    """

    mappings: Tuple[MappingRecord, ...]
    mapping_count: int
    offset: int = 0
    counters: Dict[str, int] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    explain: Optional[ExplainReport] = None
    warnings: Tuple[str, ...] = ()
    partial: bool = False
    degraded: bool = False
    skipped_shards: Tuple[int, ...] = ()

    kind = "match_response"

    def to_wire(self) -> Dict[str, object]:
        return {
            "v": PROTOCOL_VERSION,
            "kind": self.kind,
            "mappings": [record.to_wire() for record in self.mappings],
            "mapping_count": self.mapping_count,
            "offset": self.offset,
            "counters": dict(self.counters),
            "timings": dict(self.timings),
            "explain": None if self.explain is None else self.explain.to_wire(),
            "warnings": list(self.warnings),
            "partial": self.partial,
            "degraded": self.degraded,
            "skipped_shards": list(self.skipped_shards),
        }

    @classmethod
    def from_wire(cls, payload: object) -> "MatchResponse":
        data = check_envelope(payload, kind=cls.kind)
        explain = data.get("explain")
        return cls(
            mappings=tuple(
                MappingRecord.from_wire(record) for record in data.get("mappings", [])
            ),
            mapping_count=data.get("mapping_count", 0),
            offset=data.get("offset", 0),
            counters=dict(data.get("counters", {})),
            timings=dict(data.get("timings", {})),
            explain=None if explain is None else ExplainReport.from_wire(explain),
            warnings=tuple(data.get("warnings", [])),
            partial=bool(data.get("partial", False)),
            degraded=bool(data.get("degraded", False)),
            skipped_shards=tuple(data.get("skipped_shards", [])),
        )


# -- batch -------------------------------------------------------------------


@dataclass(frozen=True)
class BatchRequest:
    """Many match requests in one envelope — the wire form of ``match_many``."""

    requests: Tuple[MatchRequest, ...]

    kind = "batch"

    def to_wire(self) -> Dict[str, object]:
        return {
            "v": PROTOCOL_VERSION,
            "kind": self.kind,
            "requests": [request.to_wire() for request in self.requests],
        }

    @classmethod
    def from_wire(cls, payload: object) -> "BatchRequest":
        data = check_envelope(payload, kind=cls.kind)
        requests = data.get("requests")
        if not isinstance(requests, (list, tuple)) or not requests:
            raise InvalidRequestError(
                "batch request needs a non-empty 'requests' array of match envelopes"
            )
        return cls(requests=tuple(MatchRequest.from_wire(entry) for entry in requests))


@dataclass(frozen=True)
class BatchResponse:
    """One :class:`MatchResponse` per request, in request order."""

    results: Tuple[MatchResponse, ...]

    kind = "batch_response"

    # repro: allow[RPA006] 'queries' is a redundant convenience count for JSONL
    # consumers; the decoder derives it as len(results), so it cannot drift
    def to_wire(self) -> Dict[str, object]:
        return {
            "v": PROTOCOL_VERSION,
            "kind": self.kind,
            "results": [result.to_wire() for result in self.results],
            "queries": len(self.results),
        }

    @classmethod
    def from_wire(cls, payload: object) -> "BatchResponse":
        data = check_envelope(payload, kind=cls.kind)
        return cls(
            results=tuple(MatchResponse.from_wire(entry) for entry in data.get("results", []))
        )


# -- mutations ---------------------------------------------------------------


@dataclass(frozen=True)
class MutationRequest:
    """Add or remove a repository tree.

    ``add`` carries the new tree (``schema``/``schema_format``/``name``,
    exactly like a match request).  ``remove`` names the victim by positional
    ``tree_id`` *or* stable ``tree_name`` (exactly one): names survive the
    id shift every removal causes (see the module docstring), ids do not.
    """

    action: str
    schema: Optional[Mapping[str, object]] = None
    schema_format: str = "nested"
    name: Optional[str] = None
    tree_id: Optional[int] = None
    tree_name: Optional[str] = None

    kind = "mutation"

    def validate(self) -> "MutationRequest":
        if self.action not in ("add", "remove"):
            raise InvalidRequestError(
                f"mutation action must be 'add' or 'remove', got {self.action!r}"
            )
        if self.action == "add":
            _check_schema_payload(self.schema, self.schema_format)
        else:
            by_id = self.tree_id is not None
            by_name = self.tree_name is not None
            if by_id == by_name:
                raise InvalidRequestError(
                    "remove needs exactly one of 'tree_id' (positional) or 'tree_name' (stable)"
                )
            if by_id and (isinstance(self.tree_id, bool) or not isinstance(self.tree_id, int)):
                raise InvalidRequestError(f"tree_id must be an integer, got {self.tree_id!r}")
            if by_name and (not isinstance(self.tree_name, str) or not self.tree_name):
                raise InvalidRequestError(
                    f"tree_name must be a non-empty string, got {self.tree_name!r}"
                )
        return self

    def build_schema(self, default_name: str) -> SchemaTree:
        assert self.schema is not None  # validate() enforces it for "add"
        return build_schema_payload(self.schema, self.schema_format, self.name or default_name)

    def to_wire(self) -> Dict[str, object]:
        return {
            "v": PROTOCOL_VERSION,
            "kind": self.kind,
            "action": self.action,
            "schema": None if self.schema is None else dict(self.schema),
            "schema_format": self.schema_format,
            "name": self.name,
            "tree_id": self.tree_id,
            "tree_name": self.tree_name,
        }

    @classmethod
    def from_wire(cls, payload: object) -> "MutationRequest":
        data = check_envelope(payload, kind=cls.kind)
        schema = data.get("schema")
        return cls(
            action=data.get("action", ""),
            schema=None if schema is None else dict(schema),
            schema_format=data.get("schema_format", "nested"),
            name=data.get("name"),
            tree_id=data.get("tree_id"),
            tree_name=data.get("tree_name"),
        ).validate()


@dataclass(frozen=True)
class MutationResponse:
    """Outcome of a mutation: positional id *and* stable name, plus new size.

    ``tree_id`` is positional and is invalidated for every later tree by any
    subsequent remove; ``tree_name`` is the stable handle clients should keep.
    """

    ok: bool
    action: str
    tree_id: int
    tree_name: str
    trees: int
    warnings: Tuple[str, ...] = ()

    kind = "mutation_response"

    def to_wire(self) -> Dict[str, object]:
        return {
            "v": PROTOCOL_VERSION,
            "kind": self.kind,
            "ok": self.ok,
            "action": self.action,
            "tree_id": self.tree_id,
            "tree_name": self.tree_name,
            "trees": self.trees,
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_wire(cls, payload: object) -> "MutationResponse":
        data = check_envelope(payload, kind=cls.kind)
        return cls(
            ok=data.get("ok", False),
            action=data.get("action", ""),
            tree_id=data.get("tree_id", -1),
            tree_name=data.get("tree_name", ""),
            trees=data.get("trees", 0),
            warnings=tuple(data.get("warnings", [])),
        )


# -- stats -------------------------------------------------------------------


@dataclass(frozen=True)
class StatsRequest:
    """Ask for operational stats — or the backend's ``describe()`` card."""

    describe: bool = False

    kind = "stats"

    def to_wire(self) -> Dict[str, object]:
        return {"v": PROTOCOL_VERSION, "kind": self.kind, "describe": self.describe}

    @classmethod
    def from_wire(cls, payload: object) -> "StatsRequest":
        data = check_envelope(payload, kind=cls.kind)
        describe = data.get("describe", False)
        if not isinstance(describe, bool):
            raise InvalidRequestError(f"describe must be a boolean, got {describe!r}")
        return cls(describe=describe)


@dataclass(frozen=True)
class StatsResponse:
    """The uniform stats/describe dict every backend now produces."""

    stats: Dict[str, object]

    kind = "stats_response"

    def to_wire(self) -> Dict[str, object]:
        return {"v": PROTOCOL_VERSION, "kind": self.kind, "stats": dict(self.stats)}

    @classmethod
    def from_wire(cls, payload: object) -> "StatsResponse":
        data = check_envelope(payload, kind=cls.kind)
        stats = data.get("stats")
        if not isinstance(stats, Mapping):
            raise InvalidRequestError("stats response needs a 'stats' object")
        return cls(stats=dict(stats))


# -- errors ------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorResponse:
    """The v1 failure envelope (``error_type`` only for unexpected failures)."""

    error: str
    error_type: Optional[str] = None
    warnings: Tuple[str, ...] = ()

    kind = "error"

    def to_wire(self) -> Dict[str, object]:
        wire: Dict[str, object] = {
            "v": PROTOCOL_VERSION,
            "kind": self.kind,
            "error": self.error,
            "warnings": list(self.warnings),
        }
        if self.error_type is not None:
            wire["type"] = self.error_type
        return wire

    @classmethod
    def from_wire(cls, payload: object) -> "ErrorResponse":
        data = check_envelope(payload, kind=cls.kind)
        return cls(
            error=data.get("error", ""),
            error_type=data.get("type"),
            warnings=tuple(data.get("warnings", [])),
        )


#: Request envelopes by wire kind — the dispatch table of :func:`parse_request`.
REQUEST_KINDS = {
    MatchRequest.kind: MatchRequest,
    BatchRequest.kind: BatchRequest,
    MutationRequest.kind: MutationRequest,
    StatsRequest.kind: StatsRequest,
}


def parse_request(payload: object):
    """Parse any v1 request envelope by its ``kind`` field."""
    data = check_envelope(payload)
    kind = data.get("kind")
    request_cls = REQUEST_KINDS.get(kind)
    if request_cls is None:
        raise InvalidRequestError(
            f"unknown request kind {kind!r}; v{PROTOCOL_VERSION} requests are one of: "
            + ", ".join(sorted(REQUEST_KINDS))
        )
    return request_cls.from_wire(data)
