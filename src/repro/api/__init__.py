"""The unified query API: typed envelopes, one ``Matcher`` protocol, a server.

This package is the one stable, versioned surface over the backends' query
entry points (``Bellflower.match``, ``MatchingService.match``,
``ShardedMatchingService.match/match_many``), and its v1 envelopes are the
only request dialect the serving transports speak:

* :mod:`repro.api.envelope` — typed request/response dataclasses with a
  versioned ``to_wire()``/``from_wire()`` codec (``{"v": 1, ...}``), the
  single wire format for CLI, server and tests;
* :mod:`repro.api.validation` — the API-boundary parameter checks every
  backend shares (one :class:`~repro.errors.InvalidRequestError`);
* :mod:`repro.api.matcher` — the :class:`Matcher` protocol and the mixin
  that layers typed dispatch over each backend's legacy entry points;
* :mod:`repro.api.dispatch` — the transport-free request dispatcher the
  stdin loop and the TCP server share: one ready greeting, then one v1
  response envelope per request line (an error envelope when the line is
  not a valid v1 request or handling it fails);
* :mod:`repro.api.server` — the concurrent asyncio JSONL TCP server
  (``cli serve --port``).

This package never imports a backend at runtime (backends import *it*), so
``repro.system`` / ``repro.service`` / ``repro.shard`` can all implement the
protocol without import cycles.
"""

from repro.api.dispatch import RequestDispatcher
from repro.api.encode import explain_report, mapping_record, match_response
from repro.api.envelope import (
    DEPRECATED_TOP_WARNING,
    PROTOCOL_VERSION,
    AssignmentEntry,
    BatchRequest,
    BatchResponse,
    ClusterStat,
    ErrorResponse,
    ExplainReport,
    MappingRecord,
    MatchOptions,
    MatchRequest,
    MatchResponse,
    MutationRequest,
    MutationResponse,
    StatsRequest,
    StatsResponse,
    check_envelope,
    parse_request,
)
from repro.api.matcher import Matcher, MatcherAPIMixin
from repro.api.server import MatcherServer, run_server
from repro.api.validation import (
    validate_delta,
    validate_page,
    validate_query,
    validate_top_k,
)

__all__ = [
    "AssignmentEntry",
    "BatchRequest",
    "BatchResponse",
    "ClusterStat",
    "DEPRECATED_TOP_WARNING",
    "ErrorResponse",
    "ExplainReport",
    "MappingRecord",
    "MatchOptions",
    "MatchRequest",
    "MatchResponse",
    "Matcher",
    "MatcherAPIMixin",
    "MatcherServer",
    "MutationRequest",
    "MutationResponse",
    "PROTOCOL_VERSION",
    "RequestDispatcher",
    "StatsRequest",
    "StatsResponse",
    "check_envelope",
    "explain_report",
    "mapping_record",
    "match_response",
    "parse_request",
    "run_server",
    "validate_delta",
    "validate_page",
    "validate_query",
    "validate_top_k",
]
