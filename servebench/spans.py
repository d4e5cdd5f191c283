"""Per-layer spans for the traced run, recorded from the benchmark's side.

:func:`instrument` wraps the entry point of each layer of the serving path —
the functions the layer above calls — in a span recorder, so the program
runs its real code path while every call into a layer leaves a span.  A span
records its layer, its start and end, the span that caused it and the
request it belongs to.  Spans stay in memory; :meth:`SpanRecorder.self_seconds`
reduces them after the run.

Work counts are read off the arguments and return values of the same calls
(mapping elements, names the kernel scores, batches the vectorized kernel
accepts, partial mappings, name-score memo lookups and hits), so they count
work where it happens — a cached answer replayed by a front-end adds none.

A layer's *self time* is its span's duration minus the part covered by its
child spans; the client-side ``transport`` span is the root of each request,
so its self time is everything outside the server's dispatcher: socket I/O,
the event loop, the hand-off to the worker thread, and response JSON.

Layers (the module attribute each span wraps):

``dispatch``
    ``RequestDispatcher.handle_line`` — request JSON parsing, locking, envelope
    routing (the server-side root of each request).
``decode``
    ``parse_request`` and ``MatchRequest.build_schema`` — envelope validation
    and personal-schema construction.
``backend``
    the Matcher front-ends: typed-request grouping, batch dedup, per-query
    bookkeeping, and for the sharded backend the fan-out and merge.
``cache``
    schema fingerprints and every LRU lookup/insert (query cache, merged
    result cache, per-name score memo).
``stage1`` / ``stage1_prefilter`` / ``stage1_kernel``
    element matching; the name-index candidate prefilter; scoring the
    prefilter's survivors (the vectorized kernel, or the scalar loop the
    matcher falls back to when the kernel declines).
``stage2``
    clustering (partition lookup).
``stage3``
    mapping generation (branch and bound) and ranking merge.
``encode``
    response envelope construction and its ``to_wire`` rendering.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Dict, List, Tuple

from repro.api import dispatch, encode, envelope, matcher
from repro.matchers import index, name
from repro.service import service
from repro.shard import service as shard_service
from repro.system.bellflower import Bellflower


def _memo_counts(args, entry):
    """Lookups and hits of the per-name score memo among all LRU lookups.

    Name-score memo keys are ``(index version, personal name, threshold)``;
    query- and result-cache keys start with a schema fingerprint instead.
    """
    key = args[1]
    if isinstance(key, tuple) and len(key) == 3 and isinstance(key[1], str):
        return {"name_memo_lookups": 1, "name_memo_hits": int(entry is not None)}
    return {}


#: (owner, attribute, layer, counts) for every wrapped entry point; ``counts``
#: reads work counts off the call's arguments and return value, where the
#: work happened.
LAYER_ENTRY_POINTS = (
    (dispatch.RequestDispatcher, "handle_line", "dispatch", None),
    (dispatch, "parse_request", "decode", None),
    (envelope.MatchRequest, "build_schema", "decode", None),
    (matcher.MatcherAPIMixin, "_execute_requests", "backend", None),
    (service.MatchingService, "_match_many_schemas", "backend", None),
    (service.MatchingService, "_match_schema", "backend", None),
    (shard_service.ShardedMatchingService, "_match_many_schemas", "backend", None),
    (Bellflower, "_match_schema", "backend", None),
    (service, "schema_fingerprint", "cache", None),
    (shard_service, "schema_fingerprint", "cache", None),
    (index.LRUMemo, "get", "cache", _memo_counts),
    (index.LRUMemo, "put", "cache", None),
    (
        Bellflower,
        "element_matching",
        "stage1",
        lambda args, sets: {"mapping_elements": sets.total()},
    ),
    (
        index.RepositoryNameIndex,
        "fuzzy_candidates",
        "stage1_prefilter",
        lambda args, survivors: {"kernel_pairs": len(survivors[0])},
    ),
    (name.FuzzyNameMatcher, "batch_scores", "stage1_kernel", None),
    (
        name,
        "batch_fuzzy_scores",
        "stage1_kernel",
        lambda args, scores: {"kernel_batches": 1, "kernel_vectorized": int(scores is not None)},
    ),
    (Bellflower, "cluster_candidates", "stage2", None),
    (
        Bellflower,
        "generate_mappings",
        "stage3",
        lambda args, outcome: {"partial_mappings": outcome[0].counters.get("partial_mappings")},
    ),
    (encode, "match_response", "encode", None),
    (envelope.MatchResponse, "to_wire", "encode", None),
)

LAYERS = ("transport",) + tuple(dict.fromkeys(entry[2] for entry in LAYER_ENTRY_POINTS))
#: Work counts reported per request (the kernel and memo counts become shares).
COUNTS = ("mapping_elements", "kernel_pairs", "partial_mappings")

#: One finished span: (request id, span id, parent span id, layer, start, end).
Span = Tuple[int, int, int, str, float, float]


class SpanRecorder:
    """Collects spans from the client thread and the server's worker threads.

    The benchmark's client is a closed loop with one request in flight, so a
    server-side span with no parent on its own thread belongs to the
    request the client opened last.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0
        self._request = 0
        self._request_span = 0

    def _new_id(self) -> int:
        with self._lock:
            self._next_id += 1
            return self._next_id

    def _finish(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def begin_request(self) -> int:
        """Open the next request's root span; server-side spans attach to it."""
        span_id = self._new_id()
        self._request += 1
        self._request_span = span_id
        return span_id

    def end_request(self, span_id: int, start: float, end: float) -> None:
        self._finish((self._request, span_id, 0, "transport", start, end))

    def wrap(self, function, layer: str, counts=None):
        recorder = self

        def traced(*args, **kwargs):
            stack = getattr(recorder._local, "stack", None)
            if stack is None:
                stack = recorder._local.stack = []
            parent = stack[-1] if stack else recorder._request_span
            request = recorder._request
            span_id = recorder._new_id()
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                recorder._finish((request, span_id, parent, layer, start, end))
            if counts is not None:
                with recorder._lock:
                    for key, value in counts(args, result).items():
                        recorder.counts[key] += value
            return result

        traced.__wrapped__ = function
        return traced

    def self_seconds(self) -> Dict[str, float]:
        """Total self time per layer over every recorded span."""
        covered: Dict[int, float] = defaultdict(float)
        for _request, _span, parent, _layer, start, end in self.spans:
            covered[parent] += end - start
        totals: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        for _request, span_id, _parent, layer, start, end in self.spans:
            totals[layer] += (end - start) - covered.get(span_id, 0.0)
        return totals


def instrument(recorder: SpanRecorder):
    """Wrap every layer entry point; returns a function that undoes it."""
    originals = []
    for owner, attribute, layer, counts in LAYER_ENTRY_POINTS:
        original = owner.__dict__[attribute]
        originals.append((owner, attribute, original))
        setattr(owner, attribute, recorder.wrap(original, layer, counts))

    def restore() -> None:
        for owner, attribute, original in reversed(originals):
            setattr(owner, attribute, original)

    return restore
