"""The ``Matcher`` protocol and the mixin that implements it for backends.

Every query backend — :class:`~repro.system.bellflower.Bellflower`, the
:class:`~repro.service.MatchingService`, the sharded fan-out — now speaks one
four-method surface:

* ``match(request)`` — one :class:`~repro.api.envelope.MatchRequest` in, one
  :class:`~repro.api.envelope.MatchResponse` out;
* ``match_many(requests)`` — a batch, answered through the one batch front
  end every backend shares (:meth:`MatcherAPIMixin._answer_batch`:
  fingerprint dedup, then the backend's result cache, if it keeps one);
* ``stats()`` — the uniform operational dict (backend kind, protocol
  version, cache capacities, shard breakdown where applicable);
* ``describe()`` — the static capability card.

Backward compatibility is a *shim, not a fork*: the same ``match`` /
``match_many`` names keep accepting the legacy
:class:`~repro.schema.tree.SchemaTree` + kwargs signatures bit-identically
(they dispatch on the argument type to the backend's ``_match_schema`` /
``_match_many_schemas``, which hold the pre-existing implementations).  The
typed path validates options at the boundary, builds the schema, groups
requests by ``(delta, top_k)`` and executes each group through the *legacy
batch path* — so typed and legacy queries run literally the same code and
the bit-identity acceptance tests compare equal by construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Protocol, Sequence, Set, runtime_checkable

from repro.api import encode
from repro.api.envelope import PROTOCOL_VERSION, MatchRequest, MatchResponse
from repro.api.validation import validate_query
from repro.errors import InvalidRequestError
from repro.resilience.deadline import Deadline

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.schema.tree import SchemaTree
    from repro.system.results import MatchResult, ResultCache
    from repro.utils.counters import CounterSet


@runtime_checkable
class Matcher(Protocol):
    """The one query surface every backend implements.

    ``match``/``match_many`` accept typed envelopes (and, for backward
    compatibility, the legacy tree + kwargs form); ``stats`` and ``describe``
    return uniform JSON-serializable dicts.  Checkable at runtime
    (``isinstance(backend, Matcher)``) because front-ends accept any
    implementation, not just the three bundled ones.
    """

    def match(self, request, *args, **kwargs): ...

    def match_many(self, requests, *args, **kwargs): ...

    def stats(self) -> Dict[str, object]: ...

    def describe(self) -> Dict[str, object]: ...


class MatcherAPIMixin:
    """Typed-envelope dispatch layered over a backend's legacy entry points.

    A backend subclasses this and provides:

    * ``_match_schema(personal_schema, delta=None, top_k=None, ...)`` — the
      pre-existing single-query implementation (the old ``match`` body);
    * optionally ``_result_key(schema, effective_delta, top_k)`` — the key
      under which :meth:`_answer_batch` deduplicates (and caches, when the
      backend keeps a ``_result_cache``); the default ``None`` reuses nothing;
    * optionally ``_match_many_schemas(schemas, delta=None, top_k=None)`` —
      the batch implementation (default: the batch front end over
      ``_match_schema``);
    * ``backend_kind`` — the stable name ``describe()``/``stats()`` report;
    * optionally ``_capabilities()`` and ``_describe_extra()`` to refine the
      capability card.
    """

    backend_kind: str = "matcher"
    #: Final results of earlier queries, keyed ``(schema fingerprint,
    #: effective δ, top_k, version)``; ``None`` on a backend that only
    #: deduplicates within a batch.
    _result_cache: Optional["ResultCache"] = None
    #: Front-end counters; ``None`` on a stateless backend.
    counters: Optional["CounterSet"] = None

    # -- the Matcher surface --------------------------------------------------

    def match(self, request, *args, **kwargs):
        """Typed: ``match(MatchRequest) -> MatchResponse``.  Legacy: unchanged."""
        if isinstance(request, MatchRequest):
            if args or kwargs:
                raise InvalidRequestError(
                    "a typed MatchRequest carries every option; extra arguments are not allowed"
                )
            return self._execute_requests([request])[0]
        return self._match_schema(request, *args, **kwargs)

    def match_many(self, requests, *args, **kwargs):
        """Typed: list of envelopes -> list of responses.  Legacy: unchanged."""
        items = list(requests)
        typed = [isinstance(item, MatchRequest) for item in items]
        if any(typed):
            if not all(typed):
                raise InvalidRequestError(
                    "match_many cannot mix MatchRequest envelopes with schema trees"
                )
            if args or kwargs:
                raise InvalidRequestError(
                    "typed MatchRequests carry every option; extra arguments are not allowed"
                )
            return self._execute_requests(items)
        return self._match_many_schemas(items, *args, **kwargs)

    def describe(self) -> Dict[str, object]:
        """The backend's capability card (static; ``stats()`` is the live view)."""
        card: Dict[str, object] = {
            "backend": self.backend_kind,
            "protocol_version": PROTOCOL_VERSION,
            "delta": self.delta,
            "element_threshold": self.element_threshold,
            "capabilities": sorted(self._capabilities()),
            "repository": {
                "trees": self.repository.tree_count,
                "nodes": self.repository.node_count,
            },
        }
        card.update(self._describe_extra())
        return card

    # -- typed execution ------------------------------------------------------

    def _execute_requests(self, requests: Sequence[MatchRequest]) -> List[MatchResponse]:
        """Validate, group by (δ, top_k, timeout), and run each group through the batch path.

        Grouping keeps the batch front end's dedup effective for typed
        batches (duplicate schemas with equal options collapse to one
        search) while still honouring per-request ``explain``
        and paging, which only shape the encoding.  A group's ``timeout_ms``
        becomes one :class:`~repro.resilience.Deadline` covering the whole
        group — the budget a client sets is wall-clock, so queries batched
        together share it rather than each restarting the clock.
        """
        for request in requests:
            request.options.validate()
        schemas = [request.build_schema() for request in requests]
        groups: Dict[tuple, List[int]] = {}
        for index, request in enumerate(requests):
            options = request.options
            groups.setdefault((options.delta, options.top_k, options.timeout_ms), []).append(index)
        responses: List[Optional[MatchResponse]] = [None] * len(requests)
        for (delta, top_k, timeout_ms), indexes in groups.items():
            # Only pass `deadline` when one was requested: foreign backends
            # overriding _match_many_schemas without the kwarg keep working.
            extra = (
                {} if timeout_ms is None else {"deadline": Deadline.after_ms(timeout_ms)}
            )
            results = self._match_many_schemas(
                [schemas[index] for index in indexes], delta=delta, top_k=top_k, **extra
            )
            for index, result in zip(indexes, results):
                responses[index] = encode.match_response(
                    self.repository,
                    schemas[index],
                    result,
                    requests[index].options,
                    warnings=requests[index].warnings,
                )
        return responses  # type: ignore[return-value]

    # -- the batch front end ---------------------------------------------------

    def _answer_batch(
        self,
        personal_schemas: Sequence["SchemaTree"],
        delta: Optional[float],
        top_k: Optional[int],
        compute: Callable[[List["SchemaTree"]], List["MatchResult"]],
    ) -> List["MatchResult"]:
        """Answer a batch of queries; result ``i`` belongs to schema ``i``.

        The one batch front end: the default batch path, and the one the
        bundled services route theirs through.  Schemas with equal
        ``_result_key`` collapse to one entry and share its result object;
        an entry the result cache holds is answered with the compact copy it
        stores (:meth:`~repro.system.results.MatchResult.compact`);
        ``compute(schemas)`` answers the remaining entries, in order, in one
        call, and their callers get the full results.  Only a whole answer is
        cached: a deadline-partial or degraded result is not the answer its
        key names.  A ``None`` key (a matcher that may read what the
        fingerprint does not hash) makes its schema an entry of its own,
        never looked up or stored.
        """
        validate_query(delta, top_k)
        effective_delta = self.delta if delta is None else delta
        cache = self._result_cache
        if cache is not None and not cache.capacity:
            cache = None
        # A key costs a fingerprint; a lone uncached query has no use for one.
        keyed = cache is not None or len(personal_schemas) > 1
        keys = [
            self._result_key(schema, effective_delta, top_k) if keyed else None
            for schema in personal_schemas
        ]
        first: Dict[tuple, int] = {}
        owners = [
            index if key is None else first.setdefault(key, index)
            for index, key in enumerate(keys)
        ]
        entries = [index for index, owner in enumerate(owners) if owner == index]
        looked_up = [index for index in entries if cache is not None and keys[index] is not None]
        results: List[Optional["MatchResult"]] = [None] * len(personal_schemas)
        for index in looked_up:
            results[index] = cache.get(keys[index])  # type: ignore[union-attr]
        hits = sum(results[index] is not None for index in looked_up)
        misses = [index for index in entries if results[index] is None]
        computed = compute([personal_schemas[index] for index in misses]) if misses else []
        for index, result in zip(misses, computed):
            results[index] = result
            key = keys[index]
            if cache is not None and key is not None and not (result.partial or result.degraded):
                cache.put(key, result)
        if self.counters is not None:
            self.counters.increment("queries", len(personal_schemas))
            self.counters.increment("duplicate_queries", len(personal_schemas) - len(entries))
            if looked_up:
                self.counters.increment("query_cache_hits", hits)
                self.counters.increment("query_cache_misses", len(looked_up) - hits)
            partials = sum(result.partial for result in computed)
            if partials:
                self.counters.increment("partials_returned", partials)
        return [results[owner] for owner in owners]  # type: ignore[misc]

    # -- hooks ---------------------------------------------------------------

    def _match_many_schemas(self, personal_schemas, delta=None, top_k=None, deadline=None):
        """Default batch path: the batch front end, one ``_match_schema`` call per miss."""
        extra = {} if deadline is None else {"deadline": deadline}
        return self._answer_batch(
            personal_schemas,
            delta,
            top_k,
            lambda misses: [
                self._match_schema(schema, delta=delta, top_k=top_k, **extra)
                for schema in misses
            ],
        )

    def _result_key(self, personal_schema, effective_delta, top_k) -> Optional[tuple]:
        """The batch front end's key for one query (default ``None``: no reuse).

        A backend returns ``(schema fingerprint, effective δ, top_k,
        version)``, or ``None`` when its matcher may read what the
        fingerprint does not hash.
        """
        return None

    def _capabilities(self) -> Set[str]:
        return {"match", "match_many", "top_k", "explain", "stats", "describe"}

    def _describe_extra(self) -> Dict[str, object]:
        return {}
