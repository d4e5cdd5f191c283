"""The one request dispatcher behind every serving front-end.

:class:`RequestDispatcher` turns one request line into one v1 response
envelope against any :class:`~repro.api.matcher.Matcher`.  The stdin serve
loop (``cli serve``) and the asyncio TCP server (:mod:`repro.api.server`)
are both thin adapters over it, so protocol behaviour — the greeting,
envelope parsing, error classification, mutation bookkeeping — cannot drift
between transports.

v1 envelopes are the only protocol: every request is parsed with
:func:`~repro.api.envelope.parse_request`, and every response the
dispatcher returns is a v1 envelope (``{"v": 1, "kind": ...}``).

Robustness contract: *nothing* a client sends may escape as an exception.
Invalid JSON, a line that is not a JSON object, an object without a
supported ``"v"``, and the expected failures —
:class:`~repro.errors.ReproError` (including every
:class:`~repro.errors.InvalidRequestError` the validation layer raises),
``ValueError``, ``KeyError``, ``TypeError`` — become
:class:`~repro.api.envelope.ErrorResponse` frames; anything else additionally
reports the exception class under ``"type"``.

Concurrency: the dispatcher is thread-safe.  Queries and stats run under a
shared (read) lock, mutations under an exclusive (write) lock, so the asyncio
server can overlap many clients' queries while an ``add``/``remove`` never
races a query against half-patched derived state.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from typing import Dict

from repro.api.envelope import (
    PROTOCOL_VERSION,
    BatchRequest,
    BatchResponse,
    ErrorResponse,
    MatchRequest,
    MutationRequest,
    MutationResponse,
    StatsRequest,
    StatsResponse,
    parse_request,
)
from repro.errors import InvalidRequestError, ReproError

#: Failures a client can cause; reported without the exception class.
_EXPECTED_ERRORS = (ReproError, ValueError, KeyError, TypeError)


class _ReadWriteLock:
    """Many concurrent readers or one writer, writer-preferring (no reentrancy).

    The serve workload is read-heavy (queries) with rare mutations — which
    is precisely why naive reader preference would be a liveness bug: under
    a sustained query stream the reader count never drains and an
    ``add``/``remove`` would block forever while pinning a worker thread.
    The turnstile gives writers priority: a waiting writer holds it, which
    stops *new* readers from joining, the in-flight readers drain, the
    writer runs, and the queued readers resume.
    """

    def __init__(self) -> None:
        self._readers = 0
        self._readers_mutex = threading.Lock()
        self._writer_mutex = threading.Lock()
        self._turnstile = threading.Lock()

    @contextmanager
    def read(self):
        # The turnstile is held only momentarily on the uncontended path; a
        # waiting writer holds it for its whole wait, parking new readers.
        with self._turnstile:
            with self._readers_mutex:
                self._readers += 1
                if self._readers == 1:
                    self._writer_mutex.acquire()
        try:
            yield
        finally:
            with self._readers_mutex:
                self._readers -= 1
                if self._readers == 0:
                    self._writer_mutex.release()

    @contextmanager
    def write(self):
        with self._turnstile:
            # Acquire while holding the turnstile so no new reader can slip
            # in ahead; release the turnstile once exclusive.
            self._writer_mutex.acquire()
        try:
            yield
        finally:
            self._writer_mutex.release()


class RequestDispatcher:
    """Dispatch v1 request lines against one matcher (thread-safe, transport-free)."""

    def __init__(self, matcher) -> None:
        self.matcher = matcher
        self._added = 0
        self._lock = _ReadWriteLock()

    # -- entry points ---------------------------------------------------------

    def ready_envelope(self) -> Dict[str, object]:
        """The greeting every transport sends before its first response."""
        repository = getattr(self.matcher, "repository", None)
        return {
            "v": PROTOCOL_VERSION,
            "kind": "ready",
            "ready": True,
            "protocol_version": PROTOCOL_VERSION,
            "backend": getattr(self.matcher, "backend_kind", type(self.matcher).__name__),
            "trees": getattr(repository, "tree_count", 0),
            "nodes": getattr(repository, "node_count", 0),
        }

    def handle_line(self, line: str) -> Dict[str, object]:
        """One raw request line in, one v1 response envelope out — never raises."""
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as error:
            return ErrorResponse(error=str(error) or type(error).__name__).to_wire()
        return self.handle_request(payload)

    def handle_request(self, payload: object) -> Dict[str, object]:
        """Dispatch one parsed payload; failures become v1 error envelopes."""
        try:
            return self._dispatch(parse_request(payload))
        except _EXPECTED_ERRORS as error:
            return ErrorResponse(error=str(error) or type(error).__name__).to_wire()
        except Exception as error:  # noqa: BLE001 - serving must survive anything
            return ErrorResponse(
                error=str(error) or type(error).__name__, error_type=type(error).__name__
            ).to_wire()

    # -- requests -------------------------------------------------------------

    def _dispatch(self, request) -> Dict[str, object]:
        if isinstance(request, MatchRequest):
            with self._lock.read():
                return self.matcher.match(request).to_wire()
        if isinstance(request, BatchRequest):
            with self._lock.read():
                results = self.matcher.match_many(list(request.requests))
            return BatchResponse(results=tuple(results)).to_wire()
        if isinstance(request, MutationRequest):
            with self._lock.write():
                return self._execute_mutation(request).to_wire()
        assert isinstance(request, StatsRequest)
        with self._lock.read():
            stats = self.matcher.describe() if request.describe else self.matcher.stats()
        return StatsResponse(stats=stats).to_wire()

    def _execute_mutation(self, request: MutationRequest) -> MutationResponse:
        matcher = self.matcher
        if not hasattr(matcher, "add_tree"):
            raise InvalidRequestError(
                f"backend {getattr(matcher, 'backend_kind', type(matcher).__name__)!r} "
                "does not support mutations"
            )
        if request.action == "add":
            self._added += 1
            tree = request.build_schema(default_name=f"added-{self._added}")
            tree_id = matcher.add_tree(tree)
            return MutationResponse(
                ok=True,
                action="add",
                tree_id=tree_id,
                tree_name=tree.name,
                trees=matcher.repository.tree_count,
            )
        tree_id = request.tree_id
        if request.tree_name is not None:
            tree_id = self._resolve_tree_name(request.tree_name)
        removed = matcher.remove_tree(tree_id)
        return MutationResponse(
            ok=True,
            action="remove",
            tree_id=tree_id,
            tree_name=removed.name,
            trees=matcher.repository.tree_count,
        )

    def _resolve_tree_name(self, tree_name: str) -> int:
        repository = self.matcher.repository
        matches = [
            tree_id
            for tree_id in range(repository.tree_count)
            if repository.tree(tree_id).name == tree_name
        ]
        if not matches:
            raise InvalidRequestError(f"no tree named {tree_name!r} in the repository")
        if len(matches) > 1:
            raise InvalidRequestError(
                f"tree name {tree_name!r} is ambiguous ({len(matches)} trees); remove by tree_id"
            )
        return matches[0]
