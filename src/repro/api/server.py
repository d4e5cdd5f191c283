"""A concurrent asyncio JSONL TCP server over any :class:`Matcher`.

``cli serve --port`` replaces the blocking stdin loop with a real server:
many clients connect concurrently, each speaking the same JSON-lines
protocol the stdin loop speaks (one v1 request envelope per line, one v1
response envelope per line) — the
:class:`~repro.api.dispatch.RequestDispatcher` is shared, so the two
transports cannot diverge.

Concurrency model
-----------------
* **Per-connection isolation**: each connection is one asyncio task with its
  own reader/writer; a client's malformed line or failure never affects
  another client, and responses are written strictly in that client's
  request order (no interleaving — the protocol has no request ids).
* **Executor offload**: request handling is CPU work (the matching
  pipeline), so it runs on a thread pool of ``max_in_flight`` threads via
  ``run_in_executor`` — the event loop stays responsive for accepts, reads
  and writes while queries crunch.
* **Bounded in-flight requests**: a global semaphore caps how many requests
  may execute concurrently across all connections (admission control's
  simplest form); excess requests queue at their connection in arrival
  order.
* **Mutation safety**: the dispatcher's readers-writer lock lets queries
  from many clients overlap while ``add``/``remove`` runs exclusively.

On connect the server sends the dispatcher's ``{"v": 1, "kind": "ready",
...}`` line so clients can sync before issuing requests.
:meth:`MatcherServer.stop` is the graceful shutdown: the listener closes,
connections get a drain window for their in-flight requests, stragglers are
cancelled, the thread pool shuts down.
"""

from __future__ import annotations

import asyncio
import json
import signal
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Set

from repro.api.dispatch import RequestDispatcher
from repro.api.envelope import ErrorResponse

#: Default cap on a single request line (protects the server from unbounded
#: buffering on a garbage stream; generous for real schema payloads).
DEFAULT_MAX_LINE_BYTES = 1 << 20

#: Frame-read sentinels: the request line overran the cap and the stream was
#: resynchronized on its terminator / hit EOF before one was found.
_OVERSIZED = object()
_OVERSIZED_EOF = object()


class MatcherServer:
    """Serve one matcher over TCP (JSON lines of v1 envelopes)."""

    def __init__(
        self,
        matcher,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = 8,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
    ) -> None:
        if max_in_flight < 1:
            raise ValueError(f"max_in_flight must be positive, got {max_in_flight}")
        self.matcher = matcher
        self.host = host
        self.port = port
        self.dispatcher = RequestDispatcher(matcher)
        self.max_in_flight = max_in_flight
        self.max_line_bytes = max_line_bytes
        self._server: Optional[asyncio.AbstractServer] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._connections: Set[asyncio.Task] = set()
        self._closing = False
        self._stop_event: Optional[asyncio.Event] = None

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> "MatcherServer":
        """Bind and start accepting; resolves ``self.port`` when it was 0.

        A stopped server may be started again (fresh listener, pool and
        connection set; the dispatcher and its mutation bookkeeping carry
        over).
        """
        self._closing = False
        self._connections = set()
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_in_flight, thread_name_prefix="repro-api"
        )
        self._semaphore = asyncio.Semaphore(self.max_in_flight)
        self._stop_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port, limit=self.max_line_bytes
        )
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        await self._server.serve_forever()

    async def stop(self, drain_timeout: float = 5.0) -> None:
        """Graceful shutdown: stop accepting, drain in-flight work, cancel stragglers.

        Idle connections (blocked waiting for the next request line) are woken
        immediately via the stop event and exit without consuming the drain
        window; the timeout only matters for requests actually executing.
        """
        self._closing = True
        if self._stop_event is not None:
            self._stop_event.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = {task for task in self._connections if not task.done()}
        if pending:
            _done, pending = await asyncio.wait(pending, timeout=drain_timeout)
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    # -- connections ----------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        loop = asyncio.get_running_loop()
        assert self._stop_event is not None
        stop_waiter = asyncio.ensure_future(self._stop_event.wait())
        try:
            await self._send(writer, self.dispatcher.ready_envelope())
            while not self._closing:
                read_task = asyncio.ensure_future(self._read_frame(reader))
                # Wake on either the next request line or server shutdown, so
                # an idle connection never holds up a graceful stop.
                await asyncio.wait(
                    {read_task, stop_waiter}, return_when=asyncio.FIRST_COMPLETED
                )
                if not read_task.done():
                    read_task.cancel()
                    await asyncio.gather(read_task, return_exceptions=True)
                    break
                line = read_task.result()
                if line is _OVERSIZED or line is _OVERSIZED_EOF:
                    # One request line blew the cap.  Answer with a proper v1
                    # error; the framing is already resynchronized, so the
                    # connection keeps serving — one bad request must not cost
                    # the client its session (EOF mid-line still closes).
                    await self._send(
                        writer,
                        ErrorResponse(
                            error=f"request line exceeds {self.max_line_bytes} bytes"
                        ).to_wire(),
                    )
                    if line is _OVERSIZED:
                        continue
                    break
                if not line:
                    break
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                assert self._semaphore is not None and self._pool is not None
                async with self._semaphore:
                    response = await loop.run_in_executor(
                        self._pool, self.dispatcher.handle_line, text
                    )
                await self._send(writer, response)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass  # client went away or shutdown cancelled us; nothing to answer
        finally:
            stop_waiter.cancel()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
                # The task stays registered until the transport is fully
                # closed, so stop() (and therefore run_server's loop
                # teardown) waits for this cleanup instead of cancelling it
                # mid-close and spraying "Exception in callback" noise.
                pass
            if task is not None:
                self._connections.discard(task)

    @staticmethod
    async def _read_frame(reader: asyncio.StreamReader):
        """Next request line; sentinels for an oversized one.

        ``StreamReader.readline`` is unusable for recovery — it clears its
        buffer before raising on a limit overrun, silently discarding the
        terminator when one was already buffered, after which the framing is
        unrecoverable.  Reading via ``readuntil`` keeps the buffer intact on
        overrun, so the oversized line can be discarded up to (and through)
        its terminator: ``readexactly`` drops the scanned prefix the overrun
        reports, then ``readuntil`` retries until the terminator lands within
        the limit.  Returns the line (``b""`` at EOF, matching ``readline``),
        or ``_OVERSIZED`` after resynchronizing past an oversized line, or
        ``_OVERSIZED_EOF`` when the stream ended inside one.
        """
        try:
            return await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as error:
            return error.partial  # EOF; an unterminated tail still dispatches
        except asyncio.LimitOverrunError as error:
            consumed = error.consumed
            try:
                while True:
                    await reader.readexactly(consumed)
                    try:
                        await reader.readuntil(b"\n")
                        return _OVERSIZED
                    except asyncio.LimitOverrunError as again:
                        consumed = again.consumed
            except asyncio.IncompleteReadError:
                return _OVERSIZED_EOF

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, payload: dict) -> None:
        writer.write((json.dumps(payload) + "\n").encode("utf-8"))
        await writer.drain()


def run_server(
    matcher,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    max_in_flight: int = 8,
    drain_timeout: float = 5.0,
    on_ready=None,
) -> int:
    """Run a :class:`MatcherServer` until SIGINT/SIGTERM, then stop gracefully.

    The synchronous entry point the CLI uses.  ``on_ready(server)`` fires
    after the bind (the CLI prints the listening address from it, which is
    also how tests discover an ephemeral port).  On SIGINT/SIGTERM the
    listener closes and in-flight requests get ``drain_timeout`` seconds to
    finish before stragglers are cancelled.
    """

    async def _main() -> None:
        server = MatcherServer(matcher, host=host, port=port, max_in_flight=max_in_flight)
        await server.start()
        if on_ready is not None:
            on_ready(server)
        stop_event = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_event.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
                pass
        try:
            await stop_event.wait()
        except asyncio.CancelledError:  # pragma: no cover - external cancellation
            pass
        finally:
            await server.stop(drain_timeout=drain_timeout)

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - signal handler unavailable
        pass
    return 0
