"""Start the matcher as a server would, and talk to it as one client does.

A deployment goes from the repository file to a warm listening socket:
index the repository (name index, distance oracles, partition), write the
result as a snapshot, load the snapshot back, finish any state the load
defers to first use (``build_derived_state``), and serve it with
:class:`repro.api.server.MatcherServer` on an ephemeral localhost port, with
the admission limit ``cli serve`` uses.  Carriers (see ``CARRIERS``):

``json``    one JSON snapshot (``cli snapshot``'s default), whose name index
            feeds the vectorized scoring kernel;
``frozen``  a two-shard frozen shard set (``write_shard_set(frozen=True)``):
            mmap-backed carriers, shard fan-out and merge.

The benchmark's ``setup_s`` times all of it, so work moved between indexing,
loading and first use shows up in one number.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from pathlib import Path

from repro.api.server import MatcherServer
from repro.schema.serialization import load_repository
from repro.service import MatchingService
from repro.service.snapshot import load_snapshot, write_snapshot
from repro.shard.manifest import load_shard_set, write_shard_set
from repro.shard.service import ShardedMatchingService

from workloads import DELTA, ELEMENT_THRESHOLD

#: Seconds any start, stop or single response may take before the run fails.
WAIT_SECONDS = 60.0
#: ``cli serve``'s default cap on concurrently executing requests.
MAX_IN_FLIGHT = 8
#: Carrier -> shard count.
CARRIERS = {"json": 1, "frozen": 2}


def build_backend(repository_path: Path, directory: Path, carrier: str):
    """Index the repository, write the carrier and load it back."""
    repository = load_repository(repository_path)
    directory.mkdir(parents=True)
    if carrier == "json":
        service = MatchingService(repository, element_threshold=ELEMENT_THRESHOLD, delta=DELTA)
        write_snapshot(service, directory / "repository.json")
        return load_snapshot(directory / "repository.json")
    sharded = ShardedMatchingService.from_repository(
        repository, CARRIERS[carrier], element_threshold=ELEMENT_THRESHOLD, delta=DELTA
    )
    write_shard_set(sharded, directory, frozen=True)
    return load_shard_set(directory / "manifest.json")


class ServerThread:
    """A :class:`MatcherServer` on its own event loop in a background thread."""

    def __init__(self, backend) -> None:
        self.backend = backend
        self.port = 0
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._error = None
        self._thread = threading.Thread(target=self._run, name="servebench-server", daemon=True)

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except Exception as error:  # reported to the thread waiting in start()
            self._error = error
            self._ready.set()

    async def _main(self) -> None:
        server = MatcherServer(self.backend, port=0, max_in_flight=MAX_IN_FLIGHT)
        await server.start()
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self.port = server.port
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await server.stop(drain_timeout=WAIT_SECONDS)

    def start(self) -> "ServerThread":
        self._thread.start()
        if not self._ready.wait(WAIT_SECONDS) or self._error is not None:
            raise RuntimeError(f"server did not start: {self._error!r}")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(WAIT_SECONDS)
        if self._thread.is_alive():
            raise RuntimeError("server thread did not stop")


class Client:
    """One blocking JSON-lines connection: send a line, wait for its answer."""

    def __init__(self, port: int) -> None:
        self._socket = socket.create_connection(("127.0.0.1", port), timeout=WAIT_SECONDS)
        self._socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._stream = self._socket.makefile("rwb")
        ready = json.loads(self._stream.readline())
        if not ready.get("ready"):
            raise RuntimeError(f"server did not greet with a ready envelope: {ready}")

    def call(self, line: bytes) -> bytes:
        self._stream.write(line)
        self._stream.flush()
        answer = self._stream.readline()
        if not answer:
            raise RuntimeError("server closed the connection")
        return answer

    def close(self) -> None:
        self._stream.close()
        self._socket.close()


class Deployment:
    """A started server plus one connected client."""

    def __init__(self, repository_path: Path, directory: Path, carrier: str) -> None:
        self.backend = build_backend(repository_path, directory, carrier)
        self.backend.build_derived_state()
        self.server = ServerThread(self.backend).start()
        try:
            self.client = Client(self.server.port)
        except BaseException:
            self.server.stop()
            raise

    def close(self) -> None:
        try:
            self.client.close()
        finally:
            self.server.stop()
            close = getattr(self.backend, "close", None)
            if close is not None:
                close()
