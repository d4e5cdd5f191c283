"""The asyncio JSONL TCP server: concurrency, isolation, clean shutdown."""

import asyncio
import json

import pytest

from _backends import small_repository_factory
from repro.api.envelope import PROTOCOL_VERSION, MatchRequest, MatchOptions
from repro.api.server import MatcherServer
from repro.service import MatchingService
from repro.shard import ShardedMatchingService

CLIENTS = 8

#: One small v1 query, for tests that need any answerable request.
QUERY = MatchRequest(schema={"person": ["name"]}, options=MatchOptions(limit=1)).to_wire()


def make_service():
    return MatchingService(small_repository_factory(), element_threshold=0.5, delta=0.6)


async def read_json(reader):
    line = await asyncio.wait_for(reader.readline(), timeout=30)
    assert line, "server closed the connection unexpectedly"
    return json.loads(line)


async def send_json(writer, payload):
    writer.write((json.dumps(payload) + "\n").encode())
    await writer.drain()


class TestConcurrentClients:
    def test_eight_clients_with_interleaved_queries_mutations_and_garbage(self):
        """Acceptance criterion: >= 8 concurrent clients, no dropped or
        interleaved responses, queries racing mutations, malformed lines."""

        async def client(port, index):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            ready = await read_json(reader)
            assert ready["kind"] == "ready" and ready["ready"] is True

            # 1: v1 typed query
            await send_json(
                writer,
                MatchRequest(
                    schema={"person": ["name", "email"]},
                    options=MatchOptions(top_k=2, explain=True),
                ).to_wire(),
            )
            # 2: v1 query, paged
            await send_json(
                writer,
                MatchRequest(schema={"book": ["title"]}, options=MatchOptions(limit=2)).to_wire(),
            )
            # 3: malformed line
            writer.write(b"this is not json\n")
            await writer.drain()
            # 4: mutation — each client adds a uniquely named tree
            await send_json(
                writer,
                {
                    "v": 1,
                    "kind": "mutation",
                    "action": "add",
                    "schema": {f"zclient{index}": ["zz"]},
                    "name": f"client-{index}",
                },
            )
            # 5: stats while other clients query/mutate
            await send_json(writer, {"v": 1, "kind": "stats"})
            # 6: remove the tree again, by stable name (ids shift under us)
            await send_json(
                writer,
                {"v": 1, "kind": "mutation", "action": "remove", "tree_name": f"client-{index}"},
            )

            responses = [await read_json(reader) for _ in range(6)]
            writer.close()
            await writer.wait_closed()

            # Responses arrive strictly in request order, envelope per request.
            assert responses[0]["kind"] == "match_response"
            assert responses[0]["explain"]["useful_clusters"] >= 1
            assert responses[1]["kind"] == "match_response"
            assert len(responses[1]["mappings"]) <= 2
            assert responses[2]["kind"] == "error"
            assert responses[3]["kind"] == "mutation_response"
            assert responses[3]["tree_name"] == f"client-{index}"
            assert responses[4]["kind"] == "stats_response"
            assert responses[4]["stats"]["backend"] == "service"
            assert responses[5]["kind"] == "mutation_response"
            assert responses[5]["tree_name"] == f"client-{index}"
            return index

        async def main():
            service = make_service()
            server = MatcherServer(service, port=0, max_in_flight=CLIENTS)
            await server.start()
            try:
                done = await asyncio.gather(*[client(server.port, i) for i in range(CLIENTS)])
            finally:
                await server.stop()
            assert sorted(done) == list(range(CLIENTS))
            # Every add was matched by a remove: repository back to seed size.
            assert service.repository.tree_count == 3

        asyncio.run(main())

    def test_sharded_backend_serves_the_same_protocol(self, synthetic_repository):
        async def main():
            service = ShardedMatchingService.from_repository(
                synthetic_repository, 2, element_threshold=0.5, delta=0.6
            )
            server = MatcherServer(service, port=0, max_in_flight=4)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                ready = await read_json(reader)
                assert ready["backend"] == "sharded"
                await send_json(
                    writer,
                    MatchRequest(schema={"name": ["address", "email"]},
                                 options=MatchOptions(top_k=3)).to_wire(),
                )
                response = await read_json(reader)
                assert response["kind"] == "match_response"
                assert response["mapping_count"] >= 1
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        asyncio.run(main())


class TestLifecycle:
    def test_stop_with_an_idle_client_shuts_down_without_burning_the_drain_window(self):
        import time

        async def main():
            server = MatcherServer(make_service(), port=0)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            await read_json(reader)  # ready; then go idle without closing
            start = time.perf_counter()
            await server.stop(drain_timeout=30.0)
            elapsed = time.perf_counter() - start
            # Idle connections are woken by the stop event immediately — the
            # drain timeout is only for requests actually executing.
            assert elapsed < 5.0
            assert await reader.readline() == b""  # server closed the socket
            writer.close()

        asyncio.run(main())

    def test_stop_drains_an_in_flight_request_to_completion(self):
        import threading
        import time

        started = threading.Event()

        class SlowService(MatchingService):
            def _match_many_schemas(self, *args, **kwargs):
                started.set()
                time.sleep(0.3)  # keep the request in flight while stop() runs
                return super()._match_many_schemas(*args, **kwargs)

        async def main():
            service = SlowService(small_repository_factory(), element_threshold=0.5, delta=0.6)
            server = MatcherServer(service, port=0)
            await server.start()
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            await read_json(reader)
            await send_json(writer, QUERY)
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, started.wait, 5)
            # Shut down while the request is executing: the drain window must
            # let it finish and its response reach the client before close.
            stop_task = asyncio.ensure_future(server.stop(drain_timeout=10.0))
            response = await read_json(reader)
            assert response["kind"] == "match_response"
            await stop_task
            assert await reader.readline() == b""
            writer.close()

        asyncio.run(main())

    def test_a_stopped_server_can_be_started_again(self):
        async def main():
            server = MatcherServer(make_service(), port=0)
            await server.start()
            await server.stop()
            await server.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                await read_json(reader)
                await send_json(writer, QUERY)
                response = await read_json(reader)
                assert response["kind"] == "match_response"  # answered, not dropped
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        asyncio.run(main())

    def test_connections_after_stop_are_refused(self):
        async def main():
            server = MatcherServer(make_service(), port=0)
            await server.start()
            port = server.port
            await server.stop()
            with pytest.raises(OSError):
                await asyncio.open_connection("127.0.0.1", port)

        asyncio.run(main())

    def test_oversized_request_line_is_rejected_and_the_connection_survives(self):
        async def main():
            server = MatcherServer(make_service(), port=0, max_line_bytes=1024)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                await read_json(reader)
                writer.write(b'{"v": 1, "kind": "match", "schema": {"' + b"x" * 4096 + b'": []}}\n')
                await writer.drain()
                response = await read_json(reader)
                assert response["kind"] == "error"
                assert "exceeds" in response["error"]
                # The server resynchronizes on the line terminator: the same
                # connection keeps answering well-formed requests.
                await send_json(writer, QUERY)
                follow_up = await read_json(reader)
                assert follow_up["kind"] == "match_response"
                writer.close()
            finally:
                await server.stop()

        asyncio.run(main())

    def test_oversized_line_followed_by_eof_closes_the_connection(self):
        async def main():
            server = MatcherServer(make_service(), port=0, max_line_bytes=1024)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                await read_json(reader)
                writer.write(b"y" * 4096)  # oversized AND unterminated
                await writer.drain()
                writer.write_eof()
                response = await read_json(reader)
                assert response["kind"] == "error"
                assert await reader.readline() == b""  # server closed cleanly
                writer.close()
            finally:
                await server.stop()

        asyncio.run(main())

    def test_ready_envelope_names_the_backend_and_protocol(self):
        async def main():
            server = MatcherServer(make_service(), port=0)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                ready = await read_json(reader)
                assert ready["v"] == PROTOCOL_VERSION
                assert ready["protocol_version"] == PROTOCOL_VERSION
                assert ready["backend"] == "service"
                assert ready["trees"] == 3
                writer.close()
                await writer.wait_closed()
            finally:
                await server.stop()

        asyncio.run(main())
