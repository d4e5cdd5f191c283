#!/usr/bin/env python
"""A minimal socket client for the unified query API (``cli serve --port``).

Demonstrates the v1 JSONL wire protocol end to end against a live server:

1. connect and read the ``{"v": 1, "kind": "ready", ...}`` greeting;
2. issue a **batch** envelope (three queries, one a duplicate — the server's
   ``match_many`` deduplicates it by fingerprint);
3. issue a single **match** with ``explain: true`` and print the per-cluster
   search statistics;
4. issue a **stats** request and show the uniform backend card.

Run a server first (any backend works — snapshot or shard set)::

    PYTHONPATH=src python -m repro.cli generate --nodes 2500 --out repo.json
    PYTHONPATH=src python -m repro.cli snapshot --repository repo.json --out repo.snapshot.frozen
    PYTHONPATH=src python -m repro.cli serve --snapshot repo.snapshot.frozen --port 7407 &

then::

    PYTHONPATH=src python examples/api_client.py --port 7407

The client is deliberately dependency-free (plain ``socket``): the wire
format is just JSON lines, so any language can speak it.  The envelope
classes from :mod:`repro.api` are used only to *build* payloads — showing
both styles: dataclasses where the library is available, raw dicts where it
is not.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.api import BatchRequest, MatchOptions, MatchRequest, StatsRequest


class JsonLineClient:
    """One JSONL connection: send a dict, receive a dict, in lockstep."""

    def __init__(self, host: str, port: int) -> None:
        self._socket = socket.create_connection((host, port), timeout=30)
        self._reader = self._socket.makefile("r", encoding="utf-8")
        self._writer = self._socket.makefile("w", encoding="utf-8")

    def read(self) -> dict:
        line = self._reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def call(self, payload: dict) -> dict:
        self._writer.write(json.dumps(payload) + "\n")
        self._writer.flush()
        return self.read()

    def close(self) -> None:
        self._socket.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True, help="port of a running 'cli serve --port'")
    args = parser.parse_args()

    client = JsonLineClient(args.host, args.port)
    ready = client.read()
    print(
        f"connected: backend={ready['backend']} protocol=v{ready['protocol_version']} "
        f"({ready['trees']} trees, {ready['nodes']} nodes)"
    )

    # -- batch query (note the duplicate: the server computes it once) -------
    batch = BatchRequest(
        requests=(
            MatchRequest(schema={"person": ["name", "email"]}, options=MatchOptions(top_k=3)),
            MatchRequest(schema={"book": ["title", "author"]}, options=MatchOptions(top_k=3)),
            MatchRequest(schema={"person": ["name", "email"]}, options=MatchOptions(top_k=3)),
        )
    )
    response = client.call(batch.to_wire())
    print(f"\nbatch: {response['queries']} queries answered")
    for index, result in enumerate(response["results"]):
        best = result["mappings"][0] if result["mappings"] else None
        summary = f"best Δ={best['score']:.3f} in {best['tree']}" if best else "no mappings"
        print(f"  query {index}: {result['mapping_count']} mappings, {summary}")

    # -- single query with an explain report (raw-dict style) ----------------
    response = client.call(
        {
            "v": 1,
            "kind": "match",
            "schema": {"person": ["name", "address", "email"]},
            "options": {"top_k": 3, "explain": True},
        }
    )
    explain = response["explain"]
    print(
        f"\nexplain: {explain['useful_clusters']} useful clusters, "
        f"search space {explain['search_space']}, "
        f"{explain['partial_mappings']} partial mappings"
    )
    for mapping in response["mappings"]:
        print(f"  Δ={mapping['score']:.3f} {mapping['tree']}")
        for entry in mapping["assignment"]:
            print(f"    {entry['personal']} -> {entry['repository']} (sim {entry['similarity']:.2f})")

    # -- stats + describe ----------------------------------------------------
    stats = client.call(StatsRequest().to_wire())["stats"]
    card = client.call(StatsRequest(describe=True).to_wire())["stats"]
    print(
        f"\nstats: queries={stats.get('queries', 0)} "
        f"duplicates={stats.get('duplicate_queries', 0)} "
        f"cache_hits={stats.get('query_cache_hits', 0)}"
    )
    print(f"describe: capabilities={', '.join(card['capabilities'])}")

    client.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
