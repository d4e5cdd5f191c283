"""Seeded inputs for the serving benchmark: the repository and the request stream.

Everything here is a pure function of the ``--seed`` the benchmark receives;
the program under test only ever sees the generated repository file and the
request lines.

Both are built with the repository's own workload models, not invented here:

* the repository is :class:`~repro.workload.generator.RepositoryGenerator`'s
  paper-size profile (~9 750 nodes);
* the request stream is :func:`~repro.workload.trace.synthesize_zipf_trace`
  — personal schemas (the paper's experiment schemas plus one per vocabulary
  domain) drawn with Zipf popularity, options from the trace — with every
  name passed through :class:`~repro.workload.vocabulary.NamePerturber` at
  the generator's own noise probabilities, so users name the same data the
  way the repository's authors do: mostly the base word, sometimes
  abbreviated, re-styled, suffixed or misspelt.

The stream interleaves ``GROUPS`` such traces, one per user group, each over
its own schema pool.  A run then draws on ~100 domain schemas instead of six,
so its cost mix, and with it the latency it measures, differs less from seed
to seed.

Popular schemas and common names therefore repeat: some requests are answered
from the query cache and most personal names from the name-score memo.  The
benchmark reports the measured share of both (``spans.py``).
"""

from __future__ import annotations

import copy
import json
from typing import Dict, Iterator, List, Optional

from repro.utils.rng import SeededRandom, derive_seed, round_robin
from repro.workload.trace import synthesize_zipf_trace
from repro.workload.vocabulary import NamePerturber

#: Repository size: the paper's main experiment (~9 750 nodes).
REPOSITORY_NODES = 9750
#: Matching configuration every deployment and the reference share.
ELEMENT_THRESHOLD = 0.6
DELTA = 0.75
#: Requests synthesized for the timed window; a run uses a prefix of it.  Its
#: ~5 500 distinct requests last a 50 s window at ~110 requests a second,
#: four times what the matcher answers today.
STREAM_LENGTH = 24000
#: User groups whose traces interleave in one stream.
GROUPS = 16


def seed_for(seed: int, *labels: object) -> int:
    """An independent integer seed per (benchmark seed, purpose)."""
    return derive_seed(seed, "servebench", *labels)


class Query:
    """One personal schema as sent: its serialized tree and options."""

    __slots__ = ("schema", "top_k", "delta", "key")

    def __init__(self, schema: Dict[str, object], delta: Optional[float], top_k: Optional[int]) -> None:
        self.schema = schema
        self.delta = delta
        self.top_k = top_k
        self.key = json.dumps([schema, delta, top_k], sort_keys=True)


def request_line(query: Query) -> bytes:
    """One v1 match request as a JSON line."""
    options = {name: value for name, value in (("delta", query.delta), ("top_k", query.top_k)) if value is not None}
    envelope = {
        "v": 1,
        "kind": "match",
        "schema": query.schema,
        "schema_format": "tree",
        "name": query.schema["name"],
        "options": options,
    }
    return (json.dumps(envelope) + "\n").encode("utf-8")


def query_stream(seed: int, label: str, length: int) -> List[Query]:
    """``length`` requests (rounded up to whole groups): Zipf traces with perturbed names."""
    traces = [
        synthesize_zipf_trace(-(-length // GROUPS), seed_for(seed, "trace", label, group))
        for group in range(GROUPS)
    ]
    perturber = NamePerturber(SeededRandom(seed_for(seed, "names", label)))
    queries = []
    for entry in round_robin(trace.queries for trace in traces):
        schema = copy.deepcopy(entry.schema)
        for node in schema["nodes"]:
            node["name"] = perturber.perturb(node["name"])
        queries.append(Query(schema, entry.delta, entry.top_k))
    return queries


def distinct(queries: List[Query], earlier: List[Query]) -> Iterator[Query]:
    """The first occurrence of each query not already in ``earlier``, in stream order."""
    seen = {query.key for query in earlier}
    for query in queries:
        if query.key not in seen:
            seen.add(query.key)
            yield query
