"""The wire bytes of a fixed replay are pinned.

A fixed list of v1 match lines goes through :class:`RequestDispatcher`
against a loaded frozen snapshot and against a loaded two-shard frozen set.
The list mixes exact repeats (answered from the result cache), ``top_k``,
``explain``, a display name that differs from an earlier equal schema, and
``offset``/``limit`` pages, one of them requested before its result's first
page.  The sha256 of the response lines, with ``timings`` removed (wall-clock
time is the only field that may differ between runs), must stay as pinned:
encoding may change how often it renders a path or a record, never the
bytes it writes.
"""

import hashlib
import json

import pytest

from repro.api.dispatch import RequestDispatcher
from repro.service import MatchingService
from repro.service.snapshot import load_snapshot, write_snapshot
from repro.shard import ShardedMatchingService
from repro.shard.manifest import load_shard_set, write_shard_set
from repro.workload.generator import RepositoryGenerator, RepositoryProfile

PERSON = {"person": ["name", "email", "address"]}
PHONE = {"person": ["name", "email", "phone"]}
CONTACT = {"contact": ["name", "address", "city"]}
EMPLOYEE = {"employee": ["name", "phone", "city"]}
ITEM = {"item": ["quantity", "price", "sku"]}


def match_line(schema, name=None, **options):
    envelope = {"v": 1, "kind": "match", "schema": schema, "options": options}
    if name is not None:
        envelope["name"] = name
    return json.dumps(envelope)


REPLAY = [
    match_line(PERSON),
    match_line(PERSON),
    match_line(PHONE, offset=10, limit=5),
    match_line(PHONE, limit=5),
    match_line(PHONE, offset=3, limit=10, explain=True),
    match_line(PHONE),
    match_line(PERSON, name="another-user", offset=1, limit=2),
    match_line(CONTACT, top_k=2),
    match_line(CONTACT, top_k=2, explain=True),
    match_line(CONTACT),
    match_line(EMPLOYEE, delta=0.5, offset=1),
    match_line(ITEM, top_k=1, limit=1),
    match_line(ITEM, offset=5),
    match_line(EMPLOYEE, delta=0.5),
]

#: Digests of the replay's response lines, one per carrier.
PINNED = {
    "snapshot": "3d11e4cfdb75e8c01314dc2d0c353900dd2e0733cb1e755e4b5606bc6752cfdb",
    "shards": "bc8229c416418afac8cb6e614cbc1805b323ae658361bd99973463bee1480fbe",
}


def make_repository():
    profile = RepositoryProfile(
        target_node_count=1500, min_tree_size=15, max_tree_size=90, seed=23, name="replay"
    )
    return RepositoryGenerator(profile).generate()


def load_backend(carrier, directory):
    if carrier == "snapshot":
        path = directory / "replay.frozen"
        write_snapshot(MatchingService(make_repository(), element_threshold=0.5, delta=0.6), path)
        return load_snapshot(path)
    sharded = ShardedMatchingService.from_repository(
        make_repository(), 2, element_threshold=0.5, delta=0.6
    )
    write_shard_set(sharded, directory, frozen=True)
    return load_shard_set(directory / "manifest.json")


@pytest.mark.parametrize("carrier", sorted(PINNED))
def test_replay_response_lines_are_pinned(carrier, tmp_path):
    dispatcher = RequestDispatcher(load_backend(carrier, tmp_path))
    digest = hashlib.sha256()
    pages = []
    for line in REPLAY:
        response = dispatcher.handle_line(line)
        assert response["kind"] == "match_response", response
        pages.append((response["mapping_count"], len(response["mappings"])))
        response.pop("timings")
        digest.update((json.dumps(response) + "\n").encode("utf-8"))
    # The replay exercises what it claims: full answers, pages, an offset
    # past the end, and answers from the result cache.
    assert (26, 5) in pages and (26, 26) in pages and (2, 0) in pages
    assert dispatcher.matcher.stats()["query_cache_hits"] == 7
    assert digest.hexdigest() == PINNED[carrier]
