"""Rendered records kept on a result: when they are reused, and when not.

``encode.match_response`` keeps the records it renders on the result,
tagged with the repository version, so a result the result cache answers
again is only paged.  These tests pin that reuse never shows: a repeat
after a mutation answers as a freshly built service does, a result encoded
under a newer version is rendered again, schemas that share a result share
their records whatever their display names, and threads encoding one result
at once all get the records a fresh rendering gives.
"""

import json
import sys
import threading

import pytest

from repro.api import encode
from repro.api.dispatch import RequestDispatcher
from repro.api.envelope import MatchOptions, MatchRequest
from repro.schema.builder import TreeBuilder
from repro.schema.repository import SchemaRepository
from repro.service import MatchingService
from repro.service.snapshot import load_snapshot, write_snapshot
from repro.workload.generator import RepositoryGenerator, RepositoryProfile

PERSON = {"person": ["name", "email", "address"]}
PEOPLE = {"people": {"person": ["name", "email", "address", "phone"]}}
DIRECTORY = {"directory": {"person": ["name", "email", "address"]}}
ORDERS = {"order": ["item", "price"]}
REQUEST = json.dumps({"v": 1, "kind": "match", "schema": PERSON})
SETTINGS = {"element_threshold": 0.5, "delta": 0.6}


def repository(trees):
    repository = SchemaRepository(name="records")
    for name, spec in trees:
        repository.add_tree(TreeBuilder.from_nested(spec, name=name))
    return repository


def serve(carrier, trees, tmp_path):
    service = MatchingService(repository(trees), **SETTINGS)
    if carrier == "service":
        return service
    write_snapshot(service, tmp_path / "records.frozen")
    return load_snapshot(tmp_path / "records.frozen")


def fresh_records(trees, personal_spec, **options):
    """The records a new, cache-less service renders for one request."""
    service = MatchingService(repository(trees), query_cache_size=0, **SETTINGS)
    return service.match(MatchRequest(schema=personal_spec, options=MatchOptions(**options))).mappings


@pytest.mark.parametrize("carrier", ["service", "snapshot"])
def test_a_repeat_after_a_remove_answers_as_a_fresh_service(carrier, tmp_path):
    trees = [("orders", ORDERS), ("staff", PEOPLE), ("directory", DIRECTORY)]
    dispatcher = RequestDispatcher(serve(carrier, trees, tmp_path))
    before = dispatcher.handle_line(REQUEST)
    assert dispatcher.handle_line(REQUEST)["mappings"] == before["mappings"]
    assert {record["tree_id"] for record in before["mappings"]} == {1, 2}
    removed = dispatcher.handle_line(
        json.dumps({"v": 1, "kind": "mutation", "action": "remove", "tree_id": 0})
    )
    assert removed["ok"], removed
    after = dispatcher.handle_line(REQUEST)
    # The surviving trees' ids slid down by one; their paths did not move.
    assert {record["tree_id"] for record in after["mappings"]} == {0, 1}
    roots = {record["assignment"][0]["repository"].split("/")[1] for record in after["mappings"]}
    assert roots == {"people", "directory"}
    expected = fresh_records(trees[1:], PERSON)
    assert after["mappings"] == [record.to_wire() for record in expected]
    assert dispatcher.handle_line(REQUEST)["mappings"] == after["mappings"]


def test_a_result_rendered_under_an_older_version_is_rendered_again():
    # Three trees of one shape: after removing the first and adding it back,
    # every tree id the result holds names another tree, so a stored record
    # would show a name the repository no longer gives that id.
    trees = [("alpha", PEOPLE), ("beta", PEOPLE), ("gamma", PEOPLE)]
    service = MatchingService(repository(trees), **SETTINGS)
    personal = TreeBuilder.from_nested(PERSON)
    result = service.match(personal)
    options = MatchOptions()
    first = encode.match_response(service.repository, personal, result, options)
    assert {record.tree for record in first.mappings} == {"alpha", "beta", "gamma"}
    service.add_tree(service.remove_tree(0))
    again = encode.match_response(service.repository, personal, result, options)
    assert again.mappings == tuple(
        encode.mapping_record(service.repository, personal, mapping) for mapping in result.mappings
    )
    assert [record.tree for record in again.mappings] != [record.tree for record in first.mappings]


def test_equal_fingerprints_share_records_whatever_their_display_names():
    trees = [("staff", PEOPLE), ("directory", PEOPLE)]
    service = MatchingService(repository(trees), **SETTINGS)
    alice, bob = service.match_many(
        [MatchRequest(schema=PERSON, name="alice"), MatchRequest(schema=PERSON, name="bob")]
    )
    carol = service.match(MatchRequest(schema=PERSON, name="carol"))
    assert service.counters.get("duplicate_queries") == 1
    assert service.counters.get("query_cache_hits") == 1
    expected = fresh_records(trees, PERSON)
    assert alice.mappings == bob.mappings == carol.mappings == expected
    assert all(
        entry.personal.startswith("/person")
        for record in expected
        for entry in record.assignment
    )


def test_threads_encoding_one_result_get_a_fresh_rendering():
    profile = RepositoryProfile(
        target_node_count=1500, min_tree_size=15, max_tree_size=90, seed=23, name="threads"
    )
    schema = {"person": ["name", "email", "phone"]}
    served = MatchingService(RepositoryGenerator(profile).generate(), **SETTINGS)
    reference = MatchingService(
        RepositoryGenerator(profile).generate(), query_cache_size=0, **SETTINGS
    )
    personal = TreeBuilder.from_nested(schema)
    result = served.match(personal)
    expected = reference.match(MatchRequest(schema=schema)).mappings
    assert len(expected) == len(result.mappings) >= 20
    pages = [MatchOptions(offset=offset, limit=7) for offset in range(0, 21, 3)] + [MatchOptions()]
    failures = []

    def encode_pages(worker):
        try:
            for round_ in range(30):
                options = pages[(worker + round_) % len(pages)]
                response = encode.match_response(served.repository, personal, result, options)
                end = None if options.limit is None else options.offset + options.limit
                if response.mappings != expected[options.offset : end]:
                    failures.append((worker, round_, options))
        except Exception as error:  # reported by the main thread
            failures.append((worker, repr(error)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=encode_pages, args=(worker,)) for worker in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert failures == []
