"""The shared request dispatcher: v1 envelopes, errors, mutations, deadlines."""

import json

import pytest

from _backends import small_repository_factory
from repro.api.dispatch import RequestDispatcher
from repro.api.envelope import (
    DEPRECATED_TOP_WARNING,
    PROTOCOL_VERSION,
    BatchRequest,
    MatchOptions,
    MatchRequest,
    StatsRequest,
)
from repro.service import MatchingService
from repro.system.bellflower import Bellflower


@pytest.fixture
def service():
    return MatchingService(small_repository_factory(), element_threshold=0.5, delta=0.6)


@pytest.fixture
def dispatcher(service):
    return RequestDispatcher(service)


class TestV1Match:
    def test_match_request_round_trips_through_the_dispatcher(self, dispatcher):
        request = MatchRequest(schema={"person": ["name", "email"]})
        response = dispatcher.handle_request(request.to_wire())
        assert response["v"] == PROTOCOL_VERSION
        assert response["kind"] == "match_response"
        assert response["mapping_count"] >= 1
        assert response["mappings"][0]["tree"] == "people"
        assert response["mappings"][0]["assignment"]

    def test_batch_request_answers_in_request_order(self, dispatcher):
        batch = BatchRequest(
            requests=(
                MatchRequest(schema={"person": ["name"]}),
                MatchRequest(schema={"book": ["title"]}),
            )
        )
        response = dispatcher.handle_request(batch.to_wire())
        assert response["kind"] == "batch_response"
        assert response["queries"] == 2
        assert response["results"][0]["mappings"][0]["tree"] == "people"
        assert response["results"][1]["mappings"][0]["tree"] == "books"

    def test_deprecated_top_alias_maps_through_with_a_warning(self, dispatcher):
        wire = MatchRequest(schema={"person": ["name"]}).to_wire()
        wire["options"] = {"top": 1}
        response = dispatcher.handle_request(wire)
        assert response["kind"] == "match_response"
        assert len(response["mappings"]) <= 1
        assert response["warnings"] == [DEPRECATED_TOP_WARNING]

    def test_v1_errors_are_v1_envelopes(self, dispatcher):
        response = dispatcher.handle_request(
            {"v": PROTOCOL_VERSION, "kind": "match", "schema": {}}
        )
        assert response["kind"] == "error"
        assert response["v"] == PROTOCOL_VERSION
        assert "non-empty 'schema'" in response["error"]

    def test_version_mismatch_is_a_clean_v1_error(self, dispatcher):
        response = dispatcher.handle_request({"v": 99, "kind": "match"})
        assert response["kind"] == "error"
        assert "unsupported protocol version" in response["error"]


class TestV1Stats:
    def test_stats_request_returns_the_uniform_dict(self, dispatcher):
        response = dispatcher.handle_request(StatsRequest().to_wire())
        assert response["kind"] == "stats_response"
        assert response["stats"]["backend"] == "service"
        assert response["stats"]["protocol_version"] == PROTOCOL_VERSION

    def test_describe_request_returns_the_capability_card(self, dispatcher):
        response = dispatcher.handle_request(StatsRequest(describe=True).to_wire())
        card = response["stats"]
        assert card["backend"] == "service"
        assert "match_many" in card["capabilities"]


class TestV1Mutations:
    def test_add_returns_stable_name_alongside_positional_id(self, dispatcher):
        response = dispatcher.handle_request(
            {
                "v": PROTOCOL_VERSION,
                "kind": "mutation",
                "action": "add",
                "schema": {"zqx": ["zz"]},
                "name": "fresh-tree",
            }
        )
        assert response["kind"] == "mutation_response"
        assert response["ok"] is True
        assert response["tree_id"] == 3
        assert response["tree_name"] == "fresh-tree"
        assert response["trees"] == 4

    def test_add_without_name_gets_a_generated_one(self, dispatcher):
        response = dispatcher.handle_request(
            {"v": PROTOCOL_VERSION, "kind": "mutation", "action": "add", "schema": {"zqx": []}}
        )
        assert response["tree_name"] == "added-1"

    def test_remove_by_stable_name(self, dispatcher):
        response = dispatcher.handle_request(
            {"v": PROTOCOL_VERSION, "kind": "mutation", "action": "remove", "tree_name": "books"}
        )
        assert response["ok"] is True
        assert response["tree_name"] == "books"
        assert response["tree_id"] == 1
        assert response["trees"] == 2

    def test_remove_by_unknown_name_is_a_clean_error(self, dispatcher):
        response = dispatcher.handle_request(
            {"v": PROTOCOL_VERSION, "kind": "mutation", "action": "remove", "tree_name": "nope"}
        )
        assert response["kind"] == "error"
        assert "no tree named" in response["error"]

    def test_remove_by_ambiguous_name_is_a_clean_error(self, dispatcher):
        dispatcher.handle_request(
            {"v": 1, "kind": "mutation", "action": "add", "schema": {"a": []}, "name": "dup"}
        )
        dispatcher.handle_request(
            {"v": 1, "kind": "mutation", "action": "add", "schema": {"b": []}, "name": "dup"}
        )
        response = dispatcher.handle_request(
            {"v": 1, "kind": "mutation", "action": "remove", "tree_name": "dup"}
        )
        assert response["kind"] == "error"
        assert "ambiguous" in response["error"]

    def test_mutations_against_a_stateless_backend_are_rejected(self):
        dispatcher = RequestDispatcher(
            Bellflower(small_repository_factory(), element_threshold=0.5, delta=0.6)
        )
        response = dispatcher.handle_request(
            {"v": 1, "kind": "mutation", "action": "add", "schema": {"a": []}}
        )
        assert response["kind"] == "error"
        assert "does not support mutations" in response["error"]


    def test_remove_by_positional_id_reports_the_removed_name(self, dispatcher):
        added = dispatcher.handle_request(
            {"v": 1, "kind": "mutation", "action": "add", "schema": {"zqx": ["zz"]}, "name": "t"}
        )
        assert added["tree_id"] == 3
        removed = dispatcher.handle_request(
            {"v": 1, "kind": "mutation", "action": "remove", "tree_id": 3}
        )
        assert removed["kind"] == "mutation_response"
        assert removed["ok"] is True
        assert removed["tree_name"] == "t"
        assert removed["tree_id"] == 3
        assert removed["trees"] == 3


class TestRobustness:
    def test_mutation_is_not_starved_by_a_sustained_query_stream(self, dispatcher):
        # Writer preference: with queries continuously holding the read lock
        # from several threads, an add must still get through promptly.
        import threading

        stop = threading.Event()

        query = MatchRequest(schema={"person": ["name"]}, options=MatchOptions(limit=1))

        def query_forever():
            while not stop.is_set():
                dispatcher.handle_request(query.to_wire())

        readers = [threading.Thread(target=query_forever) for _ in range(4)]
        for thread in readers:
            thread.start()
        try:
            done = threading.Event()
            result = {}

            def mutate():
                result["response"] = dispatcher.handle_request(
                    {
                        "v": 1,
                        "kind": "mutation",
                        "action": "add",
                        "schema": {"zqx": ["zz"]},
                        "name": "under-load",
                    }
                )
                done.set()

            threading.Thread(target=mutate).start()
            assert done.wait(timeout=30), "mutation starved by the query stream"
            assert result["response"]["ok"] is True
        finally:
            stop.set()
            for thread in readers:
                thread.join()

    def test_handle_line_survives_garbage(self, dispatcher):
        assert dispatcher.handle_line("not json at all")["kind"] == "error"
        assert "must be a JSON object" in dispatcher.handle_line("[1, 2]")["error"]
        response = dispatcher.handle_line(
            json.dumps(MatchRequest(schema={"person": ["name"]}).to_wire())
        )
        assert response["kind"] == "match_response"


class TestDeadlinesAndResultFlags:
    def test_timeout_ms_is_accepted_and_harmless_when_generous(self, dispatcher):
        wire = MatchRequest(
            schema={"person": ["name"]}, options=MatchOptions(timeout_ms=3_600_000)
        ).to_wire()
        response = dispatcher.handle_request(wire)
        assert response["kind"] == "match_response"
        # A deadline that never fires leaves the response unmarked.
        assert response["partial"] is False and response["degraded"] is False

    @pytest.mark.parametrize("bad", [0, -5, "soon", True])
    def test_invalid_timeout_ms_is_a_clean_error(self, dispatcher, bad):
        wire = MatchRequest(schema={"person": ["name"]}).to_wire()
        wire["options"]["timeout_ms"] = bad
        response = dispatcher.handle_request(wire)
        assert response["kind"] == "error"
        assert "timeout_ms" in response["error"]

    def test_partial_and_degraded_flags_surface_in_the_response(self):
        import dataclasses

        class FlaggedService(MatchingService):
            """Stands in for a backend that truncated and degraded the answer."""

            def _match_many_schemas(self, *args, **kwargs):
                return [
                    dataclasses.replace(result, partial=True, degraded=True, skipped_shards=(1,))
                    for result in super()._match_many_schemas(*args, **kwargs)
                ]

        flagged = RequestDispatcher(
            FlaggedService(small_repository_factory(), element_threshold=0.5, delta=0.6)
        )
        typed = flagged.handle_request(MatchRequest(schema={"person": ["name"]}).to_wire())
        assert typed["kind"] == "match_response"
        assert typed["partial"] is True
        assert typed["degraded"] is True
        assert typed["skipped_shards"] == [1]
