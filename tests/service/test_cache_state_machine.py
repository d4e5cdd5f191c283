"""Model-based check of the result cache: random histories against cache-free twins.

A :class:`~hypothesis.stateful.RuleBasedStateMachine` sends random sequences
of match, batch and mutation lines through :class:`RequestDispatcher` to a
cached backend (a :class:`MatchingService` or a two-shard set, with
``query_cache_size`` 1 or 2) and to the same backend without a cache.  Such
small segments make one-off queries push repeats out of the recent segment
often, so the reused segment's compact copies answer many of the repeats.
After every step each answer must equal the twin's: the ranking, path records
and counters of the result it was encoded from, and the response line with
its ``timings`` removed.

An example serves up to thirty lines, twice, so the machine runs an eighth
of the loaded profile's ``max_examples``: a bounded run in tier-1's default
profile and a longer seeded one under ``--hypothesis-profile=ci`` (see
``tests/conftest.py``).
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.api import encode
from repro.api.dispatch import RequestDispatcher
from repro.matchers.name import FuzzyNameMatcher
from repro.service import MatchingService
from repro.shard import ShardedMatchingService
from repro.workload.generator import RepositoryGenerator, RepositoryProfile

from _equivalence import counters_key, path_records_key, result_key

#: The personal schemas requests draw from.
SCHEMAS = (
    {"person": ["name", "email", "address"]},
    {"person": ["name", "email", "phone"]},
    {"contact": ["name", "address", "city"]},
    {"book": ["title", "author"]},
)
#: Trees a mutation may add to the repository.
NEW_TREES = (
    {"person": ["name", "email", {"address": ["city", "zip"]}]},
    {"library": [{"book": ["title", "author", "price"]}]},
    {"order": [{"item": ["quantity", "price", "sku"]}, "city"]},
)
#: Removals wait until every shard holds more trees than this, so no shard
#: runs empty and every query still has trees to match.
MIN_SHARD_TREES = 2
#: A mutation clears the cache, so mutations wait for this many query lines.
QUERIES_PER_MUTATION = 8


def backend(kind, size):
    profile = RepositoryProfile(
        target_node_count=300, min_tree_size=12, max_tree_size=60, seed=67, name="machine"
    )
    repository = RepositoryGenerator(profile).generate()
    # No name-score memo, so a result's counters depend on its query alone.
    options = dict(matcher=FuzzyNameMatcher(memo_size=0), element_threshold=0.5)
    if kind == "service":
        return MatchingService(repository, query_cache_size=size, **options)
    return ShardedMatchingService.from_repository(
        repository, 2, query_cache_size=size, **options
    )


def without_timings(answer):
    """A response with its wall-clock timings removed (they differ run to run)."""
    if isinstance(answer, dict):
        return {key: without_timings(value) for key, value in answer.items() if key != "timings"}
    if isinstance(answer, list):
        return [without_timings(value) for value in answer]
    return answer


@contextmanager
def encoded_results(results):
    """Append every result a response is encoded from to ``results``."""
    render = encode.match_response

    def recording(repository, personal, result, options, warnings=()):
        results.append(result)
        return render(repository, personal, result, options, warnings=warnings)

    encode.match_response = recording
    try:
        yield
    finally:
        encode.match_response = render


def paging():
    """Options that shape only the encoding: ``explain`` and the page."""
    return st.fixed_dictionaries(
        {},
        optional={
            "explain": st.just(True),
            "offset": st.integers(min_value=1, max_value=4),
            "limit": st.integers(min_value=1, max_value=3),
        },
    )


@st.composite
def match_envelopes(draw):
    # Options in the cache key: the schema, δ and top_k.
    options = dict(draw(st.sampled_from([{}, {}, {"top_k": 2}, {"delta": 0.6}])))
    options.update(draw(paging()))
    envelope = {"v": 1, "kind": "match", "schema": draw(st.sampled_from(SCHEMAS))}
    envelope["options"] = options
    # An equal schema under another display name shares the cache key.
    name = draw(st.sampled_from([None, "alice", "bob"]))
    if name is not None:
        envelope["name"] = name
    return envelope


class ResultCacheMachine(RuleBasedStateMachine):
    sent = Bundle("sent")

    @initialize(kind=st.sampled_from(["service", "shards"]), size=st.sampled_from([1, 2]))
    def build(self, kind, size):
        self.cached = RequestDispatcher(backend(kind, size))
        self.fresh = RequestDispatcher(backend(kind, 0))
        self.queries = 0

    def mutable(self):
        return self.queries >= QUERIES_PER_MUTATION

    def removable(self):
        matcher = self.cached.matcher
        shards = getattr(matcher, "shards", [matcher])
        return self.mutable() and all(
            shard.repository.tree_count > MIN_SHARD_TREES for shard in shards
        )

    def serve(self, envelope):
        """Send one line to both backends; every answer must equal the twin's."""
        line = json.dumps(envelope)
        answers = []
        for dispatcher in (self.cached, self.fresh):
            results = []
            with encoded_results(results):
                response = dispatcher.handle_line(line)
            keys = [
                (result_key(result), path_records_key(result), counters_key(result))
                for result in results
            ]
            answers.append((without_timings(response), keys))
        assert answers[0] == answers[1]
        assert answers[0][0]["kind"] != "error", answers[0][0]
        self.queries = 0 if envelope["kind"] == "mutation" else self.queries + 1

    @rule(target=sent, envelope=match_envelopes())
    def match(self, envelope):
        self.serve(envelope)
        return envelope

    @rule(envelope=sent, page=paging())
    def repeat(self, envelope, page):
        """Ask an earlier query again, maybe for another page."""
        options = envelope["options"]
        keyed = {key: options[key] for key in ("top_k", "delta") if key in options}
        self.serve(dict(envelope, options=dict(keyed, **page)))

    @rule(envelopes=st.lists(st.one_of(sent, match_envelopes()), min_size=1, max_size=4))
    def match_many(self, envelopes):
        self.serve({"v": 1, "kind": "batch", "requests": envelopes})

    @precondition(mutable)
    @rule(schema=st.sampled_from(NEW_TREES))
    def add_tree(self, schema):
        self.serve({"v": 1, "kind": "mutation", "action": "add", "schema": schema})

    @precondition(removable)
    @rule(position=st.integers(min_value=0, max_value=100))
    def remove_tree(self, position):
        tree_id = position % self.cached.matcher.repository.tree_count
        self.serve({"v": 1, "kind": "mutation", "action": "remove", "tree_id": tree_id})

    @invariant()
    def segments_stay_bounded(self):
        cache = self.cached.matcher._result_cache
        assert len(cache.recent) <= cache.capacity
        assert len(cache.reused) <= cache.capacity


ResultCacheMachine.TestCase.settings = settings(
    max_examples=max(1, settings.default.max_examples // 8),
    stateful_step_count=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestResultCacheMachine = ResultCacheMachine.TestCase
