"""The result cache: one LRU of compact answers.

The claims the cache rests on: it keeps and evicts keys exactly as one LRU of
its capacity, a stored answer holds none of the tables a full result keeps,
it renders to the same wire form, and on Zipf traffic the default capacity
answers at least as many requests as the two segments of 64 it replaced.
"""

from __future__ import annotations

import gc
import random
import sys
import threading
import types

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api.encode import match_response
from repro.api.envelope import MatchOptions
from repro.clustering.cluster import Cluster, ClusterSet
from repro.mapping.base import GenerationResult
from repro.matchers.index import LRUMemo
from repro.matchers.selection import MappingElementSets
from repro.schema.builder import TreeBuilder
from repro.service import MatchingService
from repro.shard import ShardedMatchingService
from repro.shard.service import MergedMatchResult
from repro.system.results import DEFAULT_QUERY_CACHE_SIZE, MatchResult, ResultCache
from repro.workload.generator import RepositoryGenerator, RepositoryProfile

PERSON = {"person": ["name", "email", "address"]}
OTHER = {"book": ["title", "author"]}


def placeholder(tag="placeholder"):
    """A result with nothing in it: the cache never looks inside a value."""
    return MatchResult(
        variant_name=tag,
        mappings=[],
        candidates=None,
        clustering=None,
        generation=GenerationResult(),
    )


def serve(cache, key):
    """What the batch front end does with one key: look it up, store a miss."""
    if cache.get(key) is None:
        cache.put(key, placeholder())
        return False
    return True


class TwoSegments:
    """The cache this one replaced, for comparison: whole answers in a recent
    LRU, and a copy of each answer hit there in a reused LRU that outlives it."""

    def __init__(self, capacity):
        self.recent, self.reused = LRUMemo(capacity), LRUMemo(capacity)

    def get(self, key):
        result = self.recent.get(key)
        if result is None:
            return self.reused.get(key)
        if self.reused.get(key) is None:
            self.reused.put(key, result)
        return result

    def put(self, key, result):
        self.recent.put(key, result)


@given(
    capacity=st.integers(min_value=0, max_value=8),
    keys=st.lists(st.integers(min_value=0, max_value=12), max_size=60),
)
def test_the_cache_keeps_the_keys_of_one_lru(capacity, keys):
    cache, lru = ResultCache(capacity), LRUMemo(capacity)
    for key in keys:
        assert serve(cache, key) == serve(lru, key)
        assert cache.keys() == lru.keys()
    assert len(cache) == len(lru) <= capacity


def test_a_hit_returns_the_stored_compact_copy():
    cache = ResultCache(1)
    full = placeholder()
    cache.put("a", full)
    compact = cache.get("a")
    assert type(compact) is MatchResult and compact is not full
    assert compact.variant_name == full.variant_name
    assert cache.get("a") is compact  # every later hit returns the same copy
    cache.put("b", placeholder())  # ... until a one-entry cache lets "a" go
    assert cache.get("a") is None and cache.keys() == ["b"]
    cache.clear()
    assert len(cache) == 0 and cache.get("b") is None


def test_zipf_traffic_hits_at_least_as_often_as_the_two_segments_it_replaced():
    rng = random.Random(11)
    keys = range(2000)
    stream = rng.choices(keys, [1 / (key + 1) ** 1.1 for key in keys], k=5000)
    one_lru, two_segments = ResultCache(DEFAULT_QUERY_CACHE_SIZE), TwoSegments(64)
    hits = [sum(serve(cache, key) for key in stream) for cache in (one_lru, two_segments)]
    assert hits[0] >= hits[1]


def test_racing_threads_get_each_key_its_own_answer():
    cache = ResultCache(4)
    wrong = []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(1000):
            key = rng.randrange(12)
            result = cache.get(key)
            if result is None:
                cache.put(key, placeholder(f"key-{key}"))
            elif result.variant_name != f"key-{key}":
                wrong.append((key, result.variant_name))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert 0 < len(cache) <= 4


# -- compact answers of real results ------------------------------------------


@pytest.fixture(params=["service", "shards"])
def backend(request):
    """A backend whose result cache keeps one entry."""
    profile = RepositoryProfile(
        target_node_count=800, min_tree_size=10, max_tree_size=60, seed=11, name="compact"
    )
    repository = RepositoryGenerator(profile).generate()
    options = dict(element_threshold=0.5, delta=0.6, query_cache_size=1)
    if request.param == "service":
        return MatchingService(repository, **options)
    return ShardedMatchingService.from_repository(repository, 2, **options)


def reachable(root):
    """Every object ``root`` reaches, not following types, modules or code."""
    skipped = (
        type,
        types.ModuleType,
        types.FunctionType,
        types.BuiltinFunctionType,
        types.CodeType,
    )
    seen = {id(root): root}
    stack = [root]
    while stack:
        for referent in gc.get_referents(stack.pop()):
            if not isinstance(referent, skipped) and id(referent) not in seen:
                seen[id(referent)] = referent
                stack.append(referent)
    return list(seen.values())


def tables(objects, root):
    """The candidate tables, clusters and other results among ``objects``."""
    return [
        item
        for item in objects
        if isinstance(item, (Cluster, ClusterSet, MappingElementSets))
        or (isinstance(item, MatchResult) and item is not root)
    ]


def test_a_served_repeat_reaches_no_table(backend):
    """Ask A, A, A, B, A of a one-entry cache: the hits share one compact copy."""
    person, other = (TreeBuilder.from_nested(schema) for schema in (PERSON, OTHER))
    full = backend.match(person)
    compact = backend.match(person)
    assert backend.match(person) is compact
    assert backend.counters.get("query_cache_hits") == 2
    assert backend.query_cache_len == 1
    assert type(compact) is MatchResult and compact is not full
    assert compact.candidates is None and compact.clustering is None
    assert compact.ranking_key() == full.ranking_key()
    assert tables(reachable(compact), compact) == []
    # The walk does find what the full result holds.
    if isinstance(full, MergedMatchResult):
        assert any(isinstance(item, MatchResult) for item in tables(reachable(full), full))
    else:
        found = tables(reachable(full), full)
        assert any(isinstance(item, MappingElementSets) for item in found)
        assert any(isinstance(item, ClusterSet) for item in found)
    # "other" takes the one entry, so A is computed again.
    backend.match(other)
    again = backend.match(person)
    assert again is not compact and again.ranking_key() == full.ranking_key()
    assert backend.counters.get("query_cache_misses") == 3


def test_compact_answers_render_like_the_full_result(backend):
    person = TreeBuilder.from_nested(PERSON)
    full = backend.match(person)
    count = len(full.mappings)
    assert count >= 4
    pages = [
        MatchOptions(offset=offset, limit=limit, explain=explain)
        for offset in range(count + 2)
        for limit in (None, 1, 3)
        for explain in (False, True)
    ]
    # Compacted before any page was rendered, and again after every page was.
    first = full.compact()
    wires = [match_response(backend.repository, person, first, page).to_wire() for page in pages]
    assert wires == [
        match_response(backend.repository, person, full, page).to_wire() for page in pages
    ]
    assert wires == [
        match_response(backend.repository, person, full.compact(), page).to_wire()
        for page in pages
    ]
