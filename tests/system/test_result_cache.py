"""The two-segment result cache and the compact answers it keeps.

The claims the cache rests on: a stream without repeats uses it exactly like
one LRU of its capacity, a compact answer holds none of the tables a full
result keeps, it renders to the same wire form, and on Zipf traffic the
cache answers at least as many requests as one LRU.
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
from repro.system.results import MatchResult, ResultCache
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


@given(
    capacity=st.integers(min_value=0, max_value=8),
    keys=st.lists(st.integers(), unique=True, max_size=40),
)
def test_a_stream_without_repeats_evicts_like_one_lru(capacity, keys):
    cache, lru = ResultCache(capacity), LRUMemo(capacity)
    for key in keys:
        serve(cache, key)
        serve(lru, key)
        assert cache.recent.keys() == lru.keys()
        assert len(cache.reused) == 0
    assert len(cache) == len(lru)


def test_a_repeat_outlives_the_recent_segment_as_a_compact_copy():
    cache = ResultCache(1)
    full = placeholder()
    cache.put("a", full)
    assert cache.get("a") is full  # a recent hit answers with the stored object
    cache.put("b", placeholder())  # ... and "a" leaves the recent segment
    compact = cache.get("a")
    assert compact is not None and compact is not full
    assert cache.recent.keys() == ["b"] and cache.reused.keys() == ["a"]
    assert len(cache) == 2
    cache.clear()
    assert len(cache) == 0 and cache.get("a") is None


def test_zipf_traffic_hits_at_least_as_often_as_one_lru():
    rng = random.Random(11)
    keys = range(2000)
    stream = rng.choices(keys, [1 / (key + 1) ** 1.1 for key in keys], k=5000)
    two_segments, lru = ResultCache(64), LRUMemo(64)
    hits = [sum(serve(cache, key) for key in stream) for cache in (two_segments, lru)]
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
    assert len(cache.recent) <= 4 and len(cache.reused) <= 4
    assert len(cache.reused) > 0


# -- compact answers of real results ------------------------------------------


@pytest.fixture(params=["service", "shards"])
def backend(request):
    """A backend whose result cache keeps one entry per segment."""
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
    """Ask A, A, B, A of a one-entry cache: the last answer is the compact copy."""
    person, other = (TreeBuilder.from_nested(schema) for schema in (PERSON, OTHER))
    full = backend.match(person)
    assert backend.match(person) is full
    backend.match(other)
    compact = backend.match(person)
    assert backend.counters.get("query_cache_hits") == 2
    assert backend.query_cache_len == 2  # "other" in the recent segment, "person" reused
    assert type(compact) is MatchResult
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
