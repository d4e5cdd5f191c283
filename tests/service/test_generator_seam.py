"""Stage 3's per-cluster search loop, observed through the ``generator=`` parameter.

``Bellflower.generate_mappings`` searches the useful clusters one after
another, inline, in cluster order.  A recording
:class:`~repro.mapping.base.MappingGenerator` that wraps Branch-and-Bound
sees every search, so these checks run once per entry point that accepts
``generator=``: ``Bellflower``, ``MatchingService`` (with the default
partition and with a query-dependent k-means variant), ``load_snapshot`` as
loaded, and a loaded snapshot that a mutation thawed.  Every answer must
equal the default generator's.
"""

from __future__ import annotations

import threading

import pytest

from repro.mapping.base import MappingGenerator
from repro.mapping.branch_and_bound import BranchAndBoundGenerator
from repro.mapping.engine import TopKPool
from repro.resilience import Deadline
from repro.service import MatchingService, load_snapshot, write_snapshot
from repro.system.bellflower import Bellflower
from repro.utils.counters import CounterSet
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import paper_personal_schema

from _equivalence import counters_key, path_records_key, result_key

ENTRY_POINTS = ("bellflower", "service", "kmeans-service", "snapshot", "thawed-snapshot")


class RecordingGenerator(MappingGenerator):
    """Branch-and-Bound that records each search; ``fail_on`` names a call to fail."""

    name = BranchAndBoundGenerator.name

    def __init__(self, fail_on=None) -> None:
        self.inner = BranchAndBoundGenerator()
        self.fail_on = fail_on
        self.problems = []
        self.results = []
        self.threads = []

    def generate(self, problem):
        call = len(self.problems)
        self.problems.append(problem)
        self.threads.append(threading.get_ident())
        if call == self.fail_on:
            raise RuntimeError(f"search {call} failed")
        result = self.inner.generate(problem)
        self.results.append(result)
        return result


@pytest.fixture(scope="module")
def seam_files(tmp_path_factory):
    """A small repository plus its snapshot."""
    target = tmp_path_factory.mktemp("seam")
    repository = RepositoryGenerator(
        RepositoryProfile(
            target_node_count=400, min_tree_size=10, max_tree_size=50, seed=41, name="seam"
        )
    ).generate()
    service = MatchingService(repository, element_threshold=0.5)
    write_snapshot(service, target / "snap.frozen")
    return repository, target


def build(entry, seam_files, generator=None):
    """A cache-free matcher for ``entry``: every query runs its searches."""
    repository, target = seam_files
    if entry == "bellflower":
        return Bellflower(repository, element_threshold=0.5, generator=generator)
    if entry in ("service", "kmeans-service"):
        return MatchingService(
            repository,
            element_threshold=0.5,
            generator=generator,
            variant="medium" if entry == "kmeans-service" else None,
            query_cache_size=0,
        )
    loaded = load_snapshot(target / "snap.frozen", generator=generator, query_cache_size=0)
    if entry == "thawed-snapshot":
        # Removing the last tree thaws the frozen views into in-memory ones.
        loaded.remove_tree(loaded.repository.tree_count - 1)
    else:
        assert entry == "snapshot"
    return loaded


def answer_key(result):
    return (result_key(result), path_records_key(result), counters_key(result))


@pytest.mark.parametrize("entry", ENTRY_POINTS)
class TestPerClusterSearchLoop:
    def test_every_useful_cluster_gets_one_search_in_cluster_order(self, seam_files, entry):
        recorder = RecordingGenerator()
        result = build(entry, seam_files, recorder).match(paper_personal_schema())
        assert result.useful_cluster_count >= 2
        assert [problem.cluster_id for problem in recorder.problems] == [
            report.cluster_id for report in result.cluster_reports
        ]
        default = build(entry, seam_files).match(paper_personal_schema())
        assert answer_key(result) == answer_key(default)

    def test_a_top_k_query_shares_one_pool_across_its_searches(self, seam_files, entry):
        recorder = RecordingGenerator()
        matcher = build(entry, seam_files, recorder)
        result = matcher.match(paper_personal_schema(), top_k=3)
        problems = list(recorder.problems)
        assert len(problems) == result.useful_cluster_count
        assert isinstance(problems[0].shared_pool, TopKPool)
        assert all(problem.shared_pool is problems[0].shared_pool for problem in problems)
        # The pool belongs to one query: the next one starts from an empty floor.
        matcher.match(paper_personal_schema(), top_k=3)
        assert recorder.problems[len(problems)].shared_pool is not problems[0].shared_pool
        default = build(entry, seam_files).match(paper_personal_schema(), top_k=3)
        assert answer_key(result) == answer_key(default)
        assert len(result.mappings) == 3

    def test_the_merged_generation_folds_every_search(self, seam_files, entry):
        recorder = RecordingGenerator()
        result = build(entry, seam_files, recorder).match(paper_personal_schema())
        expected = CounterSet()
        for search in recorder.results:
            expected.merge(search.counters)
        assert result.generation.counters.as_dict() == expected.as_dict()
        assert result.generation.elapsed_seconds == sum(
            search.elapsed_seconds for search in recorder.results
        )
        found = {id(mapping) for search in recorder.results for mapping in search.mappings}
        assert result.mappings and all(id(mapping) in found for mapping in result.mappings)

    def test_every_search_polls_the_query_deadline(self, seam_files, entry):
        recorder = RecordingGenerator()
        deadline = Deadline.after_ms(3_600_000)
        result = build(entry, seam_files, recorder).match(paper_personal_schema(), deadline=deadline)
        assert recorder.problems
        assert all(problem.deadline is deadline for problem in recorder.problems)
        assert not result.partial
        default = build(entry, seam_files).match(paper_personal_schema())
        assert result_key(result) == result_key(default)

    def test_searches_run_inline_on_the_calling_thread(self, seam_files, entry):
        recorder = RecordingGenerator()
        build(entry, seam_files, recorder).match(paper_personal_schema(), top_k=5)
        assert len(recorder.threads) >= 2
        assert set(recorder.threads) == {threading.get_ident()}

    def test_a_failing_search_fails_the_query_and_the_next_query_is_answered(
        self, seam_files, entry
    ):
        recorder = RecordingGenerator(fail_on=1)
        matcher = build(entry, seam_files, recorder)
        with pytest.raises(RuntimeError, match="search 1 failed"):
            matcher.match(paper_personal_schema())
        # The loop stops at the failure: no later cluster is searched.
        assert len(recorder.problems) == 2
        answered = matcher.match(paper_personal_schema())
        # Stage 1 finished before the failure, so the matcher is as warm as a
        # default one after its first query.
        default = build(entry, seam_files)
        default.match(paper_personal_schema())
        assert answer_key(answered) == answer_key(default.match(paper_personal_schema()))
