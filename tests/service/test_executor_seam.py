"""The per-cluster task seam through every entry point that accepts ``executor=``.

Queries run serially, but ``Bellflower``, ``MatchingService``,
``load_snapshot`` (JSON and frozen) and ``load_frozen_service`` still hand
their per-cluster searches to a :class:`~repro.utils.executor.TaskExecutor`
when given one: that is where ``query|serve --snapshot --fault-plan`` injects
faults.  Each test runs once per entry point and pins that the seam sees one
task per useful cluster, that injected delays leave the answer alone, that
injected errors fail the query, that a top-k query shares one pool across its
tasks, and that the executor is named on the wire.
"""

from __future__ import annotations

import pytest

from repro.errors import InjectedFaultError
from repro.resilience import ChaosExecutor, FaultInjector, FaultPlan, FaultSpec
from repro.service import MatchingService, load_snapshot, write_snapshot
from repro.storage import freeze_service, load_frozen_service
from repro.system.bellflower import Bellflower
from repro.utils.executor import DelegatingExecutor, SerialExecutor
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import paper_personal_schema

from _equivalence import counters_key, path_records_key, result_key

ENTRY_POINTS = ("bellflower", "service", "json-snapshot", "frozen-snapshot", "frozen-service")


@pytest.fixture(scope="module")
def seam_files(tmp_path_factory):
    """A small repository plus its JSON and frozen snapshots."""
    target = tmp_path_factory.mktemp("seam")
    repository = RepositoryGenerator(
        RepositoryProfile(
            target_node_count=400, min_tree_size=10, max_tree_size=50, seed=41, name="seam"
        )
    ).generate()
    service = MatchingService(repository, element_threshold=0.5)
    write_snapshot(service, target / "snap.json")
    freeze_service(service, target / "snap.frozen")
    return repository, target


def build(entry, seam_files, executor=None):
    """A cache-free matcher for ``entry``: every query takes the seam."""
    repository, target = seam_files
    if entry == "bellflower":
        return Bellflower(repository, element_threshold=0.5, executor=executor)
    if entry == "service":
        return MatchingService(
            repository, element_threshold=0.5, executor=executor, query_cache_size=0
        )
    if entry == "json-snapshot":
        return load_snapshot(target / "snap.json", executor=executor, query_cache_size=0)
    if entry == "frozen-snapshot":
        return load_snapshot(target / "snap.frozen", executor=executor, query_cache_size=0)
    assert entry == "frozen-service"
    return load_frozen_service(target / "snap.frozen", executor=executor, query_cache_size=0)


def answer_key(result):
    return (result_key(result), path_records_key(result), counters_key(result))


def chaos(spec, sleep=None):
    plan = FaultPlan(specs=(spec,))
    if sleep is None:
        return ChaosExecutor(SerialExecutor(), FaultInjector(plan))
    return ChaosExecutor(SerialExecutor(), FaultInjector(plan, sleep=sleep))


class RecordingExecutor(DelegatingExecutor):
    """Runs tasks serially and records the items of every ``map`` call."""

    name = "recording"

    def __init__(self) -> None:
        super().__init__(SerialExecutor())
        self.batches = []

    def map(self, fn, items):
        self.batches.append(list(items))
        return super().map(fn, items)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
class TestExecutorSeam:
    def test_every_useful_cluster_runs_as_one_task(self, seam_files, entry):
        recorder = RecordingExecutor()
        result = build(entry, seam_files, recorder).match(paper_personal_schema())
        assert result.useful_cluster_count >= 2
        assert [len(batch) for batch in recorder.batches] == [result.useful_cluster_count]
        inline = build(entry, seam_files).match(paper_personal_schema())
        assert answer_key(result) == answer_key(inline)

    def test_a_top_k_query_hands_every_task_one_shared_pool(self, seam_files, entry):
        recorder = RecordingExecutor()
        result = build(entry, seam_files, recorder).match(paper_personal_schema(), top_k=3)
        (problems,) = recorder.batches
        assert len(problems) == result.useful_cluster_count
        assert problems[0].shared_pool is not None
        assert all(problem.shared_pool is problems[0].shared_pool for problem in problems)
        inline = build(entry, seam_files).match(paper_personal_schema(), top_k=3)
        assert answer_key(result) == answer_key(inline)
        assert len(result.mappings) == 3

    def test_a_delay_plan_keeps_the_answer(self, seam_files, entry):
        naps = []
        executor = chaos(FaultSpec(key="task-0", kind="delay", delay_ms=5.0), sleep=naps.append)
        result = build(entry, seam_files, executor).match(paper_personal_schema())
        inline = build(entry, seam_files).match(paper_personal_schema())
        assert answer_key(result) == answer_key(inline)
        assert naps == [0.005]
        assert executor.injector.injected == {"delay": 1}

    def test_an_error_plan_fails_the_query(self, seam_files, entry):
        executor = chaos(FaultSpec(key="task-1", kind="error", message="cluster down"))
        with pytest.raises(InjectedFaultError, match=r"cluster down \(key=task-1\)"):
            build(entry, seam_files, executor).match(paper_personal_schema())

    def test_fault_call_counters_carry_across_queries(self, seam_files, entry):
        # The injector lives as long as the matcher, so a plan can pick the
        # n-th query: here only the second one fails.
        executor = chaos(FaultSpec(key="task-0", kind="error", calls=[1]))
        matcher = build(entry, seam_files, executor)
        first = matcher.match(paper_personal_schema())
        with pytest.raises(InjectedFaultError):
            matcher.match(paper_personal_schema())
        third = matcher.match(paper_personal_schema())
        assert result_key(third) == result_key(first)

    def test_stats_and_describe_name_the_executor(self, seam_files, entry):
        inline = build(entry, seam_files)
        assert inline.stats()["executor"] == inline.describe()["executor"] == "serial"
        routed = build(entry, seam_files, chaos(FaultSpec(key="task-0", kind="delay")))
        assert routed.stats()["executor"] == routed.describe()["executor"] == "chaos"
