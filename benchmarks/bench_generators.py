"""Ablation benchmark: mapping generators on identical clusters.

Compares the paper's Branch-and-Bound against the exhaustive DFS it improves
on, against B&B without its bounding function, and against the beam / A*
search strategies used by related systems (iMap, LSD) — all on the same
"medium" clusters, so the timing differences are attributable to the search
strategy alone.  This is the ablation DESIGN.md item 4.
"""

from __future__ import annotations

import pytest

from repro.clustering.cluster import split_candidates
from repro.labeling.distance import RepositoryDistanceOracle
from repro.mapping.astar import AStarGenerator
from repro.mapping.beam import BeamSearchGenerator
from repro.mapping.branch_and_bound import BranchAndBoundGenerator
from repro.mapping.exhaustive import ExhaustiveGenerator
from repro.mapping.model import MappingProblem
from repro.system.variants import clustering_variant

GENERATORS = {
    "branch-and-bound": BranchAndBoundGenerator,
    "bnb-no-bounding": lambda: BranchAndBoundGenerator(use_bounding=False),
    "exhaustive": ExhaustiveGenerator,
    "beam-50": lambda: BeamSearchGenerator(beam_width=50),
    "a-star": AStarGenerator,
}


@pytest.fixture(scope="module")
def cluster_problems(bench_workload, bench_config):
    """Mapping problems for every useful medium cluster (shared by all generators)."""
    clusterer = clustering_variant("medium").make_clusterer()
    clustering = clusterer.cluster(bench_workload.candidates, bench_workload.repository)
    oracle = RepositoryDistanceOracle(bench_workload.repository)
    problems = []
    for cluster, table in split_candidates(clustering.clusters, bench_workload.candidates).useful():
        problems.append(
            MappingProblem(
                personal_schema=bench_workload.personal_schema,
                candidates=table,
                oracle=oracle,
                objective=bench_config.objective(),
                delta=bench_config.delta,
                cluster_id=cluster.cluster_id,
            )
        )
    return problems


@pytest.mark.parametrize("generator_name", sorted(GENERATORS))
def test_generator_over_medium_clusters(benchmark, cluster_problems, generator_name):
    """Total mapping-generation work over all useful medium clusters."""

    def generate_all():
        generator = GENERATORS[generator_name]()
        mappings = 0
        partials = 0
        for problem in cluster_problems:
            result = generator.generate(problem)
            mappings += result.mapping_count
            partials += result.partial_mappings
        return mappings, partials

    mappings, partials = benchmark.pedantic(generate_all, rounds=3, iterations=1)
    benchmark.extra_info["mappings"] = mappings
    benchmark.extra_info["partial_mappings"] = partials
    assert mappings >= 0
