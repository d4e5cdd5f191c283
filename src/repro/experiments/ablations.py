"""Ablation experiments for the design choices called out in DESIGN.md.

These go beyond the paper's published evaluation and quantify the impact of:

* **centroid seeding** — MEmin (paper) vs. random vs. per-tree;
* **clustering distance** — path length (paper) vs. a blend of path length and
  name dissimilarity (the paper's future-work item 3);
* **mapping generator** — Branch-and-Bound vs. exhaustive DFS vs. beam search
  vs. A* on identical clusters;
* **bounding function** — B&B with and without pruning;
* **cluster ordering** — quality-ordered clusters vs. arbitrary order, measured
  as the number of partial mappings generated before the overall best mapping
  is found (the paper's "time-to-first good mapping" future-work item).

Run standalone with ``python -m repro.experiments.ablations``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.clustering.cluster import split_candidates
from repro.clustering.convergence import RelaxedConvergence
from repro.clustering.distance import BlendedDistance, PathLengthDistance
from repro.clustering.initialization import MEminInitializer, PerTreeInitializer, RandomInitializer
from repro.clustering.kmeans import KMeansClusterer
from repro.clustering.quality import order_clusters_by_quality
from repro.clustering.reclustering import join_and_remove
from repro.experiments.config import ExperimentConfig, ExperimentWorkload, build_workload
from repro.labeling.distance import RepositoryDistanceOracle
from repro.mapping.astar import AStarGenerator
from repro.mapping.beam import BeamSearchGenerator
from repro.mapping.branch_and_bound import BranchAndBoundGenerator
from repro.mapping.exhaustive import ExhaustiveGenerator
from repro.mapping.model import MappingProblem
from repro.system.bellflower import Bellflower
from repro.system.metrics import preservation_curve
from repro.system.variants import clustering_variant
from repro.utils.tables import AsciiTable


@dataclass
class AblationRow:
    """One configuration of one ablation."""

    ablation: str
    configuration: str
    metrics: Dict[str, object]


@dataclass
class AblationResult:
    config: ExperimentConfig
    rows: List[AblationRow] = field(default_factory=list)

    def rows_for(self, ablation: str) -> List[AblationRow]:
        return [row for row in self.rows if row.ablation == ablation]

    def render(self) -> str:
        sections = []
        for ablation in sorted({row.ablation for row in self.rows}):
            rows = self.rows_for(ablation)
            metric_names = sorted({key for row in rows for key in row.metrics})
            table = AsciiTable(["configuration"] + metric_names, title=f"Ablation — {ablation}")
            for row in rows:
                table.add_row([row.configuration] + [row.metrics.get(name, "") for name in metric_names])
            sections.append(table.render())
        return "\n\n".join(sections)


def _match_with_clusterer(workload: ExperimentWorkload, config: ExperimentConfig, clusterer, name: str):
    system = Bellflower(
        workload.repository,
        objective=config.objective(),
        generator=BranchAndBoundGenerator(),
        clusterer=clusterer,
        element_threshold=config.element_threshold,
        delta=config.delta,
        variant_name=name,
    )
    return system.match(workload.personal_schema, delta=config.delta, candidates=workload.candidates)


def run_seeding_ablation(workload: ExperimentWorkload, config: ExperimentConfig, result: AblationResult) -> None:
    """MEmin vs. random vs. per-tree centroid seeding."""
    reference = _match_with_clusterer(
        workload, config, clustering_variant("tree").make_clusterer(), "tree"
    )
    initializers = {
        "me-min (paper)": MEminInitializer(),
        "random (200 centroids)": RandomInitializer(centroid_count=200, seed=config.seed),
        "per-tree (2 per tree)": PerTreeInitializer(centroids_per_tree=2, seed=config.seed),
    }
    for label, initializer in initializers.items():
        clusterer = KMeansClusterer(
            initializer=initializer,
            reclustering=join_and_remove(distance_threshold=3.0),
            convergence=RelaxedConvergence(),
        )
        clustered = _match_with_clusterer(workload, config, clusterer, f"seeding-{label}")
        preservation = preservation_curve(reference.mappings, clustered.mappings, (config.delta, 0.9))
        result.rows.append(
            AblationRow(
                ablation="centroid seeding",
                configuration=label,
                metrics={
                    "useful_clusters": clustered.useful_cluster_count,
                    "search_space": clustered.search_space,
                    "mappings": clustered.mapping_count,
                    "preserved_at_delta": round(preservation[0].fraction, 3),
                    "preserved_at_0.9": round(preservation[-1].fraction, 3),
                },
            )
        )


def run_distance_ablation(workload: ExperimentWorkload, config: ExperimentConfig, result: AblationResult) -> None:
    """Path-length distance vs. blended (path + name) distance."""
    reference = _match_with_clusterer(
        workload, config, clustering_variant("tree").make_clusterer(), "tree"
    )
    oracle = RepositoryDistanceOracle(workload.repository)
    distances = {
        "path length (paper)": PathLengthDistance(oracle),
        "blended path+name": BlendedDistance(oracle, workload.repository, path_weight=0.7),
    }
    for label, distance in distances.items():
        clusterer = KMeansClusterer(
            initializer=MEminInitializer(),
            reclustering=join_and_remove(distance_threshold=3.0),
            convergence=RelaxedConvergence(),
            distance=distance,
        )
        clustered = _match_with_clusterer(workload, config, clusterer, f"distance-{label}")
        preservation = preservation_curve(reference.mappings, clustered.mappings, (config.delta, 0.9))
        result.rows.append(
            AblationRow(
                ablation="clustering distance",
                configuration=label,
                metrics={
                    "useful_clusters": clustered.useful_cluster_count,
                    "search_space": clustered.search_space,
                    "preserved_at_delta": round(preservation[0].fraction, 3),
                    "preserved_at_0.9": round(preservation[-1].fraction, 3),
                },
            )
        )


def run_generator_ablation(workload: ExperimentWorkload, config: ExperimentConfig, result: AblationResult) -> None:
    """B&B vs. exhaustive vs. beam vs. A* on the same (medium) clusters."""
    generators = {
        "branch-and-bound (paper)": BranchAndBoundGenerator(),
        "b&b without bounding": BranchAndBoundGenerator(use_bounding=False),
        "exhaustive": ExhaustiveGenerator(),
        "beam (width 50)": BeamSearchGenerator(beam_width=50),
        "a-star": AStarGenerator(),
    }
    for label, generator in generators.items():
        system = Bellflower(
            workload.repository,
            objective=config.objective(),
            generator=generator,
            clusterer=clustering_variant("medium").make_clusterer(),
            element_threshold=config.element_threshold,
            delta=config.delta,
            variant_name=f"generator-{label}",
        )
        run = system.match(workload.personal_schema, delta=config.delta, candidates=workload.candidates)
        result.rows.append(
            AblationRow(
                ablation="mapping generator",
                configuration=label,
                metrics={
                    "partial_mappings": run.partial_mappings,
                    "mappings": run.mapping_count,
                    "generation_seconds": round(run.generation_seconds, 3),
                },
            )
        )


def run_cluster_ordering_ablation(
    workload: ExperimentWorkload, config: ExperimentConfig, result: AblationResult
) -> None:
    """Quality-ordered clusters vs. arbitrary order: partial mappings until the best mapping."""
    clusterer = clustering_variant("medium").make_clusterer()
    clustering = clusterer.cluster(workload.candidates, workload.repository)
    oracle = RepositoryDistanceOracle(workload.repository)
    objective = config.objective()
    generator = BranchAndBoundGenerator()

    useful_tables = split_candidates(clustering.clusters, workload.candidates).useful()
    tables = {cluster.cluster_id: table for cluster, table in useful_tables}
    useful = [cluster for cluster, _ in useful_tables]
    ordered = [cluster for cluster, _ in order_clusters_by_quality(useful, workload.candidates, objective)]
    arbitrary = sorted(useful, key=lambda cluster: cluster.cluster_id)

    def best_score_and_cost(clusters) -> Dict[str, object]:
        best = 0.0
        cost_until_best = 0
        cost_total = 0
        for cluster in clusters:
            problem = MappingProblem(
                personal_schema=workload.personal_schema,
                candidates=tables[cluster.cluster_id],
                oracle=oracle,
                objective=objective,
                delta=config.delta,
                cluster_id=cluster.cluster_id,
            )
            generated = generator.generate(problem)
            cost_total += generated.partial_mappings
            if generated.mappings and generated.mappings[0].score > best:
                best = generated.mappings[0].score
                cost_until_best = cost_total
        return {
            "best_score": round(best, 3),
            "partials_until_best": cost_until_best,
            "partials_total": cost_total,
        }

    result.rows.append(
        AblationRow(
            ablation="cluster ordering",
            configuration="quality-ordered",
            metrics=best_score_and_cost(ordered),
        )
    )
    result.rows.append(
        AblationRow(
            ablation="cluster ordering",
            configuration="arbitrary order",
            metrics=best_score_and_cost(arbitrary),
        )
    )


def run_all(
    config: Optional[ExperimentConfig] = None,
    workload: Optional[ExperimentWorkload] = None,
) -> AblationResult:
    """Run every ablation against one shared workload."""
    config = config or ExperimentConfig.quick()
    workload = workload or build_workload(config)
    result = AblationResult(config=config)
    run_seeding_ablation(workload, config, result)
    run_distance_ablation(workload, config, result)
    run_generator_ablation(workload, config, result)
    run_cluster_ordering_ablation(workload, config, result)
    return result


def main() -> None:  # pragma: no cover - CLI convenience
    print(run_all(ExperimentConfig.quick()).render())


if __name__ == "__main__":  # pragma: no cover
    main()
