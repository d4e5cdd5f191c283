"""repro — Bellflower: clustered XML schema matching.

A from-scratch reproduction of *"Using Element Clustering to Increase the
Efficiency of XML Schema Matching"* (Smiljanić, van Keulen, Jonker — ICDE
2006): the Bellflower schema matcher, the clustered schema matching technique
built around an adapted k-means over mapping elements, the substrates both
depend on (schema model, XSD/DTD parsers, node-labeling distance oracles,
string matchers, Branch-and-Bound mapping generation), and the experiment
harness that regenerates every table and figure of the paper's evaluation.

Quickstart
----------
>>> from repro import Bellflower, clustering_variant
>>> from repro.workload import RepositoryGenerator, RepositoryProfile, paper_personal_schema
>>> repository = RepositoryGenerator(RepositoryProfile(target_node_count=2000)).generate()
>>> matcher = Bellflower(repository, clusterer=clustering_variant("medium").make_clusterer())
>>> result = matcher.match(paper_personal_schema(), delta=0.75)
"""

from repro.errors import (
    ClusteringError,
    ConfigurationError,
    ExperimentError,
    InvalidRequestError,
    LabelingError,
    MappingError,
    MatcherError,
    ObjectiveError,
    ReproError,
    SchemaError,
    SchemaParseError,
    ShardError,
    ShardManifestError,
    UnknownNodeError,
    UnknownTreeError,
    WorkloadError,
)
from repro.schema import (
    DataType,
    NodeKind,
    SchemaNode,
    SchemaRepository,
    SchemaTree,
    TreeBuilder,
    parse_dtd,
    parse_xsd,
)
from repro.matchers import FuzzyNameMatcher, MappingElementSelector, TokenNameMatcher
from repro.objective import BellflowerObjective
from repro.mapping import (
    AStarGenerator,
    BeamSearchGenerator,
    BranchAndBoundGenerator,
    ExhaustiveGenerator,
    SchemaMapping,
    TopKPool,
)
from repro.clustering import FragmentClusterer, KMeansClusterer, TreeClusterer
from repro.system import (
    Bellflower,
    MatchResult,
    clustering_variant,
    preservation_curve,
    standard_variants,
)
from repro.service import (
    MatchingService,
    load_snapshot,
    write_snapshot,
)
from repro.shard import (
    ShardedMatchingService,
    load_shard_set,
    write_shard_set,
)
from repro.api import (
    PROTOCOL_VERSION,
    Matcher,
    MatcherServer,
    MatchOptions,
    MatchRequest,
    MatchResponse,
    MutationRequest,
    MutationResponse,
    StatsRequest,
    StatsResponse,
)

__version__ = "1.0.0"

__all__ = [
    "AStarGenerator",
    "BeamSearchGenerator",
    "Bellflower",
    "BellflowerObjective",
    "BranchAndBoundGenerator",
    "ClusteringError",
    "ConfigurationError",
    "DataType",
    "ExhaustiveGenerator",
    "ExperimentError",
    "FragmentClusterer",
    "FuzzyNameMatcher",
    "KMeansClusterer",
    "LabelingError",
    "MappingElementSelector",
    "MappingError",
    "MatchResult",
    "MatcherError",
    "MatchingService",
    "NodeKind",
    "ObjectiveError",
    "ReproError",
    "SchemaError",
    "SchemaMapping",
    "SchemaNode",
    "SchemaParseError",
    "SchemaRepository",
    "SchemaTree",
    "ShardError",
    "ShardManifestError",
    "ShardedMatchingService",
    "TokenNameMatcher",
    "TopKPool",
    "TreeBuilder",
    "TreeClusterer",
    "UnknownNodeError",
    "UnknownTreeError",
    "WorkloadError",
    "__version__",
    "clustering_variant",
    "load_shard_set",
    "load_snapshot",
    "parse_dtd",
    "parse_xsd",
    "preservation_curve",
    "standard_variants",
    "write_shard_set",
    "write_snapshot",
]
