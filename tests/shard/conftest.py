"""Shared fixtures for the shard-layer tests.

One module-scoped repository + unsharded reference service keeps the
equivalence matrix (shard counts × routers) affordable: the
reference results are computed once and every sharded configuration is
compared against them.
"""

from __future__ import annotations

import pytest

from repro.service import MatchingService
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import (
    book_personal_schema,
    contact_personal_schema,
    paper_personal_schema,
)

THRESHOLD = 0.5


@pytest.fixture(scope="package")
def shard_repository():
    profile = RepositoryProfile(
        target_node_count=700, min_tree_size=10, max_tree_size=55, seed=23, name="shard-repo"
    )
    return RepositoryGenerator(profile).generate()


@pytest.fixture(scope="package")
def reference_service(shard_repository):
    return MatchingService(shard_repository, element_threshold=THRESHOLD)


@pytest.fixture(scope="package")
def query_schemas():
    return [paper_personal_schema(), contact_personal_schema(), book_personal_schema()]


@pytest.fixture(scope="package")
def reference_results(reference_service, query_schemas):
    return [reference_service.match(schema) for schema in query_schemas]
