"""Shared fixtures for the resilience tests.

Mirrors the shard-layer conftest at a smaller scale: one package-scoped
synthetic repository plus unsharded reference results, so every chaos
configuration (fault plans, retries, hedging, degraded failover) is compared
against the same ground truth without regenerating it per test.
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
def chaos_repository():
    profile = RepositoryProfile(
        target_node_count=400, min_tree_size=10, max_tree_size=40, seed=31, name="chaos-repo"
    )
    return RepositoryGenerator(profile).generate()


@pytest.fixture(scope="package")
def chaos_reference(chaos_repository):
    # Cache-free, so every query runs the pipeline and a deadline can cut it.
    return MatchingService(chaos_repository, element_threshold=THRESHOLD, query_cache_size=0)


@pytest.fixture(scope="package")
def chaos_schemas():
    return [paper_personal_schema(), contact_personal_schema(), book_personal_schema()]


@pytest.fixture(scope="package")
def chaos_reference_results(chaos_reference, chaos_schemas):
    return [chaos_reference.match(schema) for schema in chaos_schemas]
