"""Shared fixtures for the test suite.

Fixtures fall into two groups: small hand-built schemas mirroring the paper's
running example (Fig. 1), and session-scoped synthetic workloads used by the
integration tests so the expensive generation / element-matching steps run
once.

The ``ci`` hypothesis profile (``pytest --hypothesis-profile=ci``) runs more
examples from a fixed seed, for CI's longer run of the stateful tests; the
default profile is hypothesis's own.
"""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.labeling.distance import RepositoryDistanceOracle
from repro.matchers.name import FuzzyNameMatcher
from repro.matchers.selection import MappingElementSelector
from repro.schema.builder import TreeBuilder
from repro.schema.node import DataType, NodeKind, SchemaNode
from repro.schema.repository import SchemaRepository
from repro.schema.tree import SchemaTree
from repro.workload.generator import RepositoryGenerator, RepositoryProfile
from repro.workload.personal import paper_personal_schema

settings.register_profile("ci", max_examples=800, derandomize=True)


@pytest.fixture
def book_schema() -> SchemaTree:
    """The personal schema ``s`` of the paper's Fig. 1: book(title, author)."""
    builder = TreeBuilder("book-personal")
    root = builder.root("book")
    builder.child(root, "title", datatype="string")
    builder.child(root, "author", datatype="string")
    return builder.build()


@pytest.fixture
def library_tree() -> SchemaTree:
    """The repository fragment of the paper's Fig. 1.

    lib(n1) -> book(n2) -> data(n3) -> authorName(n4), shelf(n6)
                        -> title(n5)
            -> address(n7)
    Node ids follow insertion order: lib=0, book=1, data=2, authorName=3,
    shelf=4, title=5, address=6.
    """
    builder = TreeBuilder("fig1-lib")
    lib = builder.root("lib")
    book = builder.child(lib, "book")
    data = builder.child(book, "data")
    builder.child(data, "authorName", datatype="string")
    builder.child(data, "shelf", datatype="string")
    builder.child(book, "title", datatype="string")
    builder.child(lib, "address", datatype="string")
    return builder.build()


@pytest.fixture
def contact_tree() -> SchemaTree:
    """A small person-directory tree containing a contact block."""
    builder = TreeBuilder("directory")
    root = builder.root("directory")
    person = builder.child(root, "person")
    builder.child(person, "name", datatype="string")
    builder.child(person, "address", datatype="string")
    builder.child(person, "email", datatype="string")
    employer = builder.child(person, "employer")
    builder.child(employer, "companyName", datatype="string")
    return builder.build()


@pytest.fixture
def order_tree() -> SchemaTree:
    """A small commerce tree without contact-like elements."""
    builder = TreeBuilder("order")
    root = builder.root("order")
    item = builder.child(root, "item")
    builder.child(item, "price", datatype="decimal")
    builder.child(item, "quantity", datatype="integer")
    builder.child(root, "orderDate", datatype="date")
    return builder.build()


@pytest.fixture
def small_repository(library_tree, contact_tree, order_tree) -> SchemaRepository:
    """A three-tree repository used across matcher / mapping / clustering tests."""
    repository = SchemaRepository(name="small-repository")
    repository.add_tree(library_tree)
    repository.add_tree(contact_tree)
    repository.add_tree(order_tree)
    return repository


@pytest.fixture
def paper_schema() -> SchemaTree:
    """The personal schema of the paper's main experiment (name/address/email)."""
    return paper_personal_schema()


@pytest.fixture
def small_candidates(paper_schema, small_repository):
    """Mapping elements of the paper schema against the small repository."""
    selector = MappingElementSelector(FuzzyNameMatcher(), threshold=0.4)
    return selector.select(paper_schema, small_repository)


@pytest.fixture
def small_oracle(small_repository) -> RepositoryDistanceOracle:
    return RepositoryDistanceOracle(small_repository)


# -- session-scoped synthetic workload -------------------------------------------


@pytest.fixture(scope="session")
def synthetic_repository() -> SchemaRepository:
    """A ~1 200-node synthetic repository shared by the integration tests."""
    profile = RepositoryProfile(
        target_node_count=1200,
        min_tree_size=15,
        max_tree_size=90,
        name="test-repository",
        seed=4242,
    )
    return RepositoryGenerator(profile).generate()


@pytest.fixture(scope="session")
def synthetic_candidates(synthetic_repository):
    """Element-matching result of the paper schema against the synthetic repository."""
    selector = MappingElementSelector(FuzzyNameMatcher(), threshold=0.45)
    return selector.select(paper_personal_schema(), synthetic_repository)


@pytest.fixture(scope="session")
def synthetic_personal_schema() -> SchemaTree:
    return paper_personal_schema()
