"""Tests for rooted schema trees, using the paper's Fig. 1 tree as the main case."""

import pytest

from repro.errors import SchemaError, UnknownNodeError
from repro.schema.node import SchemaNode
from repro.schema.tree import SchemaTree

# Node ids in the library_tree fixture (insertion order):
LIB, BOOK, DATA, AUTHOR_NAME, SHELF, TITLE, ADDRESS = range(7)


def test_single_root_enforced(library_tree):
    with pytest.raises(SchemaError):
        library_tree.add_root(SchemaNode(name="second-root"))


def test_counts_and_root(library_tree):
    assert library_tree.node_count == 7
    assert library_tree.edge_count == 6
    assert library_tree.root.name == "lib"
    assert library_tree.root_id == LIB


def test_parent_children_depth(library_tree):
    assert library_tree.parent_id(LIB) is None
    assert library_tree.parent_id(AUTHOR_NAME) == DATA
    assert library_tree.children_ids(BOOK) == [DATA, TITLE]
    assert library_tree.depth(LIB) == 0
    assert library_tree.depth(AUTHOR_NAME) == 3
    assert library_tree.height() == 3


def test_unknown_node_raises(library_tree):
    with pytest.raises(UnknownNodeError):
        library_tree.node(99)
    with pytest.raises(UnknownNodeError):
        library_tree.parent_id(99)


def test_leaves_and_is_leaf(library_tree):
    assert set(library_tree.leaves()) == {AUTHOR_NAME, SHELF, TITLE, ADDRESS}
    assert library_tree.is_leaf(SHELF)
    assert not library_tree.is_leaf(BOOK)


def test_preorder_visits_each_node_once_parent_first(library_tree):
    order = list(library_tree.preorder())
    assert sorted(order) == list(range(7))
    assert order[0] == LIB
    assert order.index(BOOK) < order.index(DATA) < order.index(AUTHOR_NAME)


def test_postorder_children_before_parent(library_tree):
    order = list(library_tree.postorder())
    assert sorted(order) == list(range(7))
    assert order.index(AUTHOR_NAME) < order.index(DATA) < order.index(BOOK)
    assert order[-1] == LIB


def test_breadth_first_by_level(library_tree):
    order = list(library_tree.breadth_first())
    assert order[0] == LIB
    assert set(order[1:3]) == {BOOK, ADDRESS}
    assert sorted(order) == list(range(7))


def test_subtree_ids_and_size(library_tree):
    assert set(library_tree.subtree_ids(DATA)) == {DATA, AUTHOR_NAME, SHELF}
    assert library_tree.subtree_size(BOOK) == 5
    assert library_tree.subtree_size(LIB) == 7


def test_ancestors_and_is_ancestor(library_tree):
    assert library_tree.ancestors(AUTHOR_NAME) == [DATA, BOOK, LIB]
    assert library_tree.ancestors(LIB) == []
    assert library_tree.is_ancestor(LIB, SHELF)
    assert library_tree.is_ancestor(SHELF, SHELF)  # ancestor-or-self semantics
    assert not library_tree.is_ancestor(TITLE, SHELF)


def test_lowest_common_ancestor(library_tree):
    assert library_tree.lowest_common_ancestor(AUTHOR_NAME, TITLE) == BOOK
    assert library_tree.lowest_common_ancestor(AUTHOR_NAME, SHELF) == DATA
    assert library_tree.lowest_common_ancestor(TITLE, ADDRESS) == LIB
    assert library_tree.lowest_common_ancestor(DATA, AUTHOR_NAME) == DATA


def test_distance_is_path_length(library_tree):
    # The paper's example path p' = data - book - title corresponds to distance 2.
    assert library_tree.distance(DATA, TITLE) == 2
    assert library_tree.distance(AUTHOR_NAME, SHELF) == 2
    assert library_tree.distance(AUTHOR_NAME, ADDRESS) == 4
    assert library_tree.distance(LIB, LIB) == 0


def test_path_node_ids_endpoints_and_length(library_tree):
    path = library_tree.path_node_ids(AUTHOR_NAME, TITLE)
    assert path[0] == AUTHOR_NAME and path[-1] == TITLE
    assert len(path) == library_tree.distance(AUTHOR_NAME, TITLE) + 1
    assert BOOK in path and DATA in path


def test_path_edge_ids_are_child_identified(library_tree):
    edges = library_tree.path_edge_ids(AUTHOR_NAME, TITLE)
    # Edges: data->authorName (id AUTHOR_NAME), book->data (DATA), book->title (TITLE).
    assert edges == {AUTHOR_NAME, DATA, TITLE}
    assert library_tree.path_edge_ids(LIB, LIB) == set()


def test_path_edges_union_models_mapping_subtree(library_tree):
    # Mapping of Fig. 1: book->n2', title->n5', author->n4'.  |Et| is the union
    # of the two mapped paths.
    to_title = library_tree.path_edge_ids(BOOK, TITLE)
    to_author = library_tree.path_edge_ids(BOOK, AUTHOR_NAME)
    assert len(to_title | to_author) == 3  # title, data, authorName edges


def test_to_graph_round_trip_shape(library_tree):
    graph = library_tree.to_graph()
    assert graph.node_count == library_tree.node_count
    assert graph.edge_count == library_tree.edge_count
    assert graph.is_tree()


def test_find_by_name_and_root_path(library_tree):
    assert library_tree.find_by_name("title") == [TITLE]
    assert library_tree.find_by_name("TITLE") == []
    assert library_tree.find_by_name("TITLE", case_sensitive=False) == [TITLE]
    assert library_tree.root_path_names(AUTHOR_NAME) == ["lib", "book", "data", "authorName"]
    assert library_tree.root_path(AUTHOR_NAME) == "/lib/book/data/authorName"
    assert library_tree.root_path(LIB) == "/lib"
    with pytest.raises(UnknownNodeError):
        library_tree.root_path(99)
