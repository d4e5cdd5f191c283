"""Property-based tests for schema trees (hypothesis).

Random trees are generated as parent-pointer arrays (each node's parent is an
earlier node), which is exactly the invariant the SchemaTree construction API
enforces; the properties then check traversals, distances and serialization on
arbitrary shapes rather than hand-picked examples.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.schema.node import SchemaNode
from repro.schema.serialization import tree_from_dict, tree_to_dict
from repro.schema.tree import SchemaTree
from repro.schema.validation import validate_tree


@st.composite
def random_trees(draw, max_nodes: int = 40) -> SchemaTree:
    size = draw(st.integers(min_value=1, max_value=max_nodes))
    tree = SchemaTree(name="random")
    tree.add_root(SchemaNode(name="n0"))
    for index in range(1, size):
        parent = draw(st.integers(min_value=0, max_value=index - 1))
        tree.add_child(parent, SchemaNode(name=f"n{index}"))
    return tree


@given(random_trees())
@settings(max_examples=60, deadline=None)
def test_random_trees_satisfy_structural_invariants(tree):
    validate_tree(tree)
    assert tree.edge_count == tree.node_count - 1


@given(random_trees())
@settings(max_examples=60, deadline=None)
def test_traversals_visit_every_node_exactly_once(tree):
    for order in (list(tree.preorder()), list(tree.postorder()), list(tree.breadth_first())):
        assert sorted(order) == list(tree.node_ids())


@given(random_trees(), st.data())
@settings(max_examples=60, deadline=None)
def test_distance_is_a_metric_on_tree_nodes(tree, data):
    node_ids = list(tree.node_ids())
    u = data.draw(st.sampled_from(node_ids))
    v = data.draw(st.sampled_from(node_ids))
    w = data.draw(st.sampled_from(node_ids))
    assert tree.distance(u, u) == 0
    assert tree.distance(u, v) == tree.distance(v, u)
    assert tree.distance(u, w) <= tree.distance(u, v) + tree.distance(v, w)
    assert tree.distance(u, v) == len(tree.path_node_ids(u, v)) - 1
    assert tree.distance(u, v) == len(tree.path_edge_ids(u, v))


@given(random_trees(), st.data())
@settings(max_examples=60, deadline=None)
def test_lca_is_a_common_ancestor_of_maximal_depth(tree, data):
    node_ids = list(tree.node_ids())
    u = data.draw(st.sampled_from(node_ids))
    v = data.draw(st.sampled_from(node_ids))
    lca = tree.lowest_common_ancestor(u, v)
    assert tree.is_ancestor(lca, u)
    assert tree.is_ancestor(lca, v)
    # No child of the LCA is an ancestor of both.
    for child in tree.children_ids(lca):
        assert not (tree.is_ancestor(child, u) and tree.is_ancestor(child, v))


@given(random_trees())
@settings(max_examples=40, deadline=None)
def test_serialization_round_trip_preserves_structure(tree):
    rebuilt = tree_from_dict(tree_to_dict(tree))
    assert rebuilt.node_count == tree.node_count
    for node_id in tree.node_ids():
        assert rebuilt.parent_id(node_id) == tree.parent_id(node_id)


@given(random_trees())
@settings(max_examples=40, deadline=None)
def test_subtree_sizes_sum_to_descendant_counts(tree):
    # The size of every subtree equals 1 + sum of its children's subtree sizes.
    for node_id in tree.node_ids():
        children = tree.children_ids(node_id)
        assert tree.subtree_size(node_id) == 1 + sum(tree.subtree_size(c) for c in children)


@given(random_trees(), st.data())
@settings(max_examples=60, deadline=None)
def test_memoized_root_paths_join_the_root_path_names(tree, data):
    # Render in any order, then grow the tree: appended nodes never
    # change a rendered path, and new nodes render from their parent's.
    order = data.draw(st.permutations(list(tree.node_ids())))
    for node_id in order:
        assert tree.root_path(node_id) == "/" + "/".join(tree.root_path_names(node_id))
    parent = data.draw(st.sampled_from(list(tree.node_ids())))
    child = tree.add_child(parent, SchemaNode(name="appended")).node_id
    for node_id in tree.node_ids():
        assert tree.root_path(node_id) == "/" + "/".join(tree.root_path_names(node_id))
    assert tree.root_path(child) == tree.root_path(parent) + "/appended"


@given(random_trees())
@settings(max_examples=60, deadline=None)
def test_one_pass_subtree_sizes_equal_each_subtree_walk(tree):
    assert tree.subtree_sizes() == [tree.subtree_size(node_id) for node_id in tree.node_ids()]
