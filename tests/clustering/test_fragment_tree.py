"""``fragment_tree`` splits on subtree sizes computed once per tree.

The reference below is the per-split-node walk the function used before: it
re-walks a subtree at every node it considers splitting.  Both must assign
every node of any tree to the same fragment, in the same order.
"""

from __future__ import annotations

from typing import Dict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clustering.baselines import fragment_tree
from repro.schema.node import SchemaNode
from repro.schema.tree import SchemaTree


def walked_fragment_tree(tree: SchemaTree, max_fragment_size: int) -> Dict[int, int]:
    assignment: Dict[int, int] = {}
    next_fragment = 0

    def split(node_id: int) -> None:
        nonlocal next_fragment
        if tree.subtree_size(node_id) <= max_fragment_size:
            for descendant in tree.preorder(node_id):
                assignment[descendant] = next_fragment
            next_fragment += 1
            return
        assignment[node_id] = next_fragment
        next_fragment += 1
        for child_id in tree.children_ids(node_id):
            split(child_id)

    split(tree.root_id)
    return assignment


@st.composite
def random_trees(draw, max_nodes: int = 80) -> SchemaTree:
    """Parent-pointer trees: each node's parent is an earlier node."""
    size = draw(st.integers(min_value=1, max_value=max_nodes))
    tree = SchemaTree(name="random")
    tree.add_root(SchemaNode(name="n0"))
    for index in range(1, size):
        parent = draw(st.integers(min_value=0, max_value=index - 1))
        tree.add_child(parent, SchemaNode(name=f"n{index}"))
    return tree


@given(random_trees(), st.data())
@settings(max_examples=150, deadline=None)
def test_fragments_equal_the_per_node_walk(tree, data):
    cap = data.draw(st.integers(min_value=1, max_value=tree.node_count + 2))
    assert list(fragment_tree(tree, cap).items()) == list(walked_fragment_tree(tree, cap).items())
