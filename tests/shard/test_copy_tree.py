"""``copy_tree`` copies a tree node by node, without a serialization round trip.

The copy must serialize exactly as the round trip it replaced did, share no
node or ``properties`` dict with the original, and be free to join another
repository.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schema.node import DataType, NodeKind, SchemaNode
from repro.schema.repository import SchemaRepository
from repro.schema.serialization import tree_from_dict, tree_to_dict
from repro.schema.tree import SchemaTree
from repro.shard.service import copy_tree

properties = st.dictionaries(
    st.sampled_from(["minOccurs", "maxOccurs", "doc", "lang"]),
    st.one_of(st.integers(), st.text(max_size=5), st.none()),
    max_size=3,
)


@st.composite
def random_trees(draw, max_nodes: int = 30) -> SchemaTree:
    size = draw(st.integers(min_value=1, max_value=max_nodes))
    tree = SchemaTree(name=draw(st.sampled_from(["a", "catalogue", "ß-tree"])))

    def node(index):
        return SchemaNode(
            name=f"n{index}",
            kind=draw(st.sampled_from(list(NodeKind))),
            datatype=draw(st.sampled_from(list(DataType))),
            properties=draw(properties),
        )

    tree.add_root(node(0))
    for index in range(1, size):
        tree.add_child(draw(st.integers(min_value=0, max_value=index - 1)), node(index))
    return tree


@given(random_trees())
@settings(max_examples=100, deadline=None)
def test_a_copy_serializes_like_the_round_trip(tree):
    repository = SchemaRepository(name="source")
    repository.add_tree(tree)
    copy = copy_tree(tree)
    assert tree_to_dict(copy) == tree_to_dict(tree_from_dict(tree_to_dict(tree)))
    assert tree_to_dict(copy) == tree_to_dict(tree)
    assert copy.tree_id == -1 and tree.tree_id == 0
    for original, copied in zip(tree.nodes(), copy.nodes()):
        assert copied is not original
        assert copied.properties is not original.properties
    SchemaRepository(name="target").add_tree(copy)
    assert tree_to_dict(copy) == tree_to_dict(tree)
