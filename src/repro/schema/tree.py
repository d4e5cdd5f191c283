"""Rooted schema trees.

The paper restricts its experiments to XML schemas representable as trees, with
the repository being a forest of such trees.  ``SchemaTree`` is the workhorse
data structure: it stores parent/children relations explicitly, offers the
traversals the matchers and the clusterer need, and identifies every edge by
its *child* node id (each non-root node has exactly one incoming edge), which
makes unions of paths — needed to compute ``|Et|`` of a mapping subtree — cheap
set operations.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import SchemaError, UnknownNodeError
from repro.schema.graph import SchemaGraph
from repro.schema.node import DataType, NodeKind, SchemaNode


class SchemaTree:
    """A rooted, ordered tree of :class:`~repro.schema.node.SchemaNode` objects.

    Node ids are assigned consecutively in insertion order (the builder and the
    parsers insert in document order, so ids follow a preorder-like sequence).
    The tree id is ``-1`` until the tree is registered in a
    :class:`~repro.schema.repository.SchemaRepository`.
    """

    def __init__(self, name: str = "schema") -> None:
        self.name = name
        self.tree_id: int = -1
        self._nodes: List[SchemaNode] = []
        self._parent: List[int] = []
        self._children: List[List[int]] = []
        self._depth: List[int] = []
        self._root_id: Optional[int] = None
        # node id -> rendered root path (see root_path).
        self._root_paths: Dict[int, str] = {}

    # -- construction -------------------------------------------------------

    def add_root(self, node: SchemaNode) -> SchemaNode:
        """Install ``node`` as the root.  A tree has exactly one root."""
        if self._root_id is not None:
            raise SchemaError(f"tree {self.name!r} already has a root")
        return self._attach(node, parent_id=-1)

    def add_child(self, parent_id: int, node: SchemaNode) -> SchemaNode:
        """Attach ``node`` as the last child of ``parent_id``."""
        if not self.has_node(parent_id):
            raise UnknownNodeError(parent_id, context=f"schema tree {self.name!r}")
        return self._attach(node, parent_id=parent_id)

    def _attach(self, node: SchemaNode, parent_id: int) -> SchemaNode:
        node.node_id = len(self._nodes)
        self._nodes.append(node)
        self._parent.append(parent_id)
        self._children.append([])
        if parent_id == -1:
            self._root_id = node.node_id
            self._depth.append(0)
        else:
            self._children[parent_id].append(node.node_id)
            self._depth.append(self._depth[parent_id] + 1)
        return node

    def _bulk_attach(self, nodes: Sequence[SchemaNode], parents: Sequence[int]) -> None:
        """Trusted bulk attach (deserialization fast path).

        The caller guarantees the invariants :meth:`add_root`/:meth:`add_child`
        would enforce one node at a time: the tree is empty, exactly the first
        parent is ``-1`` and every other parent precedes its child.  Appending
        to the parallel arrays directly skips ~3 method calls and a bounds
        check per node, which is the difference between repository loading
        being bound by JSON parsing or by Python call overhead.
        """
        if self._nodes:
            raise SchemaError(f"bulk attach requires an empty tree, {self.name!r} has nodes")
        tree_nodes, tree_parent = self._nodes, self._parent
        tree_children, tree_depth = self._children, self._depth
        for node_id, (node, parent_id) in enumerate(zip(nodes, parents)):
            node.node_id = node_id
            tree_nodes.append(node)
            tree_parent.append(parent_id)
            tree_children.append([])
            if parent_id == -1:
                self._root_id = node_id
                tree_depth.append(0)
            else:
                tree_children[parent_id].append(node_id)
                tree_depth.append(tree_depth[parent_id] + 1)

    # -- basic accessors -----------------------------------------------------

    @property
    def root_id(self) -> int:
        if self._root_id is None:
            raise SchemaError(f"tree {self.name!r} has no root")
        return self._root_id

    @property
    def root(self) -> SchemaNode:
        return self._nodes[self.root_id]

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def edge_count(self) -> int:
        """Number of edges; in a rooted tree this is ``node_count - 1``."""
        return max(0, len(self._nodes) - 1)

    def has_node(self, node_id: int) -> bool:
        return 0 <= node_id < len(self._nodes)

    def node(self, node_id: int) -> SchemaNode:
        if not self.has_node(node_id):
            raise UnknownNodeError(node_id, context=f"schema tree {self.name!r}")
        return self._nodes[node_id]

    def nodes(self) -> Iterator[SchemaNode]:
        return iter(self._nodes)

    def node_ids(self) -> range:
        return range(len(self._nodes))

    def parent_id(self, node_id: int) -> Optional[int]:
        """Parent node id, or ``None`` for the root."""
        if not self.has_node(node_id):
            raise UnknownNodeError(node_id, context=f"schema tree {self.name!r}")
        parent = self._parent[node_id]
        return None if parent == -1 else parent

    def children_ids(self, node_id: int) -> List[int]:
        if not self.has_node(node_id):
            raise UnknownNodeError(node_id, context=f"schema tree {self.name!r}")
        return list(self._children[node_id])

    def depth(self, node_id: int) -> int:
        """Number of edges from the root (root has depth 0)."""
        if not self.has_node(node_id):
            raise UnknownNodeError(node_id, context=f"schema tree {self.name!r}")
        return self._depth[node_id]

    def is_leaf(self, node_id: int) -> bool:
        return not self._children[node_id]

    def leaves(self) -> List[int]:
        return [node_id for node_id in self.node_ids() if self.is_leaf(node_id)]

    def height(self) -> int:
        """Maximum depth over all nodes (0 for a single-node tree)."""
        if not self._nodes:
            return 0
        return max(self._depth)

    # -- traversals ----------------------------------------------------------

    def preorder(self, start_id: Optional[int] = None) -> Iterator[int]:
        """Depth-first preorder traversal of node ids."""
        if not self._nodes:
            return
        stack = [self.root_id if start_id is None else start_id]
        while stack:
            current = stack.pop()
            yield current
            stack.extend(reversed(self._children[current]))

    def postorder(self, start_id: Optional[int] = None) -> Iterator[int]:
        """Depth-first postorder traversal of node ids."""
        order = list(self.preorder(start_id))
        visited: List[int] = []
        # Children always appear after their parent in preorder; emitting the
        # reversed "parent before children, right-to-left" preorder yields a
        # valid postorder.
        stack = [self.root_id if start_id is None else start_id]
        while stack:
            current = stack.pop()
            visited.append(current)
            stack.extend(self._children[current])
        return reversed(visited)

    def breadth_first(self) -> Iterator[int]:
        if not self._nodes:
            return
        queue = deque([self.root_id])
        while queue:
            current = queue.popleft()
            yield current
            queue.extend(self._children[current])

    def subtree_ids(self, node_id: int) -> List[int]:
        """All node ids in the subtree rooted at ``node_id`` (inclusive)."""
        return list(self.preorder(node_id))

    def subtree_size(self, node_id: int) -> int:
        return len(self.subtree_ids(node_id))

    def subtree_sizes(self) -> List[int]:
        """The subtree size of every node, by node id, in one pass.

        A child's id is always greater than its parent's, so walking the ids
        downwards adds every subtree to its parent before the parent's own
        size is read.
        """
        sizes = [1] * len(self._nodes)
        parents = self._parent
        for node_id in range(len(sizes) - 1, 0, -1):
            sizes[parents[node_id]] += sizes[node_id]
        return sizes

    # -- ancestry and paths ---------------------------------------------------

    def ancestors(self, node_id: int) -> List[int]:
        """Ancestor ids from parent up to the root (empty for the root)."""
        result = []
        current = self.parent_id(node_id)
        while current is not None:
            result.append(current)
            current = self.parent_id(current)
        return result

    def ancestor_or_self_set(self, node_id: int) -> Set[int]:
        return {node_id, *self.ancestors(node_id)}

    def is_ancestor(self, ancestor_id: int, descendant_id: int) -> bool:
        """True when ``ancestor_id`` lies on the root path of ``descendant_id``."""
        if not self.has_node(ancestor_id):
            raise UnknownNodeError(ancestor_id, context=f"schema tree {self.name!r}")
        current: Optional[int] = descendant_id
        while current is not None:
            if current == ancestor_id:
                return True
            current = self.parent_id(current)
        return False

    def lowest_common_ancestor(self, first_id: int, second_id: int) -> int:
        """Naive LCA by root-path comparison.

        The :mod:`repro.labeling` package provides an O(1) oracle for hot paths;
        this method is the reference implementation used for validation and for
        one-off queries.
        """
        first_path = [first_id, *self.ancestors(first_id)]
        second_ancestors = self.ancestor_or_self_set(second_id)
        for candidate in first_path:
            if candidate in second_ancestors:
                return candidate
        raise SchemaError(
            f"nodes {first_id} and {second_id} of tree {self.name!r} share no ancestor"
        )

    def distance(self, first_id: int, second_id: int) -> int:
        """Path length (number of edges) between two nodes of this tree."""
        lca = self.lowest_common_ancestor(first_id, second_id)
        return self._depth[first_id] + self._depth[second_id] - 2 * self._depth[lca]

    def path_node_ids(self, first_id: int, second_id: int) -> List[int]:
        """Node ids along the unique simple path from ``first_id`` to ``second_id``."""
        lca = self.lowest_common_ancestor(first_id, second_id)
        up: List[int] = []
        current = first_id
        while current != lca:
            up.append(current)
            current = self._parent[current]
        down: List[int] = []
        current = second_id
        while current != lca:
            down.append(current)
            current = self._parent[current]
        return [*up, lca, *reversed(down)]

    def path_edge_ids(self, first_id: int, second_id: int) -> Set[int]:
        """Edges on the path between two nodes, identified by their child node id.

        Every non-root node has exactly one parent edge, so the child node id is
        a canonical edge identifier.  Mapping subtrees (the ``t`` of a schema
        mapping) are unions of such edge sets, which keeps the ``|Et|`` term of
        the objective function exact and cheap.
        """
        nodes = self.path_node_ids(first_id, second_id)
        edges: Set[int] = set()
        for previous, current in zip(nodes, nodes[1:]):
            if self._parent[current] == previous:
                edges.add(current)
            elif self._parent[previous] == current:
                edges.add(previous)
            else:  # pragma: no cover - impossible on a consistent tree
                raise SchemaError(
                    f"nodes {previous} and {current} are not adjacent in tree {self.name!r}"
                )
        return edges

    # -- conversion ----------------------------------------------------------

    def to_graph(self) -> SchemaGraph:
        """Materialize the tree as a general :class:`SchemaGraph` (Definition 1)."""
        graph = SchemaGraph(name=self.name)
        for node in self._nodes:
            graph.add_node(node.copy())
        for node_id in self.node_ids():
            parent = self.parent_id(node_id)
            if parent is not None:
                graph.add_edge(parent, node_id)
        return graph

    def names(self) -> List[str]:
        return [node.name for node in self._nodes]

    def find_by_name(self, name: str, case_sensitive: bool = True) -> List[int]:
        """Node ids whose name matches ``name``."""
        if case_sensitive:
            return [node.node_id for node in self._nodes if node.name == name]
        lowered = name.lower()
        return [node.node_id for node in self._nodes if node.name.lower() == lowered]

    def root_path_names(self, node_id: int) -> List[str]:
        """Names from the root down to ``node_id`` (a human-readable location path)."""
        ids = [node_id, *self.ancestors(node_id)]
        return [self._nodes[i].name for i in reversed(ids)]

    def root_path(self, node_id: int) -> str:
        """The root path of ``node_id`` as one string: ``"/" + "/".join(root_path_names)``.

        Rendered once per node and memoized, together with every ancestor's
        path rendered on the way.  An entry never goes stale: a tree only
        appends nodes, and a node's name is set before it is attached.
        Threads that render the same node at once store equal strings, so
        the memo needs no lock.
        """
        paths = self._root_paths
        path = paths.get(node_id)
        if path is not None:
            return path
        if not self.has_node(node_id):
            raise UnknownNodeError(node_id, context=f"schema tree {self.name!r}")
        parents = self._parent
        unrendered = []
        current = node_id
        while current != -1:
            path = paths.get(current)
            if path is not None:
                break
            unrendered.append(current)
            current = parents[current]
        else:
            path = ""
        nodes = self._nodes
        for current in reversed(unrendered):
            path = paths[current] = f"{path}/{nodes[current].name}"
        return path

    def __len__(self) -> int:
        return self.node_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SchemaTree(name={self.name!r}, nodes={self.node_count})"
