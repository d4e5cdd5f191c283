"""Constant-time tree distance (path length) oracles.

``TreeDistanceOracle`` preprocesses one tree with an Euler tour and a sparse
table over the tour's depth sequence; lowest-common-ancestor queries then take
two array lookups, and ``distance(u, v) = depth(u) + depth(v) - 2 * depth(lca)``.

``RepositoryDistanceOracle`` lazily builds one oracle per repository tree and
answers distance queries between arbitrary repository nodes, returning ``None``
for nodes of different trees (the clustering distance treats those as
infinitely far apart, so clusters never span trees).

Both the k-means clusterer (distance measure, Sec. 4) and the Bellflower
objective function (path-length hint, Eq. 2) are built on these oracles, which
is what the paper means by using node labeling "to provide low-cost computation
of path lengths".
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Set, Tuple

from repro.errors import LabelingError, UnknownNodeError
from repro.labeling.sparse_table import SparseTable
from repro.schema.repository import RepositoryNodeRef, SchemaRepository, shift_tree_keys
from repro.schema.tree import SchemaTree


class TreeDistanceOracle:
    """O(1) LCA / path-length queries for a single schema tree."""

    def __init__(self, tree: SchemaTree) -> None:
        if tree.node_count == 0:
            raise LabelingError(f"cannot build a distance oracle over empty tree {tree.name!r}")
        self.tree = tree
        self._euler_nodes: List[int] = []
        self._euler_depths: List[int] = []
        self._first_occurrence: List[int] = [-1] * tree.node_count
        self._build_euler_tour()
        self._rmq = SparseTable(self._euler_depths)

    # -- (de)serialization ----------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """The oracle's tables as JSON-friendly lists (repository snapshots).

        The sparse-table levels are included so a snapshot load skips the
        doubling construction entirely; they are pure derived data, so a
        corrupt payload can at worst produce wrong distances — the round-trip
        tests pin exact equality against a fresh build.
        """
        return {
            "euler_nodes": list(self._euler_nodes),
            "euler_depths": list(self._euler_depths),
            "first_occurrence": list(self._first_occurrence),
            "rmq_levels": self._rmq.levels(),
        }

    @classmethod
    def from_payload(cls, tree: SchemaTree, payload: Dict[str, object]) -> "TreeDistanceOracle":
        """Rebuild an oracle from :meth:`to_payload` output for the same tree.

        The payload sequences are adopted as-is: the JSON and frozen snapshot
        loaders hand over live ``array('i')`` buffers, and rehydrating them
        into per-integer Python objects would dominate load time and memory.
        Oracles built this way are complete, so the build paths that append to
        the tour never run against an adopted buffer.
        """
        euler_nodes = payload["euler_nodes"]
        euler_depths = payload["euler_depths"]
        first_occurrence = payload["first_occurrence"]
        if len(first_occurrence) != tree.node_count or len(euler_nodes) != 2 * tree.node_count - 1:
            raise LabelingError(
                f"serialized oracle does not fit tree {tree.name!r} "
                f"({tree.node_count} nodes, tour length {len(euler_nodes)})"
            )
        oracle = cls.__new__(cls)
        oracle.tree = tree
        oracle._euler_nodes = euler_nodes
        oracle._euler_depths = euler_depths
        oracle._first_occurrence = first_occurrence
        oracle._rmq = SparseTable.from_built(euler_depths, payload["rmq_levels"])
        return oracle

    def _build_euler_tour(self) -> None:
        # Iterative Euler tour: every time a node is entered or returned to
        # after a child, it is appended to the tour.  Depths are carried on the
        # stack so the tour never re-queries the tree per entry (a tour has
        # 2n - 1 entries, and each depth lookup used to cost a bounds-checked
        # method call).
        tree = self.tree
        stack: List[Tuple[int, int, int]] = [(tree.root_id, 0, 0)]
        children_cache: Dict[int, List[int]] = {}
        while stack:
            node_id, child_index, depth = stack.pop()
            if child_index == 0:
                if self._first_occurrence[node_id] == -1:
                    self._first_occurrence[node_id] = len(self._euler_nodes)
            self._euler_nodes.append(node_id)
            self._euler_depths.append(depth)
            children = children_cache.get(node_id)
            if children is None:
                children = children_cache[node_id] = tree.children_ids(node_id)
            if child_index < len(children):
                stack.append((node_id, child_index + 1, depth))
                stack.append((children[child_index], 0, depth + 1))

    # -- queries -------------------------------------------------------------

    def lca(self, first_id: int, second_id: int) -> int:
        """Lowest common ancestor of two nodes."""
        for node_id in (first_id, second_id):
            if not self.tree.has_node(node_id):
                raise UnknownNodeError(node_id, context=f"distance oracle of tree {self.tree.name!r}")
        low = self._first_occurrence[first_id]
        high = self._first_occurrence[second_id]
        index = self._rmq.argmin(low, high)
        return self._euler_nodes[index]

    def depth(self, node_id: int) -> int:
        return self.tree.depth(node_id)

    def distance(self, first_id: int, second_id: int) -> int:
        """Path length (number of edges) between two nodes."""
        if first_id == second_id:
            if not self.tree.has_node(first_id):
                raise UnknownNodeError(first_id, context=f"distance oracle of tree {self.tree.name!r}")
            return 0
        lca = self.lca(first_id, second_id)
        return self.tree.depth(first_id) + self.tree.depth(second_id) - 2 * self.tree.depth(lca)

    def path_edge_ids(self, first_id: int, second_id: int) -> Set[int]:
        """Edges of the path between two nodes, identified by child node id.

        Uses the LCA to walk both root paths, avoiding a full path search.  The
        result feeds the union that determines ``|Et|`` of a mapping subtree.
        """
        lca = self.lca(first_id, second_id)
        edges: Set[int] = set()
        for start in (first_id, second_id):
            current = start
            while current != lca:
                edges.add(current)
                parent = self.tree.parent_id(current)
                if parent is None:  # pragma: no cover - LCA guarantees termination
                    raise LabelingError(
                        f"walked past the root from node {start} towards LCA {lca} in tree {self.tree.name!r}"
                    )
                current = parent
        return edges


class RepositoryDistanceOracle:
    """Per-tree distance oracles over a whole repository.

    Oracles are built lazily on first use so that matching problems touching a
    small part of a large repository do not pay preprocessing for every tree.
    """

    def __init__(self, repository: SchemaRepository) -> None:
        self.repository = repository
        self._oracles: Dict[int, TreeDistanceOracle] = {}
        # Concurrent per-cluster mapping generation (repro.service) may query
        # the oracle from several worker threads; the lock only guards the
        # build-and-insert of a missing per-tree oracle, not the O(1) queries.
        self._build_lock = threading.Lock()

    def oracle(self, tree_id: int) -> TreeDistanceOracle:
        """The (cached) oracle for one repository tree (thread-safe build)."""
        oracle = self._oracles.get(tree_id)
        if oracle is None:
            with self._build_lock:
                oracle = self._oracles.get(tree_id)
                if oracle is None:
                    oracle = TreeDistanceOracle(self.repository.tree(tree_id))
                    self._oracles[tree_id] = oracle
        return oracle

    def build_all(self) -> None:
        """Materialize the oracle of every repository tree (service warm-up)."""
        for tree in self.repository.trees():
            self.oracle(tree.tree_id)

    def on_tree_removed(self, removed_tree_id: int) -> None:
        """Re-key the cache after ``SchemaRepository.remove_tree``.

        Only the removed tree's oracle row is dropped; oracles of later trees
        are reused under their decremented tree id (their underlying
        :class:`SchemaTree` objects are untouched by the removal, so every
        cached table stays valid).
        """
        with self._build_lock:
            self._oracles = shift_tree_keys(self._oracles, removed_tree_id)

    def install(self, tree_id: int, oracle: TreeDistanceOracle) -> None:
        """Install a deserialized per-tree oracle (snapshot load)."""
        if oracle.tree is not self.repository.tree(tree_id):
            raise LabelingError(
                f"oracle for tree {oracle.tree.name!r} does not belong to "
                f"tree id {tree_id} of repository {self.repository.name!r}"
            )
        with self._build_lock:
            self._oracles[tree_id] = oracle

    def built_tree_ids(self) -> List[int]:
        """Tree ids whose oracles are currently materialized (snapshot write)."""
        return sorted(self._oracles)

    @property
    def built_oracle_count(self) -> int:
        """How many per-tree oracles have been materialized so far."""
        return len(self._oracles)

    def distance(self, first: RepositoryNodeRef, second: RepositoryNodeRef) -> Optional[int]:
        """Path length between two repository nodes, ``None`` across trees."""
        if first.tree_id != second.tree_id:
            return None
        return self.oracle(first.tree_id).distance(first.node_id, second.node_id)

    def lca(self, first: RepositoryNodeRef, second: RepositoryNodeRef) -> Optional[RepositoryNodeRef]:
        """LCA of two repository nodes as a node ref, ``None`` across trees."""
        if first.tree_id != second.tree_id:
            return None
        lca_node = self.oracle(first.tree_id).lca(first.node_id, second.node_id)
        return self.repository.ref(first.tree_id, lca_node)

    def path_edge_ids(self, first: RepositoryNodeRef, second: RepositoryNodeRef) -> Optional[Set[int]]:
        """Path edge set (child node ids) between two nodes of the same tree."""
        if first.tree_id != second.tree_id:
            return None
        return self.oracle(first.tree_id).path_edge_ids(first.node_id, second.node_id)
