"""The schema repository: a forest of schema trees with global node ids.

The paper's repository ``R`` is "a collection of a large number of trees, i.e.,
a forest" harvested from the web.  ``SchemaRepository`` registers trees,
assigns each a ``tree_id``, and exposes a *global node id* space so that
mapping elements, clusters and mappings can refer to any repository node with a
single integer.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

from repro.errors import SchemaError, UnknownNodeError, UnknownTreeError
from repro.schema.node import SchemaNode
from repro.schema.tree import SchemaTree


class RepositoryNodeRef(NamedTuple):
    """A reference to one repository node.

    ``global_id`` is unique across the whole repository; ``tree_id`` and
    ``node_id`` locate the node inside its tree.  Mapping elements are
    represented as node refs throughout the matching pipeline.

    A ``NamedTuple`` rather than a frozen dataclass: refs are created by the
    hundred thousand (every index build, clustering pass and snapshot load),
    and tuple construction is several times cheaper than ``object.__setattr__``
    per frozen-dataclass field while keeping the same ordering, hashing and
    immutability semantics.
    """

    global_id: int
    tree_id: int
    node_id: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NodeRef(g={self.global_id}, tree={self.tree_id}, node={self.node_id})"


def shift_tree_keys(mapping: Dict[int, "T"], removed_tree_id: int) -> Dict[int, "T"]:
    """Re-key a per-tree table after :meth:`SchemaRepository.remove_tree`.

    Drops the removed tree's entry and slides entries of later trees down by
    one, mirroring the repository's id reassignment.  Every derived structure
    keyed by tree id (distance-oracle rows, partition fragments, …) must apply
    exactly this transform on removal — sharing it keeps the
    incremental-equals-rebuild invariant in one place.
    """
    shifted: Dict[int, "T"] = {}
    for tree_id, value in mapping.items():
        if tree_id == removed_tree_id:
            continue
        shifted[tree_id - 1 if tree_id > removed_tree_id else tree_id] = value
    return shifted


class SchemaRepository:
    """A forest of :class:`SchemaTree` objects with a global node id space.

    Global ids are assigned contiguously per tree in registration order, so the
    repository can translate between global and (tree, node) coordinates with
    O(log #trees) arithmetic (bisection over tree offsets).
    """

    def __init__(self, name: str = "repository") -> None:
        self.name = name
        self._trees: List[SchemaTree] = []
        self._offsets: List[int] = []
        self._total_nodes = 0
        self._version = 0
        # Per-case-mode name indexes, built lazily by the batch element
        # matchers (see repro.matchers.index.RepositoryNameIndex) and
        # invalidated whenever the forest mutates (add or remove).
        self._name_index_cache: Dict[bool, object] = {}

    # -- construction -------------------------------------------------------

    @property
    def version(self) -> int:
        """Monotonic mutation counter, bumped by every ``add_tree``/``remove_tree``.

        Derived state (name indexes, oracles, partitions) records the version
        it was built against; a mismatch means the state is stale.  Unlike a
        node count, the version also detects equal-size mutations (remove one
        tree, add another of the same size).
        """
        return self._version

    def _invalidate_derived_state(self) -> None:
        self._version += 1
        self._name_index_cache.clear()

    def add_tree(self, tree: SchemaTree) -> int:
        """Register a tree and return its assigned ``tree_id``."""
        if tree.node_count == 0:
            raise SchemaError(f"cannot register empty tree {tree.name!r}")
        if tree.tree_id != -1:
            raise SchemaError(
                f"tree {tree.name!r} is already registered (tree_id={tree.tree_id})"
            )
        tree.tree_id = len(self._trees)
        self._trees.append(tree)
        self._offsets.append(self._total_nodes)
        self._total_nodes += tree.node_count
        self._invalidate_derived_state()
        return tree.tree_id

    def add_trees(self, trees: Iterable[SchemaTree]) -> List[int]:
        return [self.add_tree(tree) for tree in trees]

    def remove_tree(self, tree_id: int) -> SchemaTree:
        """Unregister a tree and return it.

        Trees registered after the removed one slide down: their ``tree_id``
        decreases by one and their nodes' global ids decrease by the removed
        tree's node count.  The resulting repository is indistinguishable from
        one freshly built by adding the surviving trees in order, which is what
        makes incremental updates provably equivalent to a full rebuild (see
        :mod:`repro.service`).  The returned tree has ``tree_id`` reset to
        ``-1`` and may be registered again (here or in another repository).
        """
        removed = self.tree(tree_id)
        del self._trees[tree_id]
        removed.tree_id = -1
        for shifted in self._trees[tree_id:]:
            shifted.tree_id -= 1
        self._offsets = []
        total = 0
        for tree in self._trees:
            self._offsets.append(total)
            total += tree.node_count
        self._total_nodes = total
        self._invalidate_derived_state()
        return removed

    # -- sizes ----------------------------------------------------------------

    @property
    def tree_count(self) -> int:
        return len(self._trees)

    @property
    def node_count(self) -> int:
        return self._total_nodes

    def __len__(self) -> int:
        return self._total_nodes

    # -- tree access ----------------------------------------------------------

    def tree(self, tree_id: int) -> SchemaTree:
        if not 0 <= tree_id < len(self._trees):
            raise UnknownTreeError(tree_id, context=f"repository {self.name!r}")
        return self._trees[tree_id]

    def trees(self) -> Iterator[SchemaTree]:
        return iter(self._trees)

    def tree_offset(self, tree_id: int) -> int:
        """Global id of the first node of ``tree_id``."""
        self.tree(tree_id)
        return self._offsets[tree_id]

    # -- node addressing -------------------------------------------------------

    def global_id(self, tree_id: int, node_id: int) -> int:
        tree = self.tree(tree_id)
        if not tree.has_node(node_id):
            raise UnknownNodeError(node_id, context=f"tree {tree_id} of repository {self.name!r}")
        return self._offsets[tree_id] + node_id

    def ref(self, tree_id: int, node_id: int) -> RepositoryNodeRef:
        return RepositoryNodeRef(
            global_id=self.global_id(tree_id, node_id), tree_id=tree_id, node_id=node_id
        )

    def locate(self, global_id: int) -> RepositoryNodeRef:
        """Translate a global node id back into a (tree, node) reference."""
        if not 0 <= global_id < self._total_nodes:
            raise UnknownNodeError(global_id, context=f"repository {self.name!r}")
        low, high = 0, len(self._offsets) - 1
        while low < high:
            middle = (low + high + 1) // 2
            if self._offsets[middle] <= global_id:
                low = middle
            else:
                high = middle - 1
        tree_id = low
        node_id = global_id - self._offsets[tree_id]
        return RepositoryNodeRef(global_id=global_id, tree_id=tree_id, node_id=node_id)

    def node(self, ref_or_global_id: RepositoryNodeRef | int) -> SchemaNode:
        ref = self.locate(ref_or_global_id) if isinstance(ref_or_global_id, int) else ref_or_global_id
        return self.tree(ref.tree_id).node(ref.node_id)

    def node_refs(self) -> Iterator[RepositoryNodeRef]:
        """Iterate over every node of the repository as a :class:`RepositoryNodeRef`."""
        for tree in self._trees:
            offset = self._offsets[tree.tree_id]
            for node_id in tree.node_ids():
                yield RepositoryNodeRef(global_id=offset + node_id, tree_id=tree.tree_id, node_id=node_id)

    def iter_nodes(self) -> Iterator[Tuple[RepositoryNodeRef, SchemaNode]]:
        for tree in self._trees:
            offset = self._offsets[tree.tree_id]
            for node_id in tree.node_ids():
                yield (
                    RepositoryNodeRef(global_id=offset + node_id, tree_id=tree.tree_id, node_id=node_id),
                    tree.node(node_id),
                )

    # -- queries ----------------------------------------------------------------

    def cached_name_indexes(self) -> Dict[bool, object]:
        """Snapshot of the currently cached name indexes, keyed by case mode.

        The service layer reads this before a mutation so it can derive the
        post-mutation indexes incrementally (see
        :meth:`repro.matchers.index.RepositoryNameIndex.with_tree_added`)
        instead of letting the next query rebuild them from scratch.
        """
        return dict(self._name_index_cache)

    def install_name_index(self, index) -> None:
        """Install an externally built name index into the cache.

        The index must have been built against (or incrementally updated to)
        the repository's current :attr:`version`; installing a stale index
        would silently corrupt every batch matching run, so that is an error.
        """
        if getattr(index, "repository_version", None) != self._version:
            raise SchemaError(
                f"cannot install a name index built for repository version "
                f"{getattr(index, 'repository_version', None)!r} into repository "
                f"{self.name!r} at version {self._version}"
            )
        self._name_index_cache[bool(index.case_sensitive)] = index

    def name_index(self, case_sensitive: bool = False):
        """The repository's cached name index (see :mod:`repro.matchers.index`).

        Groups nodes by (optionally case-folded) name for batch element
        matching; built lazily on first use and invalidated by every mutation
        (:meth:`add_tree` / :meth:`remove_tree`).  Node names are assumed
        stable after insertion —
        renaming a :class:`SchemaNode` in place is not supported and would
        leave this index (and the matcher caches built on it) stale.  Imported
        lazily to keep the schema layer free of a static dependency on the
        matcher layer.
        """
        from repro.matchers.index import RepositoryNameIndex

        return RepositoryNameIndex.for_repository(self, case_sensitive=case_sensitive)

    def find_by_name(self, name: str, case_sensitive: bool = False) -> List[RepositoryNodeRef]:
        """All repository nodes with the given name (served by the name index)."""
        target = name if case_sensitive else name.lower()
        index = self.name_index(case_sensitive=case_sensitive)
        name_id = index.id_for(target)
        return [] if name_id is None else list(index.refs_for_id(name_id))

    def distance(self, first: RepositoryNodeRef, second: RepositoryNodeRef) -> Optional[int]:
        """Tree distance between two repository nodes, ``None`` across trees.

        Nodes in different trees are unreachable from each other — the paper's
        clustering distance treats them as infinitely far apart, so clusters can
        never span trees.
        """
        if first.tree_id != second.tree_id:
            return None
        return self.tree(first.tree_id).distance(first.node_id, second.node_id)

    def summary(self) -> Dict[str, int]:
        """Headline sizes used by reports (trees, nodes, max tree size)."""
        sizes = [tree.node_count for tree in self._trees]
        return {
            "trees": self.tree_count,
            "nodes": self.node_count,
            "largest_tree": max(sizes) if sizes else 0,
            "smallest_tree": min(sizes) if sizes else 0,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SchemaRepository(name={self.name!r}, trees={self.tree_count}, nodes={self.node_count})"
