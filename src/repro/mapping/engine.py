"""The unified best-first search core shared by all pruning mapping generators.

Historically ``astar``, ``beam`` and ``branch_and_bound`` each carried their
own copy of the expansion loop: candidate grouping, injectivity checks,
incremental ``|Et|`` maintenance, bound evaluation and threshold pruning were
re-implemented three times, and a search over one cluster could never learn
from mappings already found in another.  This module extracts the common
machinery once:

* :class:`TreeSearchContext` — one per (problem, repository tree): precomputes
  the per-level remaining-best-similarity tables the admissible bound needs
  (the legacy generators rebuilt that dictionary on *every* expansion), keeps
  a running similarity sum so :meth:`ObjectiveFunction.fast_bound
  <repro.objective.base.ObjectiveFunction.fast_bound>` can evaluate the bound
  in O(1), and centralizes the prune/accept bookkeeping;
* :class:`TopKPool` — a thread-safe *shared incumbent*: the ``k`` best scores
  found so far across every cluster of one query.  When the caller only wants
  the top-``k`` mappings, any partial mapping whose optimistic bound falls
  below the pool's floor (the current ``k``-th best score) cannot enter the
  final ranking and is pruned — a good mapping found in one cluster raises
  the pruning floor for every other cluster searched in the same query;
* the three frontier policies — :class:`DepthFirstPolicy` (Branch-and-Bound),
  :class:`BestFirstPolicy` (A*) and :class:`BeamPolicy` (beam search) — which
  are now thin orderings over the shared expansion step.

Exactness
---------
Cross-cluster pruning never changes the reported top-``k``: the bound is
admissible (every prefix of a mapping with score ``σ`` has bound ``>= σ``) and
the floor is always a *realized, per-signature-deduplicated* mapping score, so
a pruned branch satisfies ``bound < floor <= final k-th best distinct score``
— none of its completions could displace the final top-``k``, and ties at the
floor are never pruned (the cut is strict, and lowered by ``_TIE_SLACK``
because the bound and the realized score are different float expressions).
Because the final ranking is re-sorted with the canonical deterministic key,
the merged top-``k`` is identical no matter how the floor rose over time,
including when resilient-mode shard attempts raise it from concurrent
threads.  This argument requires a *complete* policy; incomplete ones (beam,
budget-limited A*) opt out of incumbent pruning via
:meth:`SearchPolicy.supports_shared_pruning` — they keep δ-only pruning plus
plain top-``k`` truncation, staying deterministic.  Without
``top_k`` the pool is absent and the engine reproduces the legacy
``Δ >= δ``-complete semantics (and bit-identical results) exactly.

Counters are *not* part of the determinism contract in top-``k`` mode: how
many partial mappings the floor prunes depends on which search found a good
incumbent first.  A query searches its clusters in order, so only searches
that share a pool concurrently (resilient-mode shard attempts) make that
timing-dependent.
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.errors import MappingError
from repro.matchers.selection import MappingElement
from repro.mapping.base import GenerationResult
from repro.mapping.model import MappingProblem
from repro.mapping.search_space import grouped_search_space
from repro.mapping.support import candidates_by_tree, incremental_path_edges

_NEGATIVE_INFINITY = float("-inf")


#: How far below the incumbent floor a bound must fall to be cut.  The
#: optimistic bound and the realized score are different float expressions, so
#: a branch whose exact bound equals a tied incumbent's score can read an ulp
#: below it (0.707 against 0.7070000000000001); cutting at the bare floor would
#: drop a tie the canonical ranking orders ahead of the incumbent.
_TIE_SLACK = 1e-9


class TopKPool:
    """Thread-safe pool of the ``k`` best mapping scores seen so far.

    One pool instance is shared by every per-cluster search of a query, and
    by every shard search of a sharded query, which resilient mode may run on
    attempt threads.  The pool only stores scores, never mappings: it exists
    to *raise the pruning floor*, while the mappings themselves flow through
    the normal per-cluster results and are merged deterministically
    afterwards.
    """

    def __init__(self, k: int) -> None:
        if k < 1:
            raise MappingError(f"top-k pool needs k >= 1, got {k}")
        self.k = k
        # The k best (signature -> score) entries seen so far.  Keying by the
        # mapping signature dedups the same mapping discovered in several
        # overlapping clusters: counting it twice would inflate the floor past
        # the true k-th best *distinct* score and wrongly prune rank k.
        self._members: Dict[object, float] = {}
        self._floor = _NEGATIVE_INFINITY
        self._anonymous = itertools.count()
        self._lock = threading.Lock()

    def offer(self, score: float, signature: Optional[object] = None) -> None:
        """Record a realized mapping score (cheap; called once per mapping).

        ``signature`` identifies the mapping for cross-cluster deduplication;
        offers without one are treated as distinct mappings.
        """
        with self._lock:
            if signature is None:
                signature = ("__anonymous__", next(self._anonymous))
            elif signature in self._members:
                return
            if len(self._members) < self.k:
                self._members[signature] = score
                if len(self._members) == self.k:
                    self._floor = min(self._members.values())
            elif score > self._floor:
                evicted = min(self._members.items(), key=lambda item: item[1])[0]
                del self._members[evicted]
                self._members[signature] = score
                self._floor = min(self._members.values())

    def floor(self) -> float:
        """The current ``k``-th best score, or ``-inf`` while fewer than ``k`` exist.

        Monotonically non-decreasing over a query's lifetime, which is what
        makes pruning against it sound at any point in time.
        """
        with self._lock:
            return self._floor

    def __len__(self) -> int:
        with self._lock:
            return len(self._members)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TopKPool(k={self.k}, floor={self.floor():.3f})"


class TranslatingTopKPool:
    """A :class:`TopKPool` view that rewrites signatures before offering them.

    Shard fan-out shares one incumbent pool across *services* whose searches
    run in different repository coordinate spaces: every shard numbers its own
    trees and global node ids from zero, so the signatures realized inside one
    shard would collide with — and wrongly deduplicate against — signatures
    from every other shard.  Wrapping the shared pool with a per-shard
    ``translate`` callable (shard-local signature → merged-repository
    signature) keeps the pool's deduplication keyed by the *merged* mapping
    identity, which is the space the final ranking is deduplicated in.

    The view is intentionally minimal: it forwards ``floor``/``__len__`` and
    only intercepts ``offer``.  It satisfies the same exactness argument as a
    bare pool (the floor is still a realized, distinct-by-merged-signature
    mapping score), so complete policies may prune against it freely.
    """

    __slots__ = ("pool", "translate")

    def __init__(self, pool: TopKPool, translate) -> None:
        self.pool = pool
        self.translate = translate

    @property
    def k(self) -> int:
        return self.pool.k

    def offer(self, score: float, signature: Optional[object] = None) -> None:
        self.pool.offer(score, None if signature is None else self.translate(signature))

    def floor(self) -> float:
        return self.pool.floor()

    def __len__(self) -> int:
        return len(self.pool)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TranslatingTopKPool({self.pool!r})"


class TreeSearchContext:
    """Shared expansion machinery for one (problem, repository tree) search.

    Precomputes, once per tree:

    * candidate groups per personal node (already similarity-ordered);
    * per-level remaining-similarity totals for the O(1)
      :meth:`~repro.objective.base.ObjectiveFunction.fast_bound` path.  The
      totals are summed left-to-right over the same node order the legacy
      generators used, so the fast path is bit-identical to the generic one
      for the bundled objectives;
    * lazily (only for objectives without a fast bound), the per-level
      remaining-best-similarity maps — :meth:`remaining_map` of level ``l``
      is what the generic :meth:`~repro.objective.base.ObjectiveFunction.bound`
      expects for a partial assignment covering ``order[:l]``.
    """

    __slots__ = (
        "problem",
        "order",
        "groups",
        "pool",
        "delta",
        "deadline",
        "best_similarity",
        "remaining_totals",
        "_remaining_maps",
        "_bound_table",
    )

    def __init__(
        self,
        problem: MappingProblem,
        order: List[int],
        groups: Dict[int, List[MappingElement]],
        pool: Optional[TopKPool] = None,
    ) -> None:
        self.problem = problem
        self.order = order
        self.groups = groups
        self.delta = problem.delta
        self.pool = pool
        self.deadline = problem.deadline
        self.best_similarity = {
            node_id: max(element.similarity for element in elements)
            for node_id, elements in groups.items()
        }
        self.remaining_totals = [
            sum(self.best_similarity[node_id] for node_id in order[level:])
            for level in range(len(order) + 1)
        ]
        # The per-level maps are only needed by the generic bound() fallback
        # (objectives without fast_bound); building the O(levels²) entries
        # eagerly would be dead weight on every default-configuration search,
        # so they materialize on first use.
        self._remaining_maps: Optional[List[Dict[int, float]]] = None
        # Packed fast_bound table (repro.kernels.objective); None when the
        # objective declines, in which case fast_bound/bound run per call.
        self._bound_table = problem.objective.bound_table(problem.personal_schema)

    def remaining_map(self, level: int) -> Dict[int, float]:
        """Best remaining per-node similarities for ``order[level:]`` (lazy)."""
        if self._remaining_maps is None:
            self._remaining_maps = [
                {node_id: self.best_similarity[node_id] for node_id in self.order[lvl:]}
                for lvl in range(len(self.order) + 1)
            ]
        return self._remaining_maps[level]

    # -- bound evaluation -----------------------------------------------------

    def bound(
        self,
        assignment: Dict[int, MappingElement],
        assigned_similarity: float,
        level: int,
        edge_count: int,
        result: GenerationResult,
    ) -> float:
        """Admissible bound for a partial assignment covering ``order[:level]``."""
        result.counters.increment("bound_evaluations")
        table = self._bound_table
        if table is not None:
            # Same operands, same operation order as fast_bound — the packed
            # table only hoists the per-edge-count path term (tests/kernels
            # pins bit-identity).
            return table.bound(
                assigned_similarity + self.remaining_totals[level], edge_count
            )
        objective = self.problem.objective
        fast = objective.fast_bound(
            self.problem.personal_schema,
            assigned_similarity,
            self.remaining_totals[level],
            edge_count,
        )
        if fast is not None:
            return fast
        return objective.bound(
            self.problem.personal_schema, assignment, self.remaining_map(level), edge_count
        )

    def expired(self, result: GenerationResult) -> bool:
        """Poll the problem's deadline; mark the result truncated on expiry.

        ``set`` (not ``increment``) keeps the flag idempotent under the many
        checks one expiring search performs; merged per-cluster counters sum
        to "how many cluster searches were cut short", and any value > 0
        marks the overall result partial.
        """
        if self.deadline is not None and self.deadline.expired():
            result.counters.set("deadline_expired", 1)
            return True
        return False

    def prune_floor(self) -> float:
        """The current pruning floor: ``δ``, raised by the shared incumbent pool."""
        if self.pool is None:
            return self.delta
        floor = self.pool.floor() - _TIE_SLACK
        return floor if floor > self.delta else self.delta

    def admit(self, bound: float, result: GenerationResult) -> bool:
        """Decide whether a partial mapping with this bound is worth expanding.

        The cut is strict (``bound < floor - _TIE_SLACK`` prunes) so mappings
        tied with the incumbent floor are never lost.
        """
        if bound < self.delta:
            result.counters.increment("pruned_partial_mappings")
            return False
        if self.pool is not None and bound < self.pool.floor() - _TIE_SLACK:
            result.counters.increment("pruned_partial_mappings")
            result.counters.increment("incumbent_pruned_partial_mappings")
            return False
        return True

    # -- completion -----------------------------------------------------------

    def accept(self, assignment: Dict[int, MappingElement], result: GenerationResult) -> None:
        """Evaluate a complete assignment; keep it when it clears ``δ``."""
        mapping = self.problem.evaluate(assignment)
        result.counters.increment("evaluated_mappings")
        if mapping.score >= self.delta:
            result.mappings.append(mapping)
            if self.pool is not None:
                self.pool.offer(mapping.score, mapping.signature())


class SearchPolicy:
    """A frontier discipline over the shared expansion machinery."""

    name: str = "policy"

    def supports_shared_pruning(self) -> bool:
        """Whether incumbent pruning cannot change this policy's result set.

        The exactness argument (see the module docstring) only holds for
        *complete* policies: pruning a sub-top-k branch from a complete
        search never changes which top-k mappings are found.  In an
        incomplete search — beam (the width cut drops different states when
        the floor frees beam slots) or a budget-limited A* (the floor changes
        which states fit into the expansion budget) — the floor's arrival
        *time* would leak into the result set, breaking determinism wherever
        searches share a pool concurrently (resilient-mode shard attempts).
        Such policies opt out: the engine then runs them without a pool
        (δ-only pruning, plain top-k truncation).
        """
        return True

    def search_tree(self, context: TreeSearchContext, result: GenerationResult) -> None:
        raise NotImplementedError


class DepthFirstPolicy(SearchPolicy):
    """Depth-first Branch-and-Bound: mutable assignment with undo, LIFO order.

    With ``use_bounding=False`` the policy degenerates into the depth-first
    exhaustive enumeration (no bound evaluations, no pruning), which the
    ablation benchmark uses to quantify what the bounding function saves.
    """

    name = "depth-first"

    def __init__(self, use_bounding: bool = True) -> None:
        self.use_bounding = use_bounding

    def search_tree(self, context: TreeSearchContext, result: GenerationResult) -> None:
        problem = context.problem
        order = context.order
        groups = context.groups
        assignment: Dict[int, MappingElement] = {}
        used_globals: set = set()
        path_edges: set = set()

        def recurse(level: int, assigned_similarity: float) -> None:
            if level == len(order):
                context.accept(assignment, result)
                return
            node_id = order[level]
            for element in groups[node_id]:
                # Cooperative deadline: stop expanding, keep what we have.
                # Unwinding mid-loop is safe — every accepted mapping so far
                # is fully evaluated, the result is just missing the rest.
                if context.expired(result):
                    return
                if problem.require_injective and element.ref.global_id in used_globals:
                    continue
                added_edges = incremental_path_edges(problem, assignment, node_id, element)
                new_edges = added_edges - path_edges

                assignment[node_id] = element
                used_globals.add(element.ref.global_id)
                path_edges.update(new_edges)
                child_similarity = assigned_similarity + element.similarity
                result.counters.increment("partial_mappings")

                expand = True
                if self.use_bounding:
                    bound = context.bound(
                        assignment, child_similarity, level + 1, len(path_edges), result
                    )
                    expand = context.admit(bound, result)
                if expand:
                    recurse(level + 1, child_similarity)

                del assignment[node_id]
                used_globals.discard(element.ref.global_id)
                path_edges.difference_update(new_edges)

        recurse(0, 0.0)


class BestFirstPolicy(SearchPolicy):
    """A*: a priority queue ordered by the optimistic bound, best state first.

    Stops as soon as the best frontier bound falls below the pruning floor —
    with a shared incumbent pool the floor may have been raised by *another*
    cluster, turning the stop condition into cross-cluster pruning.
    """

    name = "best-first"

    def __init__(self, max_expansions: Optional[int] = None) -> None:
        self.max_expansions = max_expansions

    def supports_shared_pruning(self) -> bool:
        # With an expansion budget the search is incomplete: the incumbent
        # floor would decide which states fit into the budget, making the
        # result set timing-dependent under concurrent shard attempts.
        return self.max_expansions is None

    def search_tree(self, context: TreeSearchContext, result: GenerationResult) -> None:
        problem = context.problem
        order = context.order
        groups = context.groups
        tie_breaker = itertools.count()
        # Heap entries: (-bound, tie, level, assignment, similarity sum, used ids, path edges)
        heap: List[
            Tuple[float, int, int, Dict[int, MappingElement], float, FrozenSet[int], FrozenSet[int]]
        ] = []
        heapq.heappush(heap, (-1.0, next(tie_breaker), 0, {}, 0.0, frozenset(), frozenset()))
        expansions = 0

        while heap:
            # Cooperative deadline: the frontier is abandoned, every mapping
            # accepted so far stays — an anytime cut of the best-first order.
            if context.expired(result):
                break
            negative_bound, _, level, assignment, assigned_similarity, used_globals, path_edges = (
                heapq.heappop(heap)
            )
            if -negative_bound < context.prune_floor():
                # The heap is bound-ordered: everything left is bounded below
                # the floor as well, so no remaining state can contribute.
                break
            if level == len(order):
                context.accept(assignment, result)
                continue
            if self.max_expansions is not None and expansions >= self.max_expansions:
                result.counters.set("expansion_limit_reached", 1)
                break
            expansions += 1
            result.counters.increment("expansions")

            node_id = order[level]
            for element in groups[node_id]:
                if problem.require_injective and element.ref.global_id in used_globals:
                    continue
                added = incremental_path_edges(problem, assignment, node_id, element)
                new_edges = path_edges | frozenset(added)
                new_assignment = dict(assignment)
                new_assignment[node_id] = element
                child_similarity = assigned_similarity + element.similarity
                result.counters.increment("partial_mappings")
                bound = context.bound(
                    new_assignment, child_similarity, level + 1, len(new_edges), result
                )
                if not context.admit(bound, result):
                    continue
                heapq.heappush(
                    heap,
                    (
                        -bound,
                        next(tie_breaker),
                        level + 1,
                        new_assignment,
                        child_similarity,
                        used_globals | {element.ref.global_id},
                        new_edges,
                    ),
                )


@dataclass(frozen=True)
class _BeamState:
    """One partial mapping kept in the beam (assignment stored in level order)."""

    assignment: Tuple[Tuple[int, MappingElement], ...]
    assigned_similarity: float
    used_globals: FrozenSet[int]
    path_edges: FrozenSet[int]
    bound: float

    def selection_key(self) -> Tuple[float, Tuple[int, ...]]:
        """Deterministic beam-selection key: bound, then mapped ids by personal node."""
        return (
            -self.bound,
            tuple(element.ref.global_id for _, element in sorted(self.assignment)),
        )


class BeamPolicy(SearchPolicy):
    """Level-synchronous beam search keeping the ``beam_width`` best states."""

    name = "beam"

    def __init__(self, beam_width: int) -> None:
        if beam_width < 1:
            raise MappingError(f"beam width must be positive, got {beam_width}")
        self.beam_width = beam_width

    def supports_shared_pruning(self) -> bool:
        # Beam search is incomplete: a state pruned by the incumbent floor
        # frees a beam slot for a state the width cut would otherwise drop,
        # so the surviving set would depend on when another cluster raised
        # the floor.
        return False

    def search_tree(self, context: TreeSearchContext, result: GenerationResult) -> None:
        problem = context.problem
        beam: List[_BeamState] = [
            _BeamState(
                assignment=(),
                assigned_similarity=0.0,
                used_globals=frozenset(),
                path_edges=frozenset(),
                bound=1.0,
            )
        ]

        for level, node_id in enumerate(context.order):
            next_states: List[_BeamState] = []
            for state in beam:
                # Cooperative deadline: abandoning a level mid-way can only
                # drop states, and beam results only materialize at the final
                # level, so an expired beam search returns what prior trees
                # of the same problem already accepted.
                if context.expired(result):
                    return
                assignment = dict(state.assignment)
                for element in context.groups[node_id]:
                    if problem.require_injective and element.ref.global_id in state.used_globals:
                        continue
                    added = incremental_path_edges(problem, assignment, node_id, element)
                    new_edges = state.path_edges | frozenset(added)
                    child_similarity = state.assigned_similarity + element.similarity
                    new_assignment = assignment | {node_id: element}
                    result.counters.increment("partial_mappings")
                    bound = context.bound(
                        new_assignment, child_similarity, level + 1, len(new_edges), result
                    )
                    if not context.admit(bound, result):
                        continue
                    next_states.append(
                        _BeamState(
                            assignment=(*state.assignment, (node_id, element)),
                            assigned_similarity=child_similarity,
                            used_globals=state.used_globals | {element.ref.global_id},
                            path_edges=new_edges,
                            bound=bound,
                        )
                    )
            next_states.sort(key=_BeamState.selection_key)
            dropped = max(0, len(next_states) - self.beam_width)
            if dropped:
                result.counters.increment("beam_dropped_states", dropped)
            beam = next_states[: self.beam_width]
            if not beam:
                return

        for state in beam:
            context.accept(dict(state.assignment), result)


def run_search(problem: MappingProblem, policy: SearchPolicy) -> GenerationResult:
    """Search every candidate-complete repository tree of ``problem``.

    The per-tree searches run in ascending tree-id order (deterministic), each
    over a fresh :class:`TreeSearchContext`; the shared incumbent pool — when
    the problem carries one — persists across trees *and* across the sibling
    problems that share it.  In top-``k`` mode the returned result is
    truncated to the problem's ``top_k`` best mappings (sorted with the
    canonical ranking key), since no global ranking can ever need more than
    ``k`` mappings from one cluster.
    """
    result = GenerationResult()
    started = time.perf_counter()
    pool: Optional[TopKPool] = None
    if problem.top_k is not None and policy.supports_shared_pruning():
        # Without a caller-provided pool the incumbent floor is still shared
        # across this problem's own trees (a private pool).  Incomplete
        # policies run without a pool entirely — see
        # SearchPolicy.supports_shared_pruning — and get plain top-k
        # truncation below.
        pool = problem.shared_pool or TopKPool(problem.top_k)
    order = problem.assignment_order()
    deadline = problem.deadline
    for _tree_id, groups in sorted(candidates_by_tree(problem).items()):
        if deadline is not None and deadline.expired():
            # Anytime cut between trees: keep what earlier trees produced.
            result.counters.set("deadline_expired", 1)
            break
        # The enumerable space of the trees actually searched — lets reports
        # relate partial_mappings to what a pruning-free search would face.
        result.counters.increment("tree_search_space", grouped_search_space(groups))
        policy.search_tree(TreeSearchContext(problem, order, groups, pool), result)
    result.elapsed_seconds = time.perf_counter() - started
    result.sort()
    if problem.top_k is not None:
        del result.mappings[problem.top_k :]
    return result
