"""Pluggable task executors for per-cluster query execution.

Mapping generation is embarrassingly parallel across clusters: each useful
cluster yields an independent :class:`~repro.mapping.model.MappingProblem`,
and the merged ranking only depends on the *set* of per-cluster results, not
on the order they finished in.  :class:`TaskExecutor` abstracts how that
fan-out runs; :class:`Bellflower <repro.system.bellflower.Bellflower>` and
:class:`MatchingService <repro.service.MatchingService>` accept any
implementation.

Determinism contract: :meth:`TaskExecutor.map` must return results in the
order of the input items (like the built-in ``map``), so callers can merge
per-cluster counters and mappings in cluster order regardless of scheduling.
The implementations below honour it; a custom executor must too, or match
results stop being reproducible.

Queries run serially: no thread or process pool beat the serial path on the
mapping-search and shard fan-out benchmarks (ROADMAP item 6), so none ships.
The seam stays for executors that interpose on the per-cluster tasks, such
as :class:`~repro.resilience.ChaosExecutor`'s fault injection.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Sequence, TypeVar

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")


class TaskExecutor(abc.ABC):
    """Executes independent tasks, returning results in input order."""

    name: str = "executor"

    @abc.abstractmethod
    def map(
        self, fn: Callable[[_ItemT], _ResultT], items: Sequence[_ItemT]
    ) -> List[_ResultT]:
        """Apply ``fn`` to every item; result ``i`` corresponds to item ``i``."""

    def close(self) -> None:
        """Release any pooled resources (idempotent; default is a no-op)."""

    def __enter__(self) -> "TaskExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class DelegatingExecutor(TaskExecutor):
    """Base class for executors that wrap another executor.

    Forwards ``map``/``close`` to the inner executor untouched; subclasses
    override ``map`` to interpose (fault injection, instrumentation) while
    inheriting the inner executor's ordering contract.
    """

    name = "delegating"

    def __init__(self, inner: TaskExecutor) -> None:
        self.inner = inner

    def map(
        self, fn: Callable[[_ItemT], _ResultT], items: Sequence[_ItemT]
    ) -> List[_ResultT]:
        return self.inner.map(fn, items)

    def close(self) -> None:
        self.inner.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.inner!r})"


class SerialExecutor(TaskExecutor):
    """Run tasks inline on the calling thread (the default everywhere)."""

    name = "serial"

    def map(
        self, fn: Callable[[_ItemT], _ResultT], items: Sequence[_ItemT]
    ) -> List[_ResultT]:
        return [fn(item) for item in items]
