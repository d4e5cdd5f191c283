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
Both implementations below honour it; a custom executor must too, or match
results stop being reproducible.

The library is pure Python, so :class:`ThreadPoolTaskExecutor` is bounded by
the GIL for CPU-heavy generators — it exists for the service scenario where
per-cluster work blocks on shared caches or the workload mixes many small
clusters.  :class:`ProcessPoolTaskExecutor` is the CPU-parallel backend: it
ships picklable task payloads to worker processes in contiguous, input-ordered
chunks (one pickle per chunk, so payloads sharing large state — e.g. the
per-cluster mapping problems of one query, which all reference the same
repository — serialize that state once per worker, not once per task) and
reassembles the results in input order, preserving the determinism contract.
"""

from __future__ import annotations

import abc
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

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


class ThreadPoolTaskExecutor(TaskExecutor):
    """Dispatch tasks to a shared :class:`concurrent.futures.ThreadPoolExecutor`.

    The pool is created lazily on first use and reused across queries (a
    service process handles many queries; paying thread start-up per query
    would drown the win).  ``close()`` shuts the pool down; the executor can
    be used as a context manager.
    """

    name = "thread-pool"

    def __init__(self, max_workers: Optional[int] = None) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be positive when given, got {max_workers}")
        self.max_workers = max_workers
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="repro-query"
            )
        return self._pool

    def map(
        self, fn: Callable[[_ItemT], _ResultT], items: Sequence[_ItemT]
    ) -> List[_ResultT]:
        if len(items) <= 1:
            # No parallelism to extract; skip the future machinery.
            return [fn(item) for item in items]
        # Gathering futures in submission order preserves the determinism
        # contract even though completion order is scheduler-dependent.
        pool = self._ensure_pool()
        futures = [pool.submit(fn, item) for item in items]
        return [future.result() for future in futures]

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ThreadPoolTaskExecutor(max_workers={self.max_workers})"


def available_cpu_count() -> int:
    """CPUs this process may run on.

    The scheduler affinity set where the platform reports one (``taskset``,
    cgroup cpusets), else ``os.cpu_count()``: a pool sized from the machine's
    core count would oversubscribe a pinned process.
    """
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_task_chunk(fn: Callable[[_ItemT], _ResultT], chunk: List[_ItemT]) -> List[_ResultT]:
    """Worker-side body of :meth:`ProcessPoolTaskExecutor.map` (module-level: picklable)."""
    return [fn(item) for item in chunk]


def split_into_chunks(items: Sequence[_ItemT], chunk_count: int) -> List[List[_ItemT]]:
    """Split ``items`` into at most ``chunk_count`` contiguous, balanced chunks.

    Contiguity is what keeps the process executor deterministic: flattening
    the per-chunk results in submission order reproduces the input order
    exactly.  Sizes differ by at most one (the first ``len % count`` chunks
    get the extra item).
    """
    if chunk_count < 1:
        raise ValueError(f"chunk_count must be positive, got {chunk_count}")
    if not items:
        return []
    chunk_count = min(chunk_count, len(items))
    base, extra = divmod(len(items), chunk_count)
    chunks: List[List[_ItemT]] = []
    start = 0
    for index in range(chunk_count):
        size = base + (1 if index < extra else 0)
        chunks.append(list(items[start : start + size]))
        start += size
    return chunks


class ProcessPoolTaskExecutor(TaskExecutor):
    """Dispatch tasks to a :class:`concurrent.futures.ProcessPoolExecutor`.

    Tasks are grouped into contiguous chunks (one chunk per worker by
    default) and each chunk is submitted as a single unit; results are
    gathered in submission order and flattened, so ``map`` preserves input
    order like every other executor.  Chunking matters for two reasons:

    * payloads that share big state (e.g. per-cluster
      :class:`~repro.mapping.model.MappingProblem` objects all referencing
      one repository) are pickled *once per chunk* — the pickle memo keeps
      the shared objects shared;
    * objects designed for intra-query sharing, such as the
      :class:`~repro.mapping.engine.TopKPool` incumbent, stay shared among
      the tasks of one chunk inside a worker process.  Cross-process the pool
      degrades to a per-worker copy — results are still exact (the shared
      floor only ever *prunes* work), just with less pruning than the thread
      backend achieves.

    The pool is created lazily on first use and reused across queries;
    ``close()`` shuts it down.  ``fn`` and every item must be picklable.
    """

    name = "process-pool"

    def __init__(
        self, max_workers: Optional[int] = None, tasks_per_worker: int = 1
    ) -> None:
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be positive when given, got {max_workers}")
        if tasks_per_worker < 1:
            raise ValueError(f"tasks_per_worker must be positive, got {tasks_per_worker}")
        self.max_workers = max_workers
        #: Chunks submitted per worker.  1 (the default) is the coarsest
        #: split — one contiguous chunk per worker, one pickle round-trip
        #: each.  Larger values trade extra dispatch overhead for load
        #: balancing when per-task costs are skewed; results are identical
        #: either way (chunks stay contiguous and are flattened in order).
        self.tasks_per_worker = tasks_per_worker
        self._pool: Optional[ProcessPoolExecutor] = None
        # Introspection for benchmarks and tests: the shape of the last
        # parallel dispatch (empty/0 while nothing has been dispatched or the
        # last map ran inline).
        self.last_chunk_sizes: List[int] = []
        self.last_workers_used: int = 0

    def _ensure_pool(self, workers: int) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=workers)
        return self._pool

    def map(
        self, fn: Callable[[_ItemT], _ResultT], items: Sequence[_ItemT]
    ) -> List[_ResultT]:
        if len(items) <= 1:
            # No parallelism to extract; skip the process machinery (and the
            # pickling round-trip) entirely.
            self.last_chunk_sizes = []
            self.last_workers_used = 0
            return [fn(item) for item in items]
        workers = self.max_workers or available_cpu_count()
        chunks = split_into_chunks(items, workers * self.tasks_per_worker)
        if len(chunks) <= 1:
            self.last_chunk_sizes = []
            self.last_workers_used = 0
            return [fn(item) for item in items]
        self.last_chunk_sizes = [len(chunk) for chunk in chunks]
        self.last_workers_used = min(workers, len(chunks))
        pool = self._ensure_pool(workers)
        futures = [pool.submit(_run_task_chunk, fn, chunk) for chunk in chunks]
        results: List[_ResultT] = []
        for future in futures:
            results.extend(future.result())
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ProcessPoolTaskExecutor(max_workers={self.max_workers}, "
            f"tasks_per_worker={self.tasks_per_worker})"
        )
