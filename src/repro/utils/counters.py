"""Named integer counters.

The paper uses counters as the primary, machine-independent efficiency
indicator: the Branch-and-Bound generator counts the number of *partial schema
mappings* it creates, and the element matching stage counts similarity
computations.  :class:`CounterSet` is the single mechanism used throughout the
library so experiment reports can aggregate counters from every stage.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from typing import Dict, Iterator, Mapping, Tuple


class CounterSet:
    """A dictionary of named monotonically increasing counters."""

    def __init__(self, initial: Mapping[str, int] | None = None) -> None:
        self._counts: Dict[str, int] = defaultdict(int)
        if initial:
            for name, value in initial.items():
                self._counts[name] = int(value)

    def increment(self, name: str, amount: int = 1) -> int:
        """Increase ``name`` by ``amount`` (default 1) and return the new value."""
        if amount < 0:
            raise ValueError(f"counter increments must be non-negative, got {amount}")
        self._counts[name] += amount
        return self._counts[name]

    def set(self, name: str, value: int) -> None:
        """Set a counter to an absolute value (used for gauge-style statistics)."""
        self._counts[name] = int(value)

    def get(self, name: str) -> int:
        return self._counts.get(name, 0)

    def __getitem__(self, name: str) -> int:
        return self.get(name)

    def __contains__(self, name: str) -> bool:
        return name in self._counts

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        return iter(sorted(self._counts.items()))

    def __len__(self) -> int:
        return len(self._counts)

    def merge(self, other: "CounterSet") -> "CounterSet":
        """Add every counter of ``other`` into this set and return ``self``."""
        for name, value in other:
            self._counts[name] += value
        return self

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self)
        return f"CounterSet({inner})"


class ThreadSafeCounterSet(CounterSet):
    """A :class:`CounterSet` whose writes are atomic under concurrency.

    The per-query counter sets (generation results, stage reports) are
    thread-local by construction and stay lock-free — the engine increments
    them on its hot path.  The *service-level* counters are different: the
    asyncio server executes many clients' queries concurrently on a thread
    pool against one service object, and a plain ``dict[name] += amount`` is
    a non-atomic read-modify-write that silently loses increments under that
    interleaving.  The services use this subclass, paying one uncontended
    lock per request-level increment — nothing on the search hot path.
    """

    def __init__(self, initial: Mapping[str, int] | None = None) -> None:
        super().__init__(initial)
        self._lock = threading.Lock()

    def increment(self, name: str, amount: int = 1) -> int:
        with self._lock:
            return super().increment(name, amount)

    def set(self, name: str, value: int) -> None:
        with self._lock:
            super().set(name, value)

    def merge(self, other: "CounterSet") -> "CounterSet":
        with self._lock:
            return super().merge(other)

    def as_dict(self) -> Dict[str, int]:
        # Snapshot under the lock: copying a dict that another thread is
        # inserting into can raise "dictionary changed size during iteration".
        with self._lock:
            return super().as_dict()

    def __iter__(self) -> Iterator[Tuple[str, int]]:
        # Iterate over a locked snapshot for the same reason as as_dict().
        return iter(sorted(self.as_dict().items()))
