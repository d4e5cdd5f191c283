"""Resilience primitives for the query path.

The serving stack (ROADMAP item 3) needs three things a correctness-first
search library does not provide on its own:

* **Deadlines with anytime results** — :class:`Deadline` is carried through
  :class:`~repro.api.envelope.MatchOptions` into the search engine, which
  checks it cooperatively and returns its current incumbents as a *partial*
  result instead of running to completion.
* **Retry, hedging and failover** — :class:`RetryPolicy`,
  :class:`CircuitBreaker` and :class:`ResilientFanout` let the sharded
  service survive slow or dead shards: stragglers are hedged, failures are
  retried with capped exponential backoff, and a persistently failing shard
  is skipped (the answer *degrades* to the surviving shards instead of
  failing outright).
* **Deterministic fault injection** — :class:`FaultPlan` and
  :class:`FaultInjector` describe a seeded schedule of delays/errors/hangs
  keyed by injection key × call count, which is what makes the two layers
  above testable (and benchmarkable) without flaky sleeps.

Everything here is deterministic by construction: jitter and probabilistic
faults derive from seeded CRC32 hashes, never from process-random state, so
a failing chaos trial can be replayed from its seed alone.
"""

from repro.resilience.deadline import Deadline
from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    load_fault_plan,
)
from repro.resilience.fanout import ResiliencePolicy, ResilientFanout, TaskOutcome
from repro.resilience.retry import BreakerPolicy, CircuitBreaker, RetryPolicy

__all__ = [
    "BreakerPolicy",
    "CircuitBreaker",
    "Deadline",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "ResiliencePolicy",
    "ResilientFanout",
    "RetryPolicy",
    "TaskOutcome",
    "load_fault_plan",
]
