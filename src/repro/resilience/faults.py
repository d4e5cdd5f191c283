"""Deterministic fault injection.

A :class:`FaultPlan` is a seeded *schedule* of faults, keyed by an injection
key (the sharded service uses ``"shard-<id>"``) crossed with a per-key call
counter.  Because the plan is data (JSON-serialisable) and every stochastic
choice derives from the plan's seed via
:func:`~repro.resilience.retry.seeded_fraction`, a chaos trial is fully
described by ``(plan, seed)`` and replays bit-identically — no flaky sleeps,
no process-random state.

Three fault kinds:

* ``delay`` — sleep ``delay_ms`` before running the real call (a straggler);
* ``error`` — raise :class:`~repro.errors.InjectedFaultError` instead of
  calling (a crash);
* ``hang`` — sleep ``hang_ms`` (the plan-level stand-in for "forever") before
  running the real call (a stuck worker; only meaningful under a hedge or
  deadline that can route around it).

Which calls a spec fires on is controlled by ``calls`` (``"all"``, an explicit
index list, ``{"every": n, "offset": r}``, or ``{"first": n}``) optionally
intersected with a seeded ``probability``.

Faults are injected *at the call boundary* — before the wrapped function
runs.  A faulted call therefore never half-executes: in the sharded service a
failing shard has not yet touched the shared top-k pool, which is what keeps
"healthy shards are bit-identical to a healthy run" provable.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple, Union

from repro.errors import InjectedFaultError
from repro.resilience.retry import seeded_fraction

_FAULT_KINDS = ("delay", "error", "hang")
_CallSelector = Union[str, Tuple[int, ...], Dict[str, int]]


def _normalise_calls(calls: object) -> _CallSelector:
    if calls == "all":
        return "all"
    if isinstance(calls, dict):
        if set(calls) == {"first"}:
            spec = {"first": int(calls["first"])}
            if spec["first"] < 1:
                raise ValueError(f"calls.first must be positive, got {spec['first']}")
            return spec
        if set(calls) <= {"every", "offset"} and "every" in calls:
            spec = {"every": int(calls["every"]), "offset": int(calls.get("offset", 0))}
            if spec["every"] < 1:
                raise ValueError(f"calls.every must be positive, got {spec['every']}")
            if not 0 <= spec["offset"] < spec["every"]:
                raise ValueError("calls.offset must be in [0, every)")
            return spec
        raise ValueError(f"unsupported calls selector: {calls!r}")
    if isinstance(calls, (list, tuple)):
        return tuple(sorted(int(index) for index in calls))
    raise ValueError(f"unsupported calls selector: {calls!r}")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: *which key*, *which calls*, *what happens*."""

    key: str  # injection key; "*" matches every key
    kind: str  # "delay" | "error" | "hang"
    delay_ms: float = 0.0
    message: str = "injected fault"
    calls: _CallSelector = "all"
    probability: Optional[float] = None  # seeded coin, intersected with `calls`

    def __post_init__(self) -> None:
        if self.kind not in _FAULT_KINDS:
            raise ValueError(f"fault kind must be one of {_FAULT_KINDS}, got {self.kind!r}")
        if self.delay_ms < 0:
            raise ValueError(f"delay_ms must be non-negative, got {self.delay_ms}")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        object.__setattr__(self, "calls", _normalise_calls(self.calls))

    def matches(self, key: str, call_index: int, seed: int) -> bool:
        if self.key != "*" and self.key != key:
            return False
        calls = self.calls
        if calls == "all":
            selected = True
        elif isinstance(calls, dict):
            if "first" in calls:
                selected = call_index < calls["first"]
            else:
                selected = call_index % calls["every"] == calls["offset"]
        else:
            selected = call_index in calls
        if not selected:
            return False
        if self.probability is None:
            return True
        return seeded_fraction(seed, self.key, key, call_index) < self.probability

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"key": self.key, "kind": self.kind}
        if self.delay_ms:
            payload["delay_ms"] = self.delay_ms
        if self.message != "injected fault":
            payload["message"] = self.message
        if self.calls != "all":
            payload["calls"] = list(self.calls) if isinstance(self.calls, tuple) else dict(self.calls)
        if self.probability is not None:
            payload["probability"] = self.probability
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultSpec":
        if not isinstance(payload, dict):
            raise ValueError(f"fault spec must be an object, got {type(payload).__name__}")
        unknown = set(payload) - {"key", "kind", "delay_ms", "message", "calls", "probability"}
        if unknown:
            raise ValueError(f"unknown fault spec fields: {sorted(unknown)}")
        return cls(
            key=str(payload["key"]),
            kind=str(payload["kind"]),
            delay_ms=float(payload.get("delay_ms", 0.0)),
            message=str(payload.get("message", "injected fault")),
            calls=payload.get("calls", "all"),
            probability=payload.get("probability"),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, JSON-serialisable schedule of faults.

    ``hang_ms`` bounds what a ``hang`` fault sleeps for — a finite stand-in
    for "forever" so an unattended soak test cannot wedge a worker thread
    permanently.
    """

    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 0
    hang_ms: float = 60_000.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        if self.hang_ms < 0:
            raise ValueError(f"hang_ms must be non-negative, got {self.hang_ms}")

    def fault_for(self, key: str, call_index: int) -> Optional[FaultSpec]:
        """The first spec that fires for this (key, call) — first match wins."""
        for spec in self.specs:
            if spec.matches(key, call_index, self.seed):
                return spec
        return None

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {"specs": [spec.to_dict() for spec in self.specs]}
        if self.seed:
            payload["seed"] = self.seed
        if self.hang_ms != 60_000.0:
            payload["hang_ms"] = self.hang_ms
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise ValueError(f"fault plan must be an object, got {type(payload).__name__}")
        unknown = set(payload) - {"specs", "seed", "hang_ms"}
        if unknown:
            raise ValueError(f"unknown fault plan fields: {sorted(unknown)}")
        specs = payload.get("specs", [])
        if not isinstance(specs, list):
            raise ValueError("fault plan 'specs' must be a list")
        return cls(
            specs=tuple(FaultSpec.from_dict(spec) for spec in specs),
            seed=int(payload.get("seed", 0)),
            hang_ms=float(payload.get("hang_ms", 60_000.0)),
        )


def load_fault_plan(path: Union[str, Path]) -> FaultPlan:
    """Load a :class:`FaultPlan` from a JSON file (see :meth:`FaultPlan.to_dict`)."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot load fault plan from {path}: {exc}") from exc
    return FaultPlan.from_dict(payload)


class FaultInjector:
    """Applies a :class:`FaultPlan` at call boundaries, counting calls per key.

    Thread-safe: the per-key call counters are the only mutable state and are
    guarded by a lock, so concurrent fan-out attempts observe a consistent
    call numbering (attempt *order* under concurrency is scheduler-dependent,
    but each key's calls are numbered 0, 1, 2, … exactly once each).
    """

    def __init__(self, plan: FaultPlan, *, sleep: Callable[[float], None] = time.sleep) -> None:
        self.plan = plan
        self._sleep = sleep
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = defaultdict(int)
        self.injected: Dict[str, int] = defaultdict(int)  # per-kind tally, for assertions

    def next_call(self, key: str) -> int:
        with self._lock:
            index = self._counts[key]
            self._counts[key] = index + 1
            return index

    def call(self, key: str, fn: Callable, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``, first applying any scheduled fault for ``key``."""
        spec = self.plan.fault_for(key, self.next_call(key))
        if spec is not None:
            with self._lock:
                self.injected[spec.kind] += 1
            if spec.kind == "error":
                raise InjectedFaultError(f"{spec.message} (key={key})")
            if spec.kind == "delay":
                self._sleep(spec.delay_ms / 1000.0)
            else:  # hang
                self._sleep(self.plan.hang_ms / 1000.0)
        return fn(*args, **kwargs)
