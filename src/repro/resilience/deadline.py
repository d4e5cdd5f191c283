"""Cooperative deadlines for anytime query results.

A :class:`Deadline` is an absolute point on a monotonic clock.  It is created
once per request (from the wire-level ``timeout_ms``) and handed down through
the service layer into the search engine, which polls :meth:`Deadline.expired`
at its expansion points.  Polling is cheap (one clock read and one compare)
and cooperative: nothing is interrupted, the engine simply stops expanding and
returns whatever incumbents it has — a *partial* result, clearly marked.

The clock is injectable so tests can drive expiry deterministically instead
of sleeping: pass any zero-argument callable returning seconds.
"""

from __future__ import annotations

import time
from typing import Callable


class Deadline:
    """An absolute expiry point on a monotonic clock."""

    __slots__ = ("_expires_at", "_clock")

    def __init__(self, expires_at: float, clock: Callable[[], float] = time.monotonic) -> None:
        self._expires_at = float(expires_at)
        self._clock = clock

    @classmethod
    def after_ms(cls, timeout_ms: float, clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """A deadline ``timeout_ms`` milliseconds from now."""
        if timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be positive, got {timeout_ms}")
        return cls(clock() + timeout_ms / 1000.0, clock)

    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def remaining(self) -> float:
        """Seconds until expiry (negative once expired)."""
        return self._expires_at - self._clock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Deadline(remaining={self.remaining():.3f}s)"
