"""Request-parameter validation shared by every backend and front-end.

Before this module existed each backend policed its own inputs: ``Bellflower``
checked ``top_k`` deep inside :meth:`generate_mappings
<repro.system.bellflower.Bellflower.generate_mappings>`, the sharded service
re-implemented the same check in ``match_many``, and the base
:class:`~repro.service.MatchingService` computed its cache key *before* any
validation fired downstream — so an invalid request could touch service state
before being rejected, and the three backends raised differently-worded
errors.  These helpers are the single definition of what a valid query
parameter is; all three backends and the :mod:`repro.api` envelope codecs call
them at the API boundary, before any side effect, and every violation raises
the one :class:`~repro.errors.InvalidRequestError`.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import InvalidRequestError


def validate_delta(delta: Optional[float]) -> Optional[float]:
    """Check a ``δ`` threshold override: ``None`` or a real number in [0, 1]."""
    if delta is None:
        return None
    if isinstance(delta, bool) or not isinstance(delta, (int, float)):
        raise InvalidRequestError(f"delta must be a number in [0, 1], got {delta!r}")
    if not 0.0 <= float(delta) <= 1.0:
        raise InvalidRequestError(f"delta must be in [0, 1], got {delta!r}")
    return float(delta)


def validate_top_k(top_k: Optional[int]) -> Optional[int]:
    """Check a search bound: ``None`` (complete ``Δ >= δ`` search) or an int >= 1."""
    if top_k is None:
        return None
    if isinstance(top_k, bool) or not isinstance(top_k, int):
        raise InvalidRequestError(f"top_k must be an integer >= 1, got {top_k!r}")
    if top_k < 1:
        raise InvalidRequestError(f"top_k must be at least 1 when given, got {top_k}")
    return top_k


def validate_timeout_ms(timeout_ms: Optional[int]) -> Optional[int]:
    """Check a query deadline: ``None`` (no deadline) or an integer >= 1 ms."""
    if timeout_ms is None:
        return None
    if isinstance(timeout_ms, bool) or not isinstance(timeout_ms, int):
        raise InvalidRequestError(f"timeout_ms must be an integer >= 1, got {timeout_ms!r}")
    if timeout_ms < 1:
        raise InvalidRequestError(f"timeout_ms must be at least 1 when given, got {timeout_ms}")
    return timeout_ms


def validate_query(delta: Optional[float], top_k: Optional[int]) -> None:
    """The boundary check every backend runs before any side effect."""
    validate_delta(delta)
    validate_top_k(top_k)


def validate_page(offset: int, limit: Optional[int]) -> None:
    """Check result-page parameters (``offset`` >= 0, ``limit`` ``None`` or >= 0)."""
    if isinstance(offset, bool) or not isinstance(offset, int) or offset < 0:
        raise InvalidRequestError(f"offset must be a non-negative integer, got {offset!r}")
    if limit is None:
        return
    if isinstance(limit, bool) or not isinstance(limit, int) or limit < 0:
        raise InvalidRequestError(f"limit must be a non-negative integer when given, got {limit!r}")
