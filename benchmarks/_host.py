"""The host facts every benchmark report records.

A speedup or a latency compares only between runs on comparable hosts, so
each ``BENCH_*.json`` writer stores, next to its numbers, how many CPUs the
machine has and how many of them the benchmark process may run on.
"""

from __future__ import annotations

import os
from typing import Dict, Optional


def cpu_affinity() -> int:
    """CPUs this process may run on (the affinity set where the OS reports one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def host_fields() -> Dict[str, Optional[int]]:
    """``cpu_count`` and ``cpu_affinity``, to merge into a benchmark report."""
    return {"cpu_count": os.cpu_count(), "cpu_affinity": cpu_affinity()}
