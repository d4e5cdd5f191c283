"""Tests for the pluggable task executors (order contract, pooling, errors)."""

from __future__ import annotations

import os
import threading

import pytest

from repro.utils.executor import (
    ProcessPoolTaskExecutor,
    SerialExecutor,
    TaskExecutor,
    ThreadPoolTaskExecutor,
    available_cpu_count,
    split_into_chunks,
)


def _square(value):
    """Module-level so the process executor can pickle it."""
    return value * value


def _boom(value):
    raise ValueError(f"bad {value}")


def _worker_pid(_value):
    return os.getpid()


@pytest.mark.parametrize("executor", [SerialExecutor(), ThreadPoolTaskExecutor(4)], ids=["serial", "threads"])
def test_map_preserves_input_order(executor):
    items = list(range(50))
    assert executor.map(lambda value: value * value, items) == [value * value for value in items]
    executor.close()


def test_thread_pool_actually_uses_worker_threads():
    seen = set()
    barrier = threading.Barrier(2, timeout=5)

    def record(_):
        try:
            barrier.wait()
        except threading.BrokenBarrierError:  # pragma: no cover - defensive
            pass
        seen.add(threading.current_thread().name)
        return threading.current_thread().name

    with ThreadPoolTaskExecutor(2) as executor:
        executor.map(record, [0, 1])
    assert all(name.startswith("repro-query") for name in seen)


def test_thread_pool_single_item_runs_inline():
    with ThreadPoolTaskExecutor(2) as executor:
        (name,) = executor.map(lambda _: threading.current_thread().name, [0])
    assert name == threading.main_thread().name


def test_task_errors_propagate():
    def boom(value):
        raise ValueError(f"bad {value}")

    with pytest.raises(ValueError):
        SerialExecutor().map(boom, [1])
    with ThreadPoolTaskExecutor(2) as executor:
        with pytest.raises(ValueError):
            executor.map(boom, [1, 2, 3])


def test_close_is_idempotent_and_pool_restarts():
    executor = ThreadPoolTaskExecutor(2)
    assert executor.map(lambda value: value + 1, [1, 2]) == [2, 3]
    executor.close()
    executor.close()
    # A closed executor lazily re-creates its pool on next use.
    assert executor.map(lambda value: value + 1, [3, 4]) == [4, 5]
    executor.close()


def test_invalid_worker_count_rejected():
    with pytest.raises(ValueError):
        ThreadPoolTaskExecutor(0)


class TestSplitIntoChunks:
    def test_contiguous_and_balanced(self):
        chunks = split_into_chunks(list(range(10)), 3)
        assert chunks == [[0, 1, 2, 3], [4, 5, 6], [7, 8, 9]]

    def test_never_produces_empty_chunks(self):
        assert split_into_chunks([1, 2], 5) == [[1], [2]]
        assert split_into_chunks([], 3) == []

    def test_flattening_restores_input_order(self):
        items = list(range(23))
        for count in (1, 2, 3, 7, 23, 40):
            flattened = [item for chunk in split_into_chunks(items, count) for item in chunk]
            assert flattened == items

    def test_invalid_chunk_count(self):
        with pytest.raises(ValueError):
            split_into_chunks([1], 0)


class TestAvailableCpuCount:
    def test_counts_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert available_cpu_count() == 3

    @pytest.mark.parametrize("reported, expected", [(6, 6), (None, 1)])
    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch, reported, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: reported)
        assert available_cpu_count() == expected


class TestProcessPool:
    def test_map_preserves_input_order(self):
        items = list(range(50))
        with ProcessPoolTaskExecutor(2) as executor:
            assert executor.map(_square, items) == [_square(value) for value in items]

    def test_results_match_serial_executor(self):
        items = list(range(17))
        with ProcessPoolTaskExecutor(3) as executor:
            assert executor.map(_square, items) == SerialExecutor().map(_square, items)

    def test_single_item_runs_inline(self):
        with ProcessPoolTaskExecutor(2) as executor:
            assert executor.map(_worker_pid, [0]) == [os.getpid()]

    def test_default_size_follows_cpu_affinity(self, monkeypatch):
        # One permitted core runs inline however many the machine has.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        with ProcessPoolTaskExecutor() as executor:
            assert executor.map(_worker_pid, list(range(10))) == [os.getpid()] * 10
            assert executor.last_chunk_sizes == []

    def test_default_pool_is_sized_to_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        with ProcessPoolTaskExecutor() as executor:
            assert executor.map(_square, list(range(10))) == [_square(value) for value in range(10)]
            assert executor.last_chunk_sizes == [4, 3, 3]
            assert executor.last_workers_used == 3
            assert executor._pool._max_workers == 3

    def test_explicit_worker_count_overrides_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        with ProcessPoolTaskExecutor(2) as executor:
            pids = executor.map(_worker_pid, list(range(10)))
            assert executor.last_chunk_sizes == [5, 5]
        assert os.getpid() not in pids

    def test_multiple_items_use_worker_processes(self):
        with ProcessPoolTaskExecutor(2) as executor:
            pids = executor.map(_worker_pid, list(range(8)))
        assert os.getpid() not in pids

    def test_task_errors_propagate(self):
        with ProcessPoolTaskExecutor(2) as executor:
            with pytest.raises(ValueError):
                executor.map(_boom, [1, 2, 3])

    def test_close_is_idempotent_and_pool_restarts(self):
        executor = ProcessPoolTaskExecutor(2)
        assert executor.map(_square, [1, 2]) == [1, 4]
        executor.close()
        executor.close()
        assert executor.map(_square, [3, 4]) == [9, 16]
        executor.close()

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            ProcessPoolTaskExecutor(0)


def test_subclass_contract():
    class Doubling(TaskExecutor):
        name = "doubling"

        def map(self, fn, items):
            return [fn(item) for item in items]

    with Doubling() as executor:
        assert executor.map(lambda value: value * 2, [1, 2]) == [2, 4]
