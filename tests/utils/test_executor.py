"""Tests for the pluggable task executors (order contract, errors, subclassing)."""

from __future__ import annotations

import pytest

from repro.utils.executor import DelegatingExecutor, SerialExecutor, TaskExecutor

EXECUTORS = {
    "serial": SerialExecutor,
    "delegating": lambda: DelegatingExecutor(SerialExecutor()),
}


@pytest.mark.parametrize("make_executor", EXECUTORS.values(), ids=EXECUTORS.keys())
def test_map_preserves_input_order(make_executor):
    items = list(range(50))
    with make_executor() as executor:
        assert executor.map(lambda value: value * value, items) == [value * value for value in items]


@pytest.mark.parametrize("make_executor", EXECUTORS.values(), ids=EXECUTORS.keys())
def test_close_is_idempotent_and_the_executor_stays_usable(make_executor):
    executor = make_executor()
    assert executor.map(lambda value: value + 1, [1, 2]) == [2, 3]
    executor.close()
    executor.close()
    assert executor.map(lambda value: value + 1, [3, 4]) == [4, 5]


def test_task_errors_propagate():
    def boom(value):
        raise ValueError(f"bad {value}")

    with pytest.raises(ValueError):
        SerialExecutor().map(boom, [1])


def test_subclass_contract():
    class Doubling(TaskExecutor):
        name = "doubling"

        def map(self, fn, items):
            return [fn(item) for item in items]

    with Doubling() as executor:
        assert executor.map(lambda value: value * 2, [1, 2]) == [2, 4]


class _Recording(TaskExecutor):
    """An inner executor that logs what reaches it."""

    name = "recording"

    def __init__(self) -> None:
        self.calls = []
        self.closes = 0

    def map(self, fn, items):
        self.calls.append(list(items))
        return [fn(item) for item in items]

    def close(self) -> None:
        self.closes += 1


class TestDelegatingExecutor:
    def test_forwards_map_to_the_inner_executor(self):
        inner = _Recording()
        executor = DelegatingExecutor(inner)
        assert executor.map(str, [3, 1, 2]) == ["3", "1", "2"]
        assert inner.calls == [[3, 1, 2]]

    def test_close_closes_the_inner_executor(self):
        inner = _Recording()
        DelegatingExecutor(inner).close()
        assert inner.closes == 1

    def test_leaving_the_context_closes_the_inner_executor(self):
        inner = _Recording()
        with DelegatingExecutor(inner) as executor:
            executor.map(abs, [-1])
        assert inner.closes == 1

    def test_a_subclass_interposes_while_the_inner_order_holds(self):
        class Tagging(DelegatingExecutor):
            name = "tagging"

            def map(self, fn, items):
                return self.inner.map(lambda item: ("tagged", fn(item)), items)

        inner = _Recording()
        assert Tagging(inner).map(lambda value: -value, [1, 2, 3]) == [
            ("tagged", -1),
            ("tagged", -2),
            ("tagged", -3),
        ]
        assert inner.calls == [[1, 2, 3]]
