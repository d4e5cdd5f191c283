"""Deadline semantics: injectable clock, expiry."""

from __future__ import annotations

import pytest

from _clock import TickingClock

from repro.resilience import Deadline


class TestDeadline:
    def test_expires_exactly_at_the_budget(self):
        clock = TickingClock()
        deadline = Deadline.after_ms(100, clock)
        assert not deadline.expired()
        assert deadline.remaining() == pytest.approx(0.1)
        clock.now = 0.099
        assert not deadline.expired()
        clock.now = 0.1
        assert deadline.expired()
        assert deadline.remaining() == pytest.approx(0.0)

    def test_remaining_goes_negative_past_expiry(self):
        clock = TickingClock()
        deadline = Deadline.after_ms(50, clock)
        clock.now = 1.0
        assert deadline.remaining() < 0

    @pytest.mark.parametrize("bad", [0, -1, -0.5])
    def test_non_positive_budgets_are_rejected(self, bad):
        with pytest.raises(ValueError):
            Deadline.after_ms(bad)

