"""FaultPlan schedules and the injector."""

from __future__ import annotations

import json

import pytest

from repro.errors import InjectedFaultError
from repro.resilience import FaultInjector, FaultPlan, FaultSpec, load_fault_plan


class TestFaultSpecSelectors:
    def test_all_matches_every_call(self):
        spec = FaultSpec(key="shard-0", kind="error")
        assert all(spec.matches("shard-0", index, seed=0) for index in range(5))

    def test_key_must_match_unless_wildcard(self):
        spec = FaultSpec(key="shard-0", kind="error")
        assert not spec.matches("shard-1", 0, seed=0)
        wildcard = FaultSpec(key="*", kind="error")
        assert wildcard.matches("shard-1", 0, seed=0)
        assert wildcard.matches("task-9", 3, seed=0)

    def test_explicit_index_list(self):
        spec = FaultSpec(key="k", kind="error", calls=[0, 2])
        hits = [index for index in range(5) if spec.matches("k", index, seed=0)]
        assert hits == [0, 2]

    def test_every_with_offset_selects_a_residue_class(self):
        spec = FaultSpec(key="k", kind="delay", delay_ms=1, calls={"every": 2, "offset": 1})
        hits = [index for index in range(6) if spec.matches("k", index, seed=0)]
        assert hits == [1, 3, 5]

    def test_first_n_selects_a_prefix(self):
        spec = FaultSpec(key="k", kind="error", calls={"first": 2})
        hits = [index for index in range(5) if spec.matches("k", index, seed=0)]
        assert hits == [0, 1]

    def test_probability_is_a_seeded_coin(self):
        spec = FaultSpec(key="k", kind="error", probability=0.5)
        first = [spec.matches("k", index, seed=7) for index in range(50)]
        second = [spec.matches("k", index, seed=7) for index in range(50)]
        assert first == second  # replays exactly
        assert any(first) and not all(first)  # and actually flips
        other_seed = [spec.matches("k", index, seed=8) for index in range(50)]
        assert first != other_seed

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kind": "explode"},
            {"kind": "delay", "delay_ms": -1},
            {"kind": "error", "probability": 1.5},
            {"kind": "error", "calls": {"every": 0}},
            {"kind": "error", "calls": {"every": 2, "offset": 2}},
            {"kind": "error", "calls": {"first": 0}},
            {"kind": "error", "calls": "some"},
        ],
    )
    def test_invalid_specs_are_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(key="k", **kwargs)


class TestPlanSerialisation:
    def plan(self):
        return FaultPlan(
            specs=(
                FaultSpec(key="shard-0", kind="error", message="boom", calls={"first": 1}),
                FaultSpec(key="shard-1", kind="delay", delay_ms=100.0, calls={"every": 2}),
                FaultSpec(key="*", kind="hang", probability=0.25),
            ),
            seed=13,
            hang_ms=500.0,
        )

    def test_round_trips_through_json(self):
        plan = self.plan()
        clone = FaultPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
        assert clone == plan

    def test_first_match_wins(self):
        plan = FaultPlan(
            specs=(
                FaultSpec(key="shard-0", kind="error", calls={"first": 1}),
                FaultSpec(key="shard-0", kind="delay", delay_ms=5.0),
            )
        )
        assert plan.fault_for("shard-0", 0).kind == "error"
        assert plan.fault_for("shard-0", 1).kind == "delay"
        assert plan.fault_for("shard-9", 0) is None

    def test_unknown_fields_are_rejected(self):
        with pytest.raises(ValueError, match="unknown fault plan fields"):
            FaultPlan.from_dict({"specs": [], "surprise": 1})
        with pytest.raises(ValueError, match="unknown fault spec fields"):
            FaultPlan.from_dict({"specs": [{"key": "k", "kind": "error", "extra": 1}]})

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(self.plan().to_dict()), encoding="utf-8")
        assert load_fault_plan(path) == self.plan()

    def test_load_failures_become_value_errors(self, tmp_path):
        with pytest.raises(ValueError, match="cannot load fault plan"):
            load_fault_plan(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ValueError, match="cannot load fault plan"):
            load_fault_plan(bad)


class TestFaultInjector:
    def test_error_faults_raise_before_the_function_runs(self):
        plan = FaultPlan(specs=(FaultSpec(key="k", kind="error", calls={"first": 1}),))
        injector = FaultInjector(plan)
        ran = []
        with pytest.raises(InjectedFaultError):
            injector.call("k", ran.append, "a")
        assert ran == []  # the call boundary held: no partial execution
        assert injector.call("k", lambda value: value, "b") == "b"
        assert injector.injected == {"error": 1}

    def test_delay_faults_sleep_then_run(self):
        plan = FaultPlan(specs=(FaultSpec(key="k", kind="delay", delay_ms=250.0),))
        naps = []
        injector = FaultInjector(plan, sleep=naps.append)
        assert injector.call("k", lambda: "done") == "done"
        assert naps == [0.25]
        assert injector.injected == {"delay": 1}

    def test_hang_faults_sleep_for_the_plan_bound(self):
        plan = FaultPlan(specs=(FaultSpec(key="k", kind="hang"),), hang_ms=1000.0)
        naps = []
        injector = FaultInjector(plan, sleep=naps.append)
        injector.call("k", lambda: None)
        assert naps == [1.0]

    def test_call_counters_are_per_key(self):
        plan = FaultPlan(specs=(FaultSpec(key="*", kind="error", calls=[1]),))
        injector = FaultInjector(plan)
        assert injector.call("a", lambda: "ok") == "ok"  # a#0
        assert injector.call("b", lambda: "ok") == "ok"  # b#0
        with pytest.raises(InjectedFaultError):
            injector.call("a", lambda: "ok")  # a#1
