"""The rule battery: one module per invariant, registered here."""

from __future__ import annotations

from typing import Dict, List, Type

from repro.analysis.core import Checker
from repro.analysis.rules.async_hygiene import AsyncHygieneChecker
from repro.analysis.rules.counter_glossary import CounterGlossaryChecker
from repro.analysis.rules.determinism import DeterminismChecker
from repro.analysis.rules.hash_order import HashOrderChecker
from repro.analysis.rules.wire_drift import WireDriftChecker

#: Every registered rule, in id order.  New rules (generation-swap and
#: recluster invariants for ROADMAP items 3/5) register here.
CHECKER_CLASSES: List[Type[Checker]] = [
    DeterminismChecker,
    HashOrderChecker,
    AsyncHygieneChecker,
    CounterGlossaryChecker,
    WireDriftChecker,
]


def default_checkers() -> List[Checker]:
    """Fresh checker instances (checkers hold per-run state)."""
    return [cls() for cls in CHECKER_CLASSES]


def rules_by_id() -> Dict[str, Type[Checker]]:
    return {cls.rule_id: cls for cls in CHECKER_CLASSES}


__all__ = [
    "CHECKER_CLASSES",
    "default_checkers",
    "rules_by_id",
]
