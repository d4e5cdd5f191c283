"""Invariant analysis: AST lints that enforce the repo's contracts at CI time.

Seven PRs of growth layered bit-identity contracts on the paper pipeline —
executor-independent tie-breaking, shard-merge identity, versioned wire
envelopes, monotonic-clock deadlines.  Tests enforce those contracts only
when they happen to exercise the violating path; this package enforces them
*mechanically*, on every file, at CI time (RPA003, the retired pickle-boundary
audit, keeps its number unused):

=========  ==================================================================
RPA001     determinism — no wall clock / unseeded randomness outside
           ``utils/rng.py`` and ``resilience/``
RPA002     hash-order dependence — no bare set / ``.keys()`` iteration on
           ranking, signature or wire paths (``mapping/``, ``shard/``, ``api/``)
RPA004     async hygiene — no blocking calls in ``api/`` async bodies, no
           sync lock held across an ``await``
RPA005     counter-glossary drift — ``counters.increment``/``set`` literals
           ↔ docs/ARCHITECTURE.md counter glossary, both directions
RPA006     wire-envelope drift — v1 ``to_wire``/``from_wire`` key sets match
           their envelope dataclass fields
=========  ==================================================================

Run ``python -m repro.analysis`` from the repo root (``--format json`` for
the CI artifact; nonzero exit on findings).  Violations are silenced in
place with ``# repro: allow[RPAnnn] justification`` — the justification is
mandatory and unused markers are themselves findings.
"""

from repro.analysis.core import (
    FRAMEWORK_RULE,
    Checker,
    FileContext,
    Finding,
    Suppression,
    parse_suppressions,
    path_matches,
)
from repro.analysis.project import (
    DEFAULT_EXCLUDES,
    DEFAULT_SCAN_ROOTS,
    AnalysisConfig,
    AnalysisProject,
    run_analysis,
)
from repro.analysis.report import REPORT_SCHEMA_VERSION, Report, report_from_json
from repro.analysis.rules import CHECKER_CLASSES, default_checkers, rules_by_id

__all__ = [
    "FRAMEWORK_RULE",
    "Checker",
    "FileContext",
    "Finding",
    "Suppression",
    "parse_suppressions",
    "path_matches",
    "DEFAULT_EXCLUDES",
    "DEFAULT_SCAN_ROOTS",
    "AnalysisConfig",
    "AnalysisProject",
    "run_analysis",
    "REPORT_SCHEMA_VERSION",
    "Report",
    "report_from_json",
    "CHECKER_CLASSES",
    "default_checkers",
    "rules_by_id",
]
