"""Core vocabulary of the invariant-analysis framework.

The repo's determinism, concurrency and drift contracts (executor-independent
tie-breaking, shard-merge identity, versioned wire envelopes, monotonic-clock
deadlines) were historically enforced only by
tests that happen to exercise the violating path.  ``repro.analysis`` turns
each contract into a *mechanical* check: a :class:`Checker` walks a file's
``ast`` and reports :class:`Finding` objects; the driver in
:mod:`repro.analysis.project` resolves path scoping and inline suppressions
and renders a report (:mod:`repro.analysis.report`).

Suppressions
------------
A finding may be silenced in place with a justified marker comment::

    risky_call()  # repro: allow[RPA001] seeded via derive_seed above

The rule list is comma-separated (``allow[RPA001,RPA004]``) and the free-text
justification is *required* — an unjustified or malformed marker is itself a
finding (rule :data:`FRAMEWORK_RULE`), as is a marker that never matched a
finding of an active rule.  Suppressions are deliberately line-scoped: they
silence exactly the construct they annotate, nothing else.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Rule id used for the framework's own diagnostics (parse failures,
#: malformed or unused suppression markers).  Not suppressible.
FRAMEWORK_RULE = "RPA000"

#: Marker syntax: ``repro: allow[RULES] justification`` after a hash, where
#: RULES is a comma-separated rule-id list.
_SUPPRESSION_RE = re.compile(r"#\s*repro:\s*allow\[(?P<rules>[^\]]*)\]\s*(?P<why>.*)$")
_RULE_ID_RE = re.compile(r"^RPA\d{3}$")


@dataclass(frozen=True)
class Finding:
    """One invariant violation, anchored to ``path:line``."""

    rule: str
    path: str  # repo-relative posix path
    line: int
    col: int
    message: str
    hint: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, object]) -> "Finding":
        return cls(
            rule=str(payload["rule"]),
            path=str(payload["path"]),
            line=int(payload["line"]),  # type: ignore[arg-type]
            col=int(payload["col"]),  # type: ignore[arg-type]
            message=str(payload["message"]),
            hint=str(payload.get("hint", "")),
        )


@dataclass
class Suppression:
    """A parsed ``# repro: allow[...]`` marker on one source line."""

    path: str
    line: int
    rules: Tuple[str, ...]
    justification: str
    used: bool = False

    def covers(self, finding: Finding) -> bool:
        return (
            finding.path == self.path
            and finding.line == self.line
            and finding.rule in self.rules
            and finding.rule != FRAMEWORK_RULE
        )


def _comment_tokens(source: str) -> Iterable[Tuple[int, int, str]]:
    """Yield ``(line, col, text)`` for every real comment token.

    Markers are recognized only in actual comments — a docstring or string
    literal that *mentions* ``# repro: allow[...]`` (this module's own docs,
    the marker regex itself) must not register as a suppression.
    """
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.start[1], token.string
    except (tokenize.TokenizeError, IndentationError):  # pragma: no cover - file already parsed
        return


def _marker_target_line(lines: Sequence[str], lineno: int, col: int) -> int:
    """Resolve which source line a marker at ``(lineno, col)`` covers.

    A trailing marker (code before the ``#``) covers its own line.  A marker
    on a standalone comment line covers the first code line after the comment
    block, so multi-line justifications can sit above the construct they
    silence (the common case for ``def``/``class`` anchors).
    """
    before = lines[lineno - 1][:col] if lineno - 1 < len(lines) else ""
    if before.strip():
        return lineno
    for offset in range(lineno, len(lines)):
        text = lines[offset].strip()
        if text and not text.startswith("#"):
            return offset + 1
    return lineno


def parse_suppressions(
    rel_path: str, source: str
) -> Tuple[List[Suppression], List[Finding]]:
    """Extract suppression markers (and malformed-marker findings) from a file."""
    suppressions: List[Suppression] = []
    problems: List[Finding] = []
    lines = source.splitlines()
    for lineno, col, text in _comment_tokens(source):
        if "repro:" not in text:
            continue
        match = _SUPPRESSION_RE.search(text)
        if match is None:
            if re.search(r"#\s*repro:\s*allow", text):
                problems.append(
                    Finding(
                        rule=FRAMEWORK_RULE,
                        path=rel_path,
                        line=lineno,
                        col=col + 1,
                        message="malformed suppression marker (expected `# repro: allow[RULE] justification`)",
                    )
                )
            continue
        rules = tuple(part.strip() for part in match.group("rules").split(",") if part.strip())
        why = match.group("why").strip()
        bad_ids = [rule for rule in rules if not _RULE_ID_RE.match(rule)]
        if not rules or bad_ids:
            problems.append(
                Finding(
                    rule=FRAMEWORK_RULE,
                    path=rel_path,
                    line=lineno,
                    col=col + match.start() + 1,
                    message=f"suppression names invalid rule ids {bad_ids or '[]'} (expected RPAnnn)",
                )
            )
            continue
        if not why:
            problems.append(
                Finding(
                    rule=FRAMEWORK_RULE,
                    path=rel_path,
                    line=lineno,
                    col=col + match.start() + 1,
                    message=f"suppression of {', '.join(rules)} has no justification text",
                    hint="every `# repro: allow[...]` must say *why* the violation is safe",
                )
            )
            continue
        target = _marker_target_line(lines, lineno, col)
        if target != lineno:
            # Standalone marker: the justification may wrap onto the following
            # comment lines of the same block.
            for offset in range(lineno, target - 1):
                text_line = lines[offset].strip()
                if not text_line.startswith("#"):
                    break
                why = f"{why} {text_line.lstrip('#').strip()}".strip()
        suppressions.append(
            Suppression(path=rel_path, line=target, rules=rules, justification=why)
        )
    return suppressions, problems


@dataclass
class FileContext:
    """Everything a checker needs about one parsed source file."""

    path: Path  # absolute
    rel: str  # repo-relative posix path
    source: str
    tree: ast.Module
    lines: Tuple[str, ...] = field(default_factory=tuple)

    @classmethod
    def load(cls, path: Path, rel: str) -> "FileContext":
        source = path.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=rel)
        return cls(path=path, rel=rel, source=source, tree=tree, lines=tuple(source.splitlines()))

    def module_name(self) -> str:
        """Dotted module path for files under ``src/`` (best effort otherwise)."""
        parts = Path(self.rel).with_suffix("").parts
        if parts and parts[0] == "src":
            parts = parts[1:]
        return ".".join(parts)


def path_matches(rel: str, pattern: str) -> bool:
    """Match a repo-relative posix path against an activation pattern.

    ``dir/**`` matches everything under ``dir`` (and the directory itself);
    anything else is a literal path or an ``fnmatch`` glob.
    """
    if pattern.endswith("/**"):
        prefix = pattern[: -len("/**")]
        return rel == prefix or rel.startswith(prefix + "/")
    return rel == pattern or fnmatchcase(rel, pattern)


class Checker:
    """Base class for one invariant rule.

    Subclasses set :attr:`rule_id` / :attr:`title` / :attr:`contract` and the
    path scope (:attr:`include` / :attr:`exclude`), then implement
    :meth:`check_file`; rules needing whole-project context (drift checks that
    compare code against a registry or document) also implement
    :meth:`finalize`, which runs once after every scoped file was checked.
    """

    rule_id: str = FRAMEWORK_RULE
    title: str = ""
    #: One-paragraph statement of the invariant the rule guards (shown by
    #: ``--list-rules`` and quoted in docs/ARCHITECTURE.md).
    contract: str = ""
    include: Tuple[str, ...] = ("src/repro/**",)
    exclude: Tuple[str, ...] = ()

    def applies_to(self, rel: str) -> bool:
        if not any(path_matches(rel, pattern) for pattern in self.include):
            return False
        return not any(path_matches(rel, pattern) for pattern in self.exclude)

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:  # pragma: no cover - interface
        return ()

    def finalize(self, project: "object") -> Iterable[Finding]:
        return ()

    def finding(
        self,
        ctx: FileContext,
        node: Optional[ast.AST],
        message: str,
        hint: str = "",
        line: Optional[int] = None,
        col: Optional[int] = None,
    ) -> Finding:
        """Build a finding anchored at ``node`` (or an explicit line/col)."""
        anchor_line = line if line is not None else getattr(node, "lineno", 1)
        anchor_col = col if col is not None else getattr(node, "col_offset", 0) + 1
        return Finding(
            rule=self.rule_id,
            path=ctx.rel,
            line=anchor_line,
            col=anchor_col,
            message=message,
            hint=hint,
        )


class ImportTracker(ast.NodeVisitor):
    """Resolve local names to the stdlib modules/members they alias.

    Rules that police ``time.time()`` / ``random.shuffle`` / ``datetime.now``
    must see through ``import time as t`` and ``from random import shuffle``.
    The tracker records, per module of interest, the local alias names bound
    to the module itself and the member names imported from it directly.
    """

    def __init__(self, modules: Sequence[str]) -> None:
        self.modules = tuple(modules)
        self.module_aliases: Dict[str, set] = {name: set() for name in self.modules}
        self.member_imports: Dict[str, Dict[str, str]] = {name: {} for name in self.modules}

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in self.module_aliases:
                self.module_aliases[root].add(alias.asname or root)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = (node.module or "").split(".")[0]
        if module in self.member_imports:
            for alias in node.names:
                self.member_imports[module][alias.asname or alias.name] = alias.name

    def scan(self, tree: ast.Module) -> "ImportTracker":
        self.visit(tree)
        return self

    def is_module(self, node: ast.AST, module: str) -> bool:
        return isinstance(node, ast.Name) and node.id in self.module_aliases.get(module, ())

    def member_origin(self, name: str, module: str) -> Optional[str]:
        return self.member_imports.get(module, {}).get(name)
