"""The analysis engine: module parsing, rule registry, suppressions.

The engine is deliberately stdlib-only (``ast`` + ``re``): it parses every
Python file once into a :class:`ModuleInfo` (source, tree, parent links, an
import-alias map and the ``# repro: allow(...)`` suppression table) and
hands the modules to every registered :class:`LintRule`.

Rules register through the same :class:`~repro._registry.NameRegistry`
machinery as every other plug-in point in this codebase -- the linter
dogfoods the registry contract it enforces.  A rule checks either single
modules (:meth:`LintRule.check_module`) or the whole project at once
(:meth:`LintRule.check_project`, e.g. cross-file duplicate registration
names).

Suppressions: a finding is dropped when the physical line it points at, or
the line directly above it, carries ``# repro: allow(<rule>)`` (several
rules may be listed, comma-separated).  Suppressed findings are still
counted in the report so a suppression-heavy file remains visible.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from .._registry import NameRegistry
from .findings import ERROR, Finding

__all__ = [
    "ModuleInfo",
    "ProjectInfo",
    "LintRule",
    "LintReport",
    "register_lint_rule",
    "registered_lint_rules",
    "default_rules",
    "iter_python_files",
    "parse_module",
    "lint_modules",
    "lint_paths",
    "lint_source",
]

#: Pseudo-rule name used for files the engine cannot parse at all.
SYNTAX_ERROR_RULE = "syntax-error"

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(\s*([\w\-\s,]*?)\s*\)")


def _suppression_table(lines: Sequence[str]) -> Dict[int, FrozenSet[str]]:
    """1-based line -> rule names allowed on (or just below) that line."""
    table: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _ALLOW_RE.search(line)
        if match is None:
            continue
        names = frozenset(
            name.strip() for name in match.group(1).split(",") if name.strip()
        )
        if names:
            table[lineno] = names
    return table


def _import_map(tree: ast.Module) -> Dict[str, str]:
    """Local name -> canonical dotted origin for every import binding.

    ``import random`` maps ``random -> random``; ``import a.b as c`` maps
    ``c -> a.b``; ``from time import time as now`` maps ``now ->
    time.time``.  Relative imports keep their leading dots, so rules that
    match on the final segments work regardless of package depth.
    """
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    imports[root] = root
        elif isinstance(node, ast.ImportFrom):
            prefix = "." * node.level + (node.module or "")
            for alias in node.names:
                origin = f"{prefix}.{alias.name}" if prefix else alias.name
                imports[alias.asname or alias.name] = origin
    return imports


class ModuleInfo:
    """One parsed source file plus the per-file indexes the rules share."""

    def __init__(self, relpath: str, source: str, tree: ast.Module) -> None:
        self.relpath = relpath
        self.source = source
        self.lines: List[str] = source.splitlines()
        self.tree = tree
        self.imports = _import_map(tree)
        self.suppressions = _suppression_table(self.lines)
        self._parents: Dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    # ------------------------------------------------------------------
    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterable[Tuple[ast.AST, ast.AST]]:
        """(parent, child) pairs climbing from ``node`` to the module."""
        child = node
        parent = self._parents.get(child)
        while parent is not None:
            yield parent, child
            child, parent = parent, self._parents.get(parent)

    def qualname(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a Name/Attribute chain, or ``None``.

        Names resolve through the import map, so ``rnd.random`` with
        ``import random as rnd`` yields ``random.random``.  Unimported bare
        names resolve to themselves (how builtins like ``hash`` appear).
        """
        if isinstance(node, ast.Name):
            return self.imports.get(node.id, node.id)
        if isinstance(node, ast.Attribute):
            base = self.qualname(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def is_suppressed(self, finding: Finding) -> bool:
        for lineno in (finding.line, finding.line - 1):
            allowed = self.suppressions.get(lineno)
            if allowed and finding.rule in allowed:
                return True
        return False


@dataclass
class ProjectInfo:
    """Every successfully parsed module of one lint invocation."""

    modules: List[ModuleInfo] = field(default_factory=list)

    def by_relpath(self) -> Dict[str, ModuleInfo]:
        return {module.relpath: module for module in self.modules}


class LintRule:
    """Base class for every lint rule.

    Subclasses set :attr:`name` (kebab-case, also the suppression token),
    :attr:`severity`, :attr:`family` (``"determinism"`` or ``"registry"``)
    and :attr:`description`, then implement :meth:`check_module` and/or
    :meth:`check_project`.
    """

    name: str = ""
    severity: str = ERROR
    family: str = ""
    description: str = ""

    def check_module(self, module: ModuleInfo) -> Iterable[Finding]:
        return ()

    def check_project(self, project: ProjectInfo) -> Iterable[Finding]:
        return ()

    # ------------------------------------------------------------------
    def finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=self.name,
            severity=self.severity,
            message=message,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.name!r}>"


# ----------------------------------------------------------------------
# the rule registry
# ----------------------------------------------------------------------
_RULES = NameRegistry("lint rule", plural="rules")


def register_lint_rule(cls):
    """Class decorator registering a :class:`LintRule` under ``cls.name``."""
    if not getattr(cls, "name", ""):
        raise ValueError(f"lint rule {cls!r} must define a non-empty name")
    _RULES.register(cls.name)(cls)
    return cls


def registered_lint_rules() -> Tuple[str, ...]:
    """Every registered rule name, sorted (built-ins load on first use)."""
    _ensure_builtins()
    return _RULES.names()


def default_rules() -> List[LintRule]:
    """One instance of every registered rule, in sorted-name order."""
    _ensure_builtins()
    return [_RULES.make(name) for name in _RULES.names()]


def rule_catalog() -> Dict[str, Dict[str, str]]:
    """Rule metadata keyed by name (for ``--list-rules`` and JSON output)."""
    return {
        rule.name: {
            "severity": rule.severity,
            "family": rule.family,
            "description": rule.description,
        }
        for rule in default_rules()
    }


def _ensure_builtins() -> None:
    """Import the modules that register the built-in rules (deferred
    because those modules import this one)."""
    from . import determinism, registry_rules  # noqa: F401  (side effect)


# ----------------------------------------------------------------------
# running
# ----------------------------------------------------------------------
@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: List[Finding]
    suppressed: List[Finding]
    files: int

    @property
    def counts_by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return dict(sorted(counts.items()))


def iter_python_files(paths: Sequence[Union[str, Path]]) -> List[Path]:
    """Every ``*.py`` file under ``paths`` (files pass through), sorted.

    Hidden directories and ``__pycache__`` are skipped.  A missing path is
    an error: a CI job silently linting nothing must not look green.
    """
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_file():
            files.append(path)
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                parts = candidate.relative_to(path).parts
                if any(part.startswith(".") or part == "__pycache__" for part in parts):
                    continue
                files.append(candidate)
        else:
            raise FileNotFoundError(f"lint target does not exist: {path}")
    # De-duplicate while preserving the sorted-per-argument order.
    unique: List[Path] = []
    seen = set()
    for path in files:
        key = str(path)
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def _relpath(path: Path, root: Optional[Path]) -> str:
    if root is not None:
        try:
            return path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.as_posix()


def parse_module(
    source: str, relpath: str
) -> Tuple[Optional[ModuleInfo], Optional[Finding]]:
    """Parse one file; returns ``(module, None)`` or ``(None, finding)``."""
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        return None, Finding(
            path=relpath,
            line=exc.lineno or 1,
            col=exc.offset or 1,
            rule=SYNTAX_ERROR_RULE,
            severity=ERROR,
            message=f"file does not parse: {exc.msg}",
        )
    return ModuleInfo(relpath, source, tree), None


def lint_modules(
    modules: Sequence[ModuleInfo], rules: Optional[Sequence[LintRule]] = None
) -> LintReport:
    """Run ``rules`` (default: all registered) over parsed modules."""
    if rules is None:
        rules = default_rules()
    project = ProjectInfo(list(modules))
    raw: List[Finding] = []
    for rule in rules:
        for module in modules:
            raw.extend(rule.check_module(module))
        raw.extend(rule.check_project(project))
    by_path = project.by_relpath()
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in raw:
        module = by_path.get(finding.path)
        if module is not None and module.is_suppressed(finding):
            suppressed.append(finding)
        else:
            findings.append(finding)
    findings.sort(key=lambda f: f.sort_key)
    suppressed.sort(key=lambda f: f.sort_key)
    return LintReport(findings=findings, suppressed=suppressed, files=len(modules))


def lint_paths(
    paths: Sequence[Union[str, Path]],
    *,
    root: Optional[Union[str, Path]] = None,
    rules: Optional[Sequence[LintRule]] = None,
) -> LintReport:
    """Lint every Python file under ``paths``.

    ``root`` (default: the current working directory) is what finding paths
    are made relative to.
    """
    root_path = Path(root) if root is not None else Path.cwd()
    modules: List[ModuleInfo] = []
    parse_failures: List[Finding] = []
    for path in iter_python_files(paths):
        relpath = _relpath(path, root_path)
        module, failure = parse_module(path.read_text(encoding="utf-8"), relpath)
        if failure is not None:
            parse_failures.append(failure)
        else:
            assert module is not None
            modules.append(module)
    report = lint_modules(modules, rules)
    report.findings = sorted(
        report.findings + parse_failures, key=lambda f: f.sort_key
    )
    report.files += len(parse_failures)
    return report


def lint_source(
    source: str,
    path: str = "<snippet>",
    rules: Optional[Sequence[LintRule]] = None,
) -> List[Finding]:
    """Lint one in-memory source string (tests, doc snippets, REPL).

    Runs the same rules as :func:`lint_paths`, with ``path`` standing in
    for the file location (path-scoped rules such as ``environ-read`` key
    off it).
    """
    module, failure = parse_module(source, path)
    if failure is not None:
        return [failure]
    assert module is not None
    return lint_modules([module], rules).findings
