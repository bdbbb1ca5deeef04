"""The lint baseline of the repository itself is empty by construction.

There is no baseline file: no finding is grandfathered, so the tree CI
lints (``src/`` and ``examples/``) must produce zero findings, and the
registry (spawn-safety) rules admit no exception at all, not even a
``# repro: allow(<rule>)`` suppression.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint import lint_paths

REPO_ROOT = Path(__file__).resolve().parents[2]
LINTED = [REPO_ROOT / "src", REPO_ROOT / "examples"]


def test_committed_baseline_matches_src_exactly():
    """A new finding fails the lint job until it is fixed or suppressed
    with a ``# repro: allow(<rule>)`` comment at the line."""
    assert not (REPO_ROOT / ".repro-lint-baseline.json").exists()
    report = lint_paths(LINTED, root=REPO_ROOT)
    assert report.findings == [], "findings:\n" + "\n".join(
        f.format() for f in report.findings
    )


def test_registry_rules_have_zero_baselined_exceptions():
    """The spawn-safety contract admits no exceptions, suppressed or not."""
    report = lint_paths(LINTED, root=REPO_ROOT)
    registry = [
        f for f in report.findings + report.suppressed if f.rule.startswith("registry-")
    ]
    assert registry == [], "\n".join(f.format() for f in registry)
