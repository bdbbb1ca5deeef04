"""Finding objects emitted by the lint rules.

A :class:`Finding` is one rule violation at one source location.  Findings
are plain frozen data so reports sort, compare and serialise trivially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

__all__ = ["ERROR", "WARNING", "SEVERITIES", "Finding"]

#: Per-rule severities.  Both gate the CI lint job (a finding of either
#: severity fails the run); the split exists so reports can rank
#: hard determinism breaks above style-of-the-house advisories.
ERROR = "error"
WARNING = "warning"
SEVERITIES = (ERROR, WARNING)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    #: Path as linted (repo-relative POSIX form for on-disk files).
    path: str
    #: 1-based line of the offending node.
    line: int
    #: 1-based column of the offending node.
    col: int
    #: Registered rule name (also the token for ``# repro: allow(<rule>)``).
    rule: str
    severity: str
    message: str

    @property
    def sort_key(self):
        return (self.path, self.line, self.col, self.rule, self.message)

    def format(self) -> str:
        """The classic compiler-style one-liner."""
        return f"{self.path}:{self.line}:{self.col}: [{self.severity}] {self.rule}: {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }
