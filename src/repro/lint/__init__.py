"""repro.lint: determinism & registry static analysis for this codebase.

A stdlib-``ast`` lint pass that turns the repository's reproducibility
contract (see ``docs/DETERMINISM.md``) into a CI gate.  Two rule families:

* **determinism** -- unseeded global RNG, wall-clock reads, salted builtin
  ``hash()`` (the house rule is ``zlib.crc32``), ``id()``-based ordering,
  iteration over set expressions feeding order-sensitive sinks, and
  ``os.environ`` reads outside the experiment/benchmark layers.
* **registry** -- spawn-safety of the plug-in registries: module-level
  factories only, frozen picklable spec dataclasses, unique names per
  registry family, registrations executed at import time.

Run ``python -m repro.lint src/ examples/`` from the repo root; any finding
fails it.  Suppress an individual finding with a
``# repro: allow(<rule>)`` comment on (or directly above) the line.
"""

from .cli import main
from .engine import (
    LintReport,
    LintRule,
    ModuleInfo,
    ProjectInfo,
    default_rules,
    lint_paths,
    lint_source,
    register_lint_rule,
    registered_lint_rules,
    rule_catalog,
)
from .findings import ERROR, SEVERITIES, WARNING, Finding

__all__ = [
    "ERROR",
    "WARNING",
    "SEVERITIES",
    "Finding",
    "LintRule",
    "LintReport",
    "ModuleInfo",
    "ProjectInfo",
    "register_lint_rule",
    "registered_lint_rules",
    "default_rules",
    "rule_catalog",
    "lint_paths",
    "lint_source",
    "main",
]
