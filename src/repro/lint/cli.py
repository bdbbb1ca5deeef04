"""``python -m repro.lint``: the command-line front end.

Exit codes: 0 clean (no finding), 1 at least one finding, 2 usage or
environment error (missing path).  No finding is grandfathered: a
deliberate exception is a ``# repro: allow(<rule>)`` comment at the line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

from .engine import LintReport, lint_paths, registered_lint_rules, rule_catalog

__all__ = ["main", "build_parser", "report_payload"]

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

#: Schema version of the JSON report.
REPORT_VERSION = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Determinism & registry static analysis for this repository. "
            "Lints the given files/directories and fails on any finding."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout format (default: text)",
    )
    parser.add_argument(
        "--json-report",
        metavar="FILE",
        default=None,
        help="additionally write the JSON report to FILE (for CI artifacts)",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        default=None,
        help="directory finding paths are relative to (default: cwd)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def report_payload(report: LintReport) -> Dict[str, object]:
    """The JSON report structure (stable schema, version-stamped)."""
    return {
        "version": REPORT_VERSION,
        "summary": {
            "files": report.files,
            "findings": len(report.findings),
            "suppressed": len(report.suppressed),
            "by_rule": report.counts_by_rule,
        },
        "findings": [finding.to_dict() for finding in report.findings],
        "rules": rule_catalog(),
    }


def _print_text(report: LintReport, out) -> None:
    for finding in report.findings:
        print(finding.format(), file=out)
    print(file=out)
    print(
        f"{report.files} files, {len(report.findings)} finding(s), "
        f"{len(report.suppressed)} suppressed",
        file=out,
    )


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = sys.stdout if out is None else out
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        catalog = rule_catalog()
        if args.format == "json":
            print(json.dumps(catalog, indent=2), file=out)
        else:
            width = max(len(name) for name in registered_lint_rules())
            for name, meta in catalog.items():
                print(
                    f"{name:<{width}}  [{meta['severity']}] "
                    f"({meta['family']}) {meta['description']}",
                    file=out,
                )
        return EXIT_CLEAN

    try:
        report = lint_paths(args.paths, root=args.root)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    payload = report_payload(report)
    if args.json_report:
        Path(args.json_report).write_text(
            json.dumps(payload, indent=2) + "\n", encoding="utf-8"
        )
    if args.format == "json":
        print(json.dumps(payload, indent=2), file=out)
    else:
        _print_text(report, out)

    return EXIT_FINDINGS if report.findings else EXIT_CLEAN
