"""The ``python -m repro.lint`` front end: exit codes, text/JSON output.

The acceptance scenario from the issue is tested end-to-end: seeding a
known violation (``random.random()`` in a ``sim/`` file) into a scratch
tree makes the CLI exit non-zero and name the rule and line in both text
and JSON output.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.cli import EXIT_CLEAN, EXIT_FINDINGS, EXIT_USAGE, REPORT_VERSION, main

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def violation_tree(tmp_path):
    """A scratch tree holding one known violation in sim/."""
    sim = tmp_path / "sim"
    sim.mkdir()
    (sim / "clean.py").write_text("import random\nrng = random.Random(7)\n")
    (sim / "bad.py").write_text(
        "import random\n\n\ndef jitter():\n    return random.random()\n"
    )
    return tmp_path


def run_main(*argv):
    out = io.StringIO()
    code = main([str(a) for a in argv], out=out)
    return code, out.getvalue()


# ----------------------------------------------------------------------
# exit codes
# ----------------------------------------------------------------------
def test_clean_tree_exits_zero(tmp_path):
    (tmp_path / "ok.py").write_text("import random\nrng = random.Random(0)\n")
    code, _ = run_main(tmp_path, "--root", tmp_path)
    assert code == EXIT_CLEAN


def test_violation_exits_nonzero_with_rule_and_line_in_text(violation_tree):
    code, output = run_main(violation_tree, "--root", violation_tree)
    assert code == EXIT_FINDINGS
    assert "sim/bad.py:5:" in output
    assert "unseeded-random" in output


def test_violation_named_in_json(violation_tree):
    code, output = run_main(
        violation_tree, "--root", violation_tree, "--format", "json"
    )
    assert code == EXIT_FINDINGS
    payload = json.loads(output)
    assert payload["version"] == REPORT_VERSION
    assert payload["summary"]["findings"] == 1
    (finding,) = payload["findings"]
    assert finding["rule"] == "unseeded-random"
    assert finding["line"] == 5
    assert finding["path"] == "sim/bad.py"
    assert "unseeded-random" in payload["rules"]


def test_missing_path_is_usage_error(tmp_path):
    code, _ = run_main(tmp_path / "does-not-exist")
    assert code == EXIT_USAGE


# ----------------------------------------------------------------------
# report artifact + misc
# ----------------------------------------------------------------------
def test_json_report_written_alongside_text(violation_tree, tmp_path):
    report_file = tmp_path / "lint-report.json"
    code, output = run_main(
        violation_tree,
        "--root", violation_tree,
        "--json-report", report_file,
    )
    assert code == EXIT_FINDINGS
    assert "unseeded-random" in output  # stdout stays text
    payload = json.loads(report_file.read_text())
    assert payload["summary"]["findings"] == 1
    assert payload["findings"][0]["rule"] == "unseeded-random"


def test_list_rules(capsys):
    code, output = run_main("--list-rules")
    assert code == EXIT_CLEAN
    assert "unseeded-random" in output
    assert "registry-factory-module-level" in output


def test_module_entry_point_runs(violation_tree):
    """``python -m repro.lint`` works end-to-end as a subprocess."""
    result = subprocess.run(
        [
            sys.executable, "-m", "repro.lint",
            str(violation_tree), "--root", str(violation_tree),
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == EXIT_FINDINGS
    assert "unseeded-random" in result.stdout
