"""CLI tests for ``python -m repro.analysis.static``: exit codes, the
SARIF report, rule selection, and the repo self-scan gate."""

import json
import os
import subprocess
import sys

from repro.analysis.static import default_target
from repro.analysis.static.cli import main

BAD = "def f(items):\n    for x in set(items):\n        pass\n"
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        _write(tmp_path, "viz/ok.py", "x = 1\n")
        assert main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        _write(tmp_path, "aco/bad.py", BAD)
        assert main([str(tmp_path)]) == 1
        assert "DET-002" in capsys.readouterr().out

    def test_unknown_rule_id_exits_two(self, tmp_path, capsys):
        _write(tmp_path, "viz/ok.py", "x = 1\n")
        assert main([str(tmp_path), "--select", "NOPE-999"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_missing_path_exits_two(self, tmp_path, capsys):
        # A typo'd scan path must fail the gate, not pass as "clean".
        assert main([str(tmp_path / "no-such-dir")]) == 2
        captured = capsys.readouterr()
        assert "does not exist" in captured.err
        assert "clean" not in captured.out

    def test_no_python_files_exits_two(self, tmp_path, capsys):
        (tmp_path / "README.txt").write_text("nothing to scan\n")
        assert main([str(tmp_path)]) == 2
        assert "no Python files" in capsys.readouterr().err


class TestSingleFileScan:
    def test_file_in_package_scans_like_the_package(self, tmp_path, capsys):
        # A file argument is rooted at its topmost package, so path-scoped
        # rules (DET-002 covers aco/) see the same relative path.
        for rel in ("pkg/__init__.py", "pkg/aco/__init__.py"):
            _write(tmp_path, rel, "")
        bad = _write(tmp_path, "pkg/aco/bad.py", BAD)
        assert main([str(tmp_path / "pkg")]) == 1
        package_report = capsys.readouterr().out
        assert main([str(bad)]) == 1
        file_report = capsys.readouterr().out
        assert "DET-002" in file_report
        finding_line = next(line for line in file_report.splitlines() if "DET-002" in line)
        assert finding_line in package_report

    def test_file_outside_a_package_keeps_its_directory(self, tmp_path, capsys):
        bad = _write(tmp_path, "loose/bad.py", BAD)
        assert main([str(bad)]) == 0
        assert "clean" in capsys.readouterr().out


class TestFormats:
    def test_sarif_format_and_side_file(self, tmp_path, capsys):
        _write(tmp_path, "aco/bad.py", BAD)
        sarif_path = tmp_path / "out.sarif"
        assert main([str(tmp_path), "--sarif", str(sarif_path)]) == 1
        assert "DET-002" in capsys.readouterr().out  # text still on stdout
        payload = json.loads(sarif_path.read_text())
        assert payload["version"] == "2.1.0"
        (result,) = payload["runs"][0]["results"]
        assert result["ruleId"] == "DET-002"

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("DET-002", "RNG-101", "RNG-103", "DIV-201", "ACC-301", "LAY-401", "SYN-001"):
            assert rule_id in out
        assert "DET-001" not in out  # retired


class TestRuleSelection:
    def test_select_runs_only_chosen_rule(self, tmp_path, capsys):
        _write(
            tmp_path,
            "aco/bad.py",
            "import random\nrng = random.Random(1)\n" + BAD,
        )
        assert main([str(tmp_path), "--select", "DET-002"]) == 1
        out = capsys.readouterr().out
        assert "DET-002" in out
        assert "RNG-101" not in out

    def test_ignore_drops_rule(self, tmp_path, capsys):
        _write(tmp_path, "aco/bad.py", BAD)
        assert main([str(tmp_path), "--ignore", "DET-002"]) == 0
        assert "clean" in capsys.readouterr().out


class TestSelfScan:
    def test_repo_self_scan_is_clean(self, capsys):
        """The acceptance gate: zero findings on src/repro."""
        assert main([default_target()]) == 0
        assert "clean" in capsys.readouterr().out

    def test_module_is_runnable(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.static", default_target()],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "clean" in proc.stdout
