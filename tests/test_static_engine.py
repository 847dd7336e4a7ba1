"""Engine-level tests: suppressions, fingerprints, registry invariants,
and reporter output structure."""

import json
import os
import re

from repro.analysis.static import (
    SYNTAX_RULE_ID,
    all_rules,
    analyze_paths,
    render_sarif,
    render_text,
    rule_ids,
    scan_suppressions,
)
from repro.analysis.static.core import SEVERITIES

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return path


def _analyze(tmp_path, **kwargs):
    return analyze_paths([str(tmp_path)], **kwargs)


BAD_SET_ITER = "def f(items):\n    for x in set(items):\n        pass\n"


class TestRegistry:
    def test_rule_ids_are_unique_and_well_formed(self):
        ids = rule_ids()
        assert len(ids) == len(set(ids))
        for rule_id in ids:
            assert re.match(r"^[A-Z]{3}-\d{3}$", rule_id), rule_id

    def test_every_rule_documented(self):
        for rule in all_rules():
            assert rule.summary, rule.rule_id
            assert rule.rationale, rule.rule_id
            assert rule.severity in SEVERITIES
            assert rule.scope in ("file", "project")

    def test_expected_rule_families_present(self):
        ids = set(rule_ids())
        assert {"DET-002", "DET-003", "DET-004", "DET-005"} <= ids
        assert {"RNG-101", "RNG-102", "RNG-103"} <= ids
        assert {"DIV-201", "DIV-202"} <= ids
        assert {"ACC-301", "ACC-302"} <= ids
        assert "LAY-401" in ids


class TestSuppressions:
    def test_rule_addressed_noqa(self, tmp_path):
        _write(
            tmp_path,
            "aco/bad.py",
            "def f(items):\n"
            "    for x in set(items):  # repro: noqa[DET-002]\n"
            "        pass\n",
        )
        report = _analyze(tmp_path)
        assert report.findings == []
        assert [f.rule_id for f in report.suppressed] == ["DET-002"]

    def test_blanket_noqa(self, tmp_path):
        # Only the rule-addressed form suppresses; a bare marker does not.
        _write(
            tmp_path,
            "aco/bad.py",
            "def f(items):\n"
            "    for x in set(items):  # repro: noqa\n"
            "        pass\n",
        )
        report = _analyze(tmp_path)
        assert [f.rule_id for f in report.findings] == ["DET-002"]
        assert report.suppressed == []

    def test_noqa_for_other_rule_does_not_silence(self, tmp_path):
        _write(
            tmp_path,
            "aco/bad.py",
            "def f(items):\n"
            "    for x in set(items):  # repro: noqa[DET-004]\n"
            "        pass\n",
        )
        report = _analyze(tmp_path)
        assert [f.rule_id for f in report.findings] == ["DET-002"]

    def test_scan_suppressions_parses_multiple_ids(self):
        sup = scan_suppressions("x = 1  # repro: noqa[DET-002, RNG-101]\n")
        assert sup.noqa[1] == {"DET-002", "RNG-101"}


class TestSyntaxRule:
    def test_unparsable_file_is_reported(self, tmp_path):
        _write(tmp_path, "aco/broken.py", "def f(:\n")
        report = _analyze(tmp_path)
        assert [f.rule_id for f in report.findings] == [SYNTAX_RULE_ID]
        assert report.findings[0].message.startswith("syntax error")


class TestReporters:
    def _report(self, tmp_path):
        _write(tmp_path, "aco/bad.py", BAD_SET_ITER)
        return _analyze(tmp_path)

    def test_text_lists_findings_and_summary(self, tmp_path):
        text = render_text(self._report(tmp_path))
        assert "DET-002" in text
        assert "1 finding(s)" in text

    def test_text_clean_summary(self, tmp_path):
        _write(tmp_path, "viz/ok.py", "x = 1\n")
        text = render_text(_analyze(tmp_path))
        assert "static analysis: clean" in text

    def test_sarif_structure(self, tmp_path):
        payload = json.loads(render_sarif(self._report(tmp_path)))
        assert payload["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in payload["$schema"]
        (run,) = payload["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro.analysis.static"
        declared = {r["id"] for r in driver["rules"]}
        assert set(rule_ids()) <= declared
        (result,) = run["results"]
        assert result["ruleId"] == "DET-002"
        assert result["level"] == "error"
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1
        assert result["partialFingerprints"]["reproStatic/v1"]


class TestBaseline:
    """A finding is tracked across runs by its SARIF fingerprint: code
    scanning matches each result against the previous run's results by
    ``partialFingerprints``, so the fingerprint must ignore line drift but
    change when the violating line itself changes."""

    def _sarif_fingerprints(self, tmp_path):
        payload = json.loads(render_sarif(_analyze(tmp_path)))
        return [
            r["partialFingerprints"]["reproStatic/v1"]
            for r in payload["runs"][0]["results"]
        ]

    def test_fingerprint_survives_line_drift(self, tmp_path):
        target = _write(tmp_path, "aco/bad.py", BAD_SET_ITER)
        baseline = self._sarif_fingerprints(tmp_path)
        assert len(baseline) == 1

        # Unrelated lines above the violation do not invalidate the match.
        target.write_text("import os\n\n\n" + BAD_SET_ITER)
        assert self._sarif_fingerprints(tmp_path) == baseline

    def test_editing_the_violating_line_resurfaces_it(self, tmp_path):
        target = _write(tmp_path, "aco/bad.py", BAD_SET_ITER)
        baseline = self._sarif_fingerprints(tmp_path)

        target.write_text("def f(items):\n    for x in set(list(items)):\n        pass\n")
        edited = self._sarif_fingerprints(tmp_path)
        assert len(edited) == 1
        assert not set(edited) & set(baseline)


class TestDesignCatalog:
    def test_design_rule_table_lists_exactly_the_registered_rules(self):
        """DESIGN.md §12's rule table names every rule and nothing else."""
        with open(os.path.join(REPO_ROOT, "DESIGN.md"), encoding="utf-8") as handle:
            design = handle.read()
        start = design.index("## 12.")
        section = design[start:design.index("\n## ", start + 1)]
        listed = re.findall(r"^\| `([A-Z]{3}-\d{3})` \|", section, re.MULTILINE)
        assert sorted(listed) == sorted(rule_ids() + [SYNTAX_RULE_ID])
        assert len(listed) == len(set(listed))
