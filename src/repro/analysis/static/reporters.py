"""Report renderers: human text and SARIF 2.1.0.

Both render the same :class:`~repro.analysis.static.engine.AnalysisReport`.
The SARIF form is deterministic (sorted findings, sorted keys) so CI
artifacts diff cleanly between runs on the same tree.
"""

from __future__ import annotations

import json
from typing import List

from .core import all_rules
from .engine import AnalysisReport

#: SARIF has no "advice"; map to its nearest level.
_SARIF_LEVELS = {"error": "error", "warning": "warning", "advice": "note"}

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(report: AnalysisReport) -> str:
    """The default terminal report: findings then a one-line summary."""
    out: List[str] = [str(finding) for finding in report.findings]
    out.append("")
    if report.findings:
        out.append(
            "%d finding(s) in %d file(s) [%d suppressed]"
            % (len(report.findings), report.files_scanned, len(report.suppressed))
        )
    else:
        out.append(
            "static analysis: clean (%d file(s), %d rule(s), %d suppressed)"
            % (report.files_scanned, len(report.rules_run), len(report.suppressed))
        )
    return "\n".join(out).lstrip("\n")


def render_sarif(report: AnalysisReport) -> str:
    """SARIF 2.1.0 with the full rule catalog in the tool descriptor.

    Only unsuppressed findings become results — matching what fails the
    scan — and each carries its fingerprint so uploads correlate across
    commits.
    """
    rules_meta = [
        {
            "id": rule.rule_id,
            "name": rule.name,
            "shortDescription": {"text": rule.summary},
            "fullDescription": {"text": rule.rationale},
            "defaultConfiguration": {"level": _SARIF_LEVELS[rule.severity]},
        }
        for rule in all_rules()
    ]
    results = [
        {
            "ruleId": finding.rule_id,
            "level": _SARIF_LEVELS.get(finding.severity, "warning"),
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": finding.rel},
                        "region": {
                            "startLine": max(finding.line, 1),
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
            "partialFingerprints": {"reproStatic/v1": finding.fingerprint},
        }
        for finding in report.findings
    ]
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro.analysis.static",
                        "informationUri": "https://example.invalid/repro",
                        "rules": rules_meta,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

