"""Command line front end: ``python -m repro.analysis.static``.

Exit codes: 0 — clean (no findings); 1 — findings; 2 — usage or
configuration error (bad rule id, a scan path that does not exist, or no
Python file to scan).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ...errors import AnalysisError
from .core import all_rules, default_target, rule_ids
from .engine import SYNTAX_RULE_ID, analyze_paths
from .reporters import render_sarif, render_text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.static",
        description=(
            "Rule-based static analyzer proving determinism, RNG, "
            "divergence, accounting and layering discipline at the AST "
            "level."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to scan (default: the repro package)",
    )
    parser.add_argument(
        "--sarif",
        metavar="FILE",
        help="also write a SARIF 2.1.0 report to FILE",
    )
    parser.add_argument(
        "--select",
        action="append",
        metavar="RULE",
        help="run only these rule ids (repeatable, comma-separated ok)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        metavar="RULE",
        help="skip these rule ids (repeatable, comma-separated ok)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog (id, severity, summary, rationale)",
    )
    return parser


def _split_rule_args(values: Optional[List[str]]) -> Optional[List[str]]:
    if not values:
        return None
    out: List[str] = []
    for value in values:
        out.extend(part.strip().upper() for part in value.split(",") if part.strip())
    return out or None


def _list_rules() -> str:
    lines: List[str] = []
    for rule in all_rules():
        lines.append(
            "%s  [%s, %s scope]  %s" % (rule.rule_id, rule.severity, rule.scope, rule.summary)
        )
        lines.append("    %s" % rule.rationale)
    lines.append("%s  [error, engine]  unparsable or unreadable source file" % SYNTAX_RULE_ID)
    lines.append(
        "    An analyzer that silently skips what it cannot parse reports "
        "'clean' exactly when the tree is most broken."
    )
    return "\n".join(lines)


def _validate_rule_ids(requested: Optional[List[str]]) -> Optional[str]:
    if not requested:
        return None
    known = set(rule_ids()) | {SYNTAX_RULE_ID}
    for rule_id in requested:
        if rule_id not in known:
            return rule_id
    return None


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    select = _split_rule_args(args.select)
    ignore = _split_rule_args(args.ignore)
    for requested in (select, ignore):
        unknown = _validate_rule_ids(requested)
        if unknown is not None:
            print("error: unknown rule id %r" % unknown, file=sys.stderr)
            return 2

    try:
        report = analyze_paths(
            args.paths or [default_target()], select=select, ignore=ignore
        )
    except AnalysisError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2

    print(render_text(report))
    if args.sarif:
        with open(args.sarif, "w", encoding="utf-8") as handle:
            handle.write(render_sarif(report))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
