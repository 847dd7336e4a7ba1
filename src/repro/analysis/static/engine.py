"""The multi-pass analysis engine.

Pass 1 (**index**) walks the requested paths, parses every ``*.py`` into a
:class:`~repro.analysis.static.core.FileContext` and records per-line
suppressions. Pass 2 (**file rules**) runs every file-scoped rule over
every parsed file. Pass 3 (**project rules**) runs project-scoped rules
(the import-layering contract) over the whole index, so they can resolve
relative imports and see the module graph at once. Pass 4 (**triage**)
fingerprints each finding and drops the suppressed ones; every finding
left fails the scan.

Suppressions
------------

A finding is suppressed when its physical line carries::

    # repro: noqa[DET-002]    (suppresses the listed rule ids only)

There is no blanket form: every suppression names the rules it silences,
so each one stays auditable.

Fingerprints
------------

A finding's fingerprint is ``sha256(rule id | relative path | stripped
source line | occurrence ordinal)``, not a line number: inserting or
deleting unrelated lines above a violation keeps it, editing the violating
line changes it. SARIF carries it as ``partialFingerprints`` so uploads
correlate across commits.

Unparsable files are reported through the reserved engine rule ``SYN-001``
(severity error): an analyzer that silently skips what it cannot parse
would report "clean" exactly when the tree is most broken. For the same
reason a scan path that does not exist, or a scan that finds no ``*.py``
file, raises :class:`~repro.errors.AnalysisError` instead of passing.
"""

from __future__ import annotations

import ast
import hashlib
import os
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ...errors import AnalysisError
from .core import (
    Finding,
    FileContext,
    ProjectIndex,
    Rule,
    all_rules,
    iter_python_files,
)

#: Reserved rule id for unparsable files (emitted by the engine itself).
SYNTAX_RULE_ID = "SYN-001"

_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([A-Za-z0-9_\-,\s]+)\]")


@dataclass
class Suppressions:
    """Per-line suppression state of one file."""

    #: line -> the rule ids its ``# repro: noqa[...]`` comment lists.
    noqa: Dict[int, Set[str]] = field(default_factory=dict)

    def suppresses(self, finding: Finding) -> bool:
        return finding.rule_id in self.noqa.get(finding.line, ())


def scan_suppressions(source: str) -> Suppressions:
    sup = Suppressions()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(line)
        if match:
            sup.noqa[lineno] = {
                part.strip().upper() for part in match.group(1).split(",") if part.strip()
            }
    return sup


def finding_fingerprint(finding: Finding, line_text: str, ordinal: int) -> str:
    """Stable content hash for one finding (see module docstring)."""
    payload = "|".join(
        [finding.rule_id, finding.rel, line_text.strip(), str(ordinal)]
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@dataclass
class AnalysisReport:
    """Outcome of one analyzer run."""

    #: Findings that fail the scan.
    findings: List[Finding]
    #: Findings silenced by ``# repro: noqa[RULE-ID]``.
    suppressed: List[Finding]
    files_scanned: int
    rules_run: List[str]

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def parse_file(path: str, root: str) -> Tuple[Optional[FileContext], Optional[Finding]]:
    """Parse one file into a context, or a SYN-001 finding on failure."""
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
    except OSError as exc:
        return None, Finding(
            rule_id=SYNTAX_RULE_ID, path=path, rel=rel, line=0, col=0,
            message="unreadable file: %s" % exc, severity="error",
        )
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return None, Finding(
            rule_id=SYNTAX_RULE_ID, path=path, rel=rel,
            line=exc.lineno or 0, col=exc.offset or 0,
            message="syntax error: %s" % exc.msg, severity="error",
        )
    ctx = FileContext(
        path=path, root=root, rel=rel, source=source, tree=tree,
        lines=source.splitlines(),
    )
    return ctx, None


def _select_rules(
    rules: Optional[Sequence[Rule]],
    select: Optional[Sequence[str]],
    ignore: Optional[Sequence[str]],
) -> List[Rule]:
    active = list(rules) if rules is not None else all_rules()
    if select:
        wanted = {rule_id.upper() for rule_id in select}
        active = [r for r in active if r.rule_id in wanted]
    if ignore:
        dropped = {rule_id.upper() for rule_id in ignore}
        active = [r for r in active if r.rule_id not in dropped]
    return active


def analyze_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> AnalysisReport:
    """Run the full multi-pass analysis over ``paths``."""
    for path in paths:
        if not os.path.exists(path):
            raise AnalysisError("scan path does not exist: %s" % path)
    sources = list(iter_python_files(paths))
    if not sources:
        raise AnalysisError("no Python files under %s" % ", ".join(paths))

    active = _select_rules(rules, select, ignore)
    file_rules = [r for r in active if r.scope == "file"]
    project_rules = [r for r in active if r.scope == "project"]

    # Pass 1: index.
    contexts: List[FileContext] = []
    raw_findings: List[Finding] = []
    suppressions: Dict[str, Suppressions] = {}
    for path, root in sources:
        ctx, syn = parse_file(path, root)
        if syn is not None:
            if _syntax_rule_active(select, ignore):
                raw_findings.append(syn)
            continue
        contexts.append(ctx)
        suppressions[ctx.path] = scan_suppressions(ctx.source)

    # Pass 2: file-scoped rules.
    for ctx in contexts:
        for rule in file_rules:
            raw_findings.extend(rule.check_file(ctx))

    # Pass 3: project-scoped rules.
    if project_rules:
        index = ProjectIndex(files=contexts)
        for rule in project_rules:
            raw_findings.extend(rule.check_project(index))

    # Pass 4: triage (fingerprint, suppress).
    raw_findings.sort(key=Finding.sort_key)
    lines_by_path = {ctx.path: ctx.lines for ctx in contexts}
    ordinals: Dict[Tuple[str, str, str], int] = {}
    findings: List[Finding] = []
    suppressed: List[Finding] = []
    for finding in raw_findings:
        lines = lines_by_path.get(finding.path, [])
        line_text = (
            lines[finding.line - 1] if 0 < finding.line <= len(lines) else ""
        )
        key = (finding.rule_id, finding.rel, line_text.strip())
        ordinal = ordinals.get(key, 0)
        ordinals[key] = ordinal + 1
        finding.fingerprint = finding_fingerprint(finding, line_text, ordinal)

        sup = suppressions.get(finding.path)
        if sup is not None and sup.suppresses(finding):
            suppressed.append(finding)
        else:
            findings.append(finding)

    return AnalysisReport(
        findings=findings,
        suppressed=suppressed,
        files_scanned=len(contexts),
        rules_run=[r.rule_id for r in active],
    )


def _syntax_rule_active(
    select: Optional[Sequence[str]], ignore: Optional[Sequence[str]]
) -> bool:
    if select and SYNTAX_RULE_ID not in {s.upper() for s in select}:
        return False
    if ignore and SYNTAX_RULE_ID in {s.upper() for s in ignore}:
        return False
    return True
