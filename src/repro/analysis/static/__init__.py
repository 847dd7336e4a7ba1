"""``repro.analysis.static`` — rule-based static analysis of the repro tree.

A multi-pass AST analyzer that *proves* the repo's reproducibility
disciplines instead of documenting them: determinism hazards (DET-*),
RNG discipline (RNG-*), lockstep-divergence hazards (DIV-*),
simulated-time accounting (ACC-*), the import-layering contract (LAY-*)
and observability discipline (OBS-*). Each hazard has one rule.

Typical use::

    python -m repro.analysis.static src/repro            # self-scan
    python -m repro.analysis.static --list-rules         # rule catalog
    python -m repro.analysis.static --sarif out.sarif    # CI upload

The gate is zero findings. A finding is silenced only inline, by a
comment naming its rule (``# repro: noqa[RULE-ID]``). See DESIGN.md §12
for the full rule catalog.
"""

from .cli import main
from .core import (
    Finding,
    FileContext,
    ProjectIndex,
    Rule,
    all_rules,
    default_target,
    get_rule,
    iter_python_files,
    register,
    rule_ids,
)
from .engine import (
    SYNTAX_RULE_ID,
    AnalysisReport,
    analyze_paths,
    finding_fingerprint,
    parse_file,
    scan_suppressions,
)
from .reporters import render_sarif, render_text

__all__ = [
    "AnalysisReport",
    "FileContext",
    "Finding",
    "ProjectIndex",
    "Rule",
    "SYNTAX_RULE_ID",
    "all_rules",
    "analyze_paths",
    "default_target",
    "finding_fingerprint",
    "get_rule",
    "iter_python_files",
    "main",
    "parse_file",
    "register",
    "render_sarif",
    "render_text",
    "rule_ids",
    "scan_suppressions",
]
