"""``repro.analysis.static`` — rule-based static analysis of the repro tree.

A multi-pass AST analyzer that *proves* the repo's reproducibility
disciplines instead of documenting them: determinism hazards (DET-*),
RNG stream discipline (RNG-*), lockstep-divergence hazards (DIV-*),
simulated-time accounting (ACC-*), and the import-layering contract
(LAY-*). The original AST determinism lint is composite rule ``DET-001``.

Typical use::

    python -m repro.analysis.static src/repro            # self-scan
    python -m repro.analysis.static --list-rules         # rule catalog
    python -m repro.analysis.static --format sarif ...   # CI upload

Findings are silenced either inline (``# repro: noqa[RULE-ID]``) or via
the committed baseline file (``.repro-static-baseline.json``), which CI
only ever lets shrink. See DESIGN.md §13 for the full rule catalog.
"""

from .baseline import (
    BASELINE_FILENAME,
    Baseline,
    BaselineEntry,
    assert_shrunk,
    discover_baseline,
    finding_fingerprint,
)
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
    parse_file,
    scan_suppressions,
)
from .reporters import render_json, render_sarif, render_text

__all__ = [
    "AnalysisReport",
    "BASELINE_FILENAME",
    "Baseline",
    "BaselineEntry",
    "FileContext",
    "Finding",
    "ProjectIndex",
    "Rule",
    "SYNTAX_RULE_ID",
    "all_rules",
    "analyze_paths",
    "assert_shrunk",
    "default_target",
    "discover_baseline",
    "finding_fingerprint",
    "get_rule",
    "iter_python_files",
    "main",
    "parse_file",
    "register",
    "render_json",
    "render_sarif",
    "render_text",
    "rule_ids",
    "scan_suppressions",
]
