"""``LAY-401`` — the import-layering contract.

The package graph has load-bearing direction: ``gpusim`` is the device
substrate every scheduler stacks on, so it must never reach up into
``aco``/``parallel``; the observation packages (``telemetry``, ``obs``,
``profile``) must observe without steering, so they may not import
scheduler or pipeline state; ``analysis`` recertifies schedules
independently, so it must not import the engines it checks. The two-pass
driver (``aco/driver.py``) can swap its construction engines only while
these edges stay one-directional.

The contract below lists, per package head, the heads it must never
import (absolute ``repro.x`` or relative ``..x`` spellings both resolve).
A package absent from the table is unconstrained (the top-layer harness
packages: ``pipeline`` consumers, ``experiments``, ``cli``, ``bench``,
``perf``). Runs as a project-scoped pass so it sees the whole module
index at once.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..core import Finding, FileContext, ProjectIndex, Rule, dotted_name, register

_TOP = frozenset({"pipeline", "experiments", "bench", "cli", "exact", "viz"})
_SCHEDULERS = frozenset({"aco", "parallel"})
_OBSERVERS = frozenset({"obs", "telemetry", "profile"})

#: head -> heads it must never import. Kept in sync with DESIGN.md §12.
CONTRACT: Dict[str, FrozenSet[str]] = {
    # Foundation: IR imports nothing but errors.
    "ir": frozenset(
        {"aco", "parallel", "pipeline", "gpusim", "resilience", "heuristics",
         "schedule", "rp", "ddg", "machine", "suite", "analysis"}
    ) | _TOP | _OBSERVERS,
    "ddg": frozenset(
        {"aco", "parallel", "pipeline", "gpusim", "resilience", "heuristics",
         "schedule", "rp", "suite", "analysis"}
    ) | _TOP | _OBSERVERS,
    "machine": frozenset(
        {"aco", "parallel", "pipeline", "gpusim", "resilience", "heuristics",
         "schedule", "rp", "ddg", "suite", "analysis"}
    ) | _TOP | _OBSERVERS,
    "schedule": frozenset(
        {"aco", "parallel", "pipeline", "gpusim", "resilience", "heuristics",
         "rp", "suite"}
    ) | _TOP | _OBSERVERS,
    "rp": frozenset(
        {"aco", "parallel", "pipeline", "gpusim", "resilience", "heuristics",
         "suite"}
    ) | _TOP | _OBSERVERS,
    "heuristics": frozenset(
        {"aco", "parallel", "pipeline", "gpusim", "resilience", "suite"}
    ) | _TOP | _OBSERVERS,
    "suite": frozenset(
        {"aco", "parallel", "pipeline", "gpusim", "resilience", "heuristics",
         "schedule", "rp", "ddg"}
    ) | _TOP | _OBSERVERS,
    # The device substrate: schedulers stack on it, never the reverse.
    "gpusim": frozenset(
        {"aco", "parallel", "pipeline", "resilience", "heuristics",
         "schedule", "rp", "ddg", "suite", "analysis"}
    ) | _TOP,
    # Observation-only packages: observe, never steer.
    "telemetry": frozenset(
        {"gpusim", "pipeline", "resilience", "heuristics", "schedule",
         "rp", "ddg", "suite"}
    ) | _SCHEDULERS | _TOP,
    "obs": frozenset(
        {"gpusim", "pipeline", "resilience", "heuristics", "schedule",
         "rp", "ddg", "suite"}
    ) | _SCHEDULERS | _TOP,
    "profile": frozenset(
        {"gpusim", "pipeline", "resilience", "heuristics", "schedule",
         "rp", "ddg", "suite"}
    ) | _SCHEDULERS | _TOP,
    # Independent verification must not import the engines it certifies.
    "analysis": frozenset({"gpusim", "resilience", "suite"}) | _SCHEDULERS | _TOP,
    # Schedulers: sequential engine knows nothing of the parallel one.
    "aco": frozenset({"parallel", "gpusim", "suite"}) | _TOP,
    "parallel": frozenset({"suite"}) | _TOP,
    "resilience": _TOP,
    "exact": frozenset(
        {"aco", "parallel", "pipeline", "gpusim", "resilience", "suite"}
    ) | _OBSERVERS,
    "viz": frozenset(
        {"aco", "parallel", "pipeline", "gpusim", "resilience",
         "experiments", "bench", "cli"}
    ),
}


def _module_parts(ctx: FileContext) -> List[str]:
    """Synthetic absolute module parts, rooted at ``repro``."""
    rel = ctx.module_rel
    parts = rel[:-3].split("/") if rel.endswith(".py") else rel.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ["repro"] + [p for p in parts if p]


def _resolve_import(
    ctx: FileContext, node: ast.stmt
) -> Iterable[Tuple[str, str]]:
    """Yield ``(imported_head, spelled)`` for repro-internal imports."""
    module_parts = _module_parts(ctx)
    is_package = ctx.rel.endswith("__init__.py")
    package_parts = module_parts if is_package else module_parts[:-1]

    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield parts[1], alias.name
    elif isinstance(node, ast.ImportFrom):
        if node.level == 0:
            parts = (node.module or "").split(".")
            if parts and parts[0] == "repro" and len(parts) > 1:
                yield parts[1], node.module or ""
            return
        anchor = package_parts[: len(package_parts) - (node.level - 1)]
        if not anchor:
            return
        spelled_prefix = "." * node.level + (node.module or "")
        if node.module:
            target = anchor + node.module.split(".")
            if len(target) > 1 and target[0] == "repro":
                yield target[1], spelled_prefix
        else:
            # ``from . import x, y`` — each alias is its own module.
            for alias in node.names:
                target = anchor + [alias.name]
                if len(target) > 1 and target[0] == "repro":
                    yield target[1], spelled_prefix + " import " + alias.name


def _head_of(ctx: FileContext) -> Optional[str]:
    head = ctx.package_head
    return head or None


def _typing_only_imports(tree: ast.Module) -> Set[ast.stmt]:
    """Import nodes living under ``if TYPE_CHECKING:`` — exempt.

    A typing-only import creates no runtime coupling: the module is never
    loaded, so no back-edge exists in the import graph the contract
    protects. (The annotation itself is a string under
    ``from __future__ import annotations``.)
    """
    exempt: Set[ast.stmt] = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.If):
            continue
        test = node.test
        name = test.id if isinstance(test, ast.Name) else dotted_name(test)
        if name in ("TYPE_CHECKING", "typing.TYPE_CHECKING"):
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    if isinstance(sub, (ast.Import, ast.ImportFrom)):
                        exempt.add(sub)
    return exempt


@register
class ImportLayeringRule(Rule):
    rule_id = "LAY-401"
    name = "import-layering-contract"
    severity = "error"
    scope = "project"
    summary = "Package imports a head its layer contract forbids"
    rationale = (
        "gpusim is the substrate under every scheduler, the observation "
        "packages (telemetry/obs/profile) must observe without steering, "
        "and repro.analysis recertifies results independently of the "
        "engines it checks. Each of those properties is an import "
        "direction; once one back-edge lands, the driver/engine seam "
        "and the observation-neutrality guarantees rot silently. The "
        "contract table lists the forbidden edges."
    )

    def check_project(self, index: ProjectIndex) -> Iterable[Finding]:
        for ctx in index.files:
            head = _head_of(ctx)
            if head is None:
                continue
            forbidden = CONTRACT.get(head)
            if not forbidden:
                continue
            typing_only = _typing_only_imports(ctx.tree)
            for node in ast.walk(ctx.tree):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    continue
                if node in typing_only:
                    continue
                for imported_head, spelled in _resolve_import(ctx, node):
                    if imported_head == head:
                        continue
                    if imported_head in forbidden:
                        yield ctx.finding(
                            self,
                            node,
                            "%s imports %s (%r); the layering contract "
                            "forbids this edge — see DESIGN.md §12"
                            % (head, imported_head, spelled),
                        )
