"""Core model of the static analyzer: findings, rules, and the registry.

The framework is deliberately dependency-free (stdlib ``ast`` only) so the
self-scan can run in any environment that can import Python source — CI,
pre-commit, or a bare container without numpy.

Three concepts:

* a :class:`Finding` is one diagnostic at one source location, tagged with
  the stable :class:`Rule` id that produced it;
* a :class:`Rule` is a plugin checked against either one file at a time
  (``scope = "file"``) or the whole scanned tree at once
  (``scope = "project"`` — e.g. the import-layering contract);
* the registry maps stable rule ids to rule classes. Rule ids are part of
  the repo's public contract: suppressions (``# repro: noqa[DET-002]``)
  and SARIF uploads refer to them, so an id is never renamed or reused.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Type

#: Finding severities, most severe first. SARIF levels map error->error,
#: warning->warning, advice->note.
SEVERITIES: Tuple[str, ...] = ("error", "warning", "advice")

#: Package sub-paths whose code runs inside kernel/ant construction and is
#: held to the strictest determinism discipline.
KERNEL_PATHS: Tuple[str, ...] = (
    "aco", "parallel", "gpusim", "rp", "schedule", "ddg", "heuristics",
)


def dotted_name(node: ast.AST) -> str:
    """The dotted name of an attribute chain (``np.random.seed``), or ''."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return ""


@dataclass
class Finding:
    """One diagnostic: a rule firing at a source location.

    The engine fills ``fingerprint`` (see
    :func:`repro.analysis.static.engine.finding_fingerprint`) after the
    rule returns.
    """

    rule_id: str
    path: str
    rel: str
    line: int
    col: int
    message: str
    severity: str = "error"
    fingerprint: str = ""

    def __str__(self) -> str:
        return "%s:%d:%d: %s %s" % (
            self.path, self.line, self.col, self.rule_id, self.message,
        )

    def sort_key(self) -> Tuple[str, int, int, str, str]:
        return (self.rel, self.line, self.col, self.rule_id, self.message)


@dataclass
class FileContext:
    """One parsed source file, as seen by file-scoped rules."""

    #: Path as the caller spelled it (used in diagnostics).
    path: str
    #: Scan root the file was found under (anchors :attr:`rel`).
    root: str
    #: Root-relative posix path (``aco/ant.py``) — rules scope on this.
    rel: str
    source: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)

    @property
    def parts(self) -> Tuple[str, ...]:
        return tuple(self.rel.split("/"))

    @property
    def package_head(self) -> str:
        """First package segment under the scanned tree (``aco``, ``obs``).

        A scan rooted above the package (``src`` or a site-packages dir)
        yields paths like ``repro/aco/ant.py``; the synthetic heads are
        stripped so rules see the same heads either way.
        """
        parts = self.parts
        while parts and parts[0] in ("src", "repro"):
            parts = parts[1:]
        return parts[0] if len(parts) > 1 else ""

    @property
    def module_rel(self) -> str:
        """Package-relative module path (``aco/ant.py``), heads stripped."""
        parts = self.parts
        while parts and parts[0] in ("src", "repro"):
            parts = parts[1:]
        return "/".join(parts)

    @property
    def in_kernel_path(self) -> bool:
        return any(p in KERNEL_PATHS for p in self.parts)

    def finding(
        self,
        rule: "Rule",
        node: ast.AST,
        message: str,
    ) -> Finding:
        return Finding(
            rule_id=rule.rule_id,
            path=self.path,
            rel=self.rel,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=rule.severity,
        )


@dataclass
class ProjectIndex:
    """Everything the engine parsed, for project-scoped rules."""

    files: List[FileContext]


class Rule:
    """Base class for rule plugins.

    Subclasses set the class attributes and override :meth:`check_file`
    (``scope = "file"``) or :meth:`check_project` (``scope = "project"``).
    ``rule_id`` is stable forever; ``rationale`` explains *why* the checked
    property matters for the reproduction (it is shown by ``--list-rules``
    and embedded in SARIF output so review tooling can surface it).
    """

    rule_id: str = ""
    name: str = ""
    severity: str = "error"
    summary: str = ""
    rationale: str = ""
    scope: str = "file"

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        return ()

    def check_project(self, index: ProjectIndex) -> Iterable[Finding]:
        return ()


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (ids must be unique)."""
    rule_id = rule_cls.rule_id
    if not rule_id:
        raise ValueError("rule %r has no rule_id" % (rule_cls.__name__,))
    if rule_cls.severity not in SEVERITIES:
        raise ValueError(
            "rule %s severity %r not in %r"
            % (rule_id, rule_cls.severity, SEVERITIES)
        )
    existing = _REGISTRY.get(rule_id)
    if existing is not None and existing is not rule_cls:
        raise ValueError("duplicate rule id %s" % rule_id)
    _REGISTRY[rule_id] = rule_cls
    return rule_cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    _load_builtin_rules()
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]


def rule_ids() -> List[str]:
    _load_builtin_rules()
    return sorted(_REGISTRY)


def get_rule(rule_id: str) -> Optional[Type[Rule]]:
    _load_builtin_rules()
    return _REGISTRY.get(rule_id)


def _load_builtin_rules() -> None:
    """Import the builtin rule modules (idempotent; registration happens
    at import time via the :func:`register` decorator)."""
    from . import rules  # noqa: F401  (import for side effect)


def _package_root(path: str) -> str:
    """The topmost package directory holding file ``path`` (walking up
    while ``__init__.py`` exists), or the file's own directory."""
    root = os.path.dirname(os.path.abspath(path))
    while os.path.isfile(os.path.join(root, "__init__.py")):
        parent = os.path.dirname(root)
        if parent == root or not os.path.isfile(os.path.join(parent, "__init__.py")):
            break
        root = parent
    return root


def iter_python_files(paths: Iterable[str]) -> Iterator[Tuple[str, str]]:
    """Yield ``(file, root)`` pairs under each requested path.

    A directory argument anchors the relative paths of everything under
    it. A file argument is rooted at its topmost package directory, so
    its relative path, and with it every path-scoped rule, matches a scan
    of that package. Deterministic order (sorted names) so reports and
    fingerprints are byte-stable.
    """
    for path in paths:
        if os.path.isfile(path):
            yield path, _package_root(path)
        else:
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                for name in sorted(filenames):
                    if name.endswith(".py"):
                        yield os.path.join(dirpath, name), path


def default_target() -> str:
    """The installed ``repro`` package directory (the self-scan target)."""
    here = os.path.dirname(os.path.abspath(__file__))  # .../repro/analysis/static
    return os.path.dirname(os.path.dirname(here))
