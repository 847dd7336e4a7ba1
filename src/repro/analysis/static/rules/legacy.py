"""``DET-001`` — the original AST determinism lint.

The repo's first determinism checker, registered as the framework's first
rule. Its historical sub-codes are preserved verbatim in each finding's
``code`` field (and message prefix):

``RNG001``  module-level ``random.*`` call in a kernel/ant path;
``RNG002``  legacy global ``numpy.random.*`` call anywhere;
``RNG003``  ``numpy.random.default_rng()`` without a seed in a kernel path;
``RNG004``  global reseeding (``random.seed`` / ``numpy.random.seed``);
``TEL001``  a telemetry module imports an RNG module;
``TEL002``  a telemetry module imports scheduler/cost state;
``TIME001`` wall-clock reads in a kernel/ant path.

``# lint: allow`` on a line still silences this rule (see the engine).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Tuple

from ..core import Finding, FileContext, Rule, dotted_name, register

#: Module-level ``random`` functions that hit the global (unseeded) RNG.
STDLIB_RNG_FUNCS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "triangular", "gauss", "normalvariate",
        "expovariate", "betavariate", "getrandbits", "vonmisesvariate",
        "paretovariate", "weibullvariate", "lognormvariate",
    }
)

#: Legacy global-state ``numpy.random`` functions.
NUMPY_RNG_FUNCS = frozenset(
    {
        "rand", "randn", "randint", "random", "random_sample", "ranf",
        "sample", "choice", "shuffle", "permutation", "uniform", "normal",
        "standard_normal", "exponential", "poisson", "beta", "binomial",
    }
)

#: Package heads telemetry must never import (scheduler/cost state).
TELEMETRY_FORBIDDEN_STATE = frozenset({"aco", "parallel", "rp", "gpusim"})
WALL_CLOCK_FUNCS = frozenset({"time", "monotonic", "perf_counter", "time_ns"})


class _LegacyChecker(ast.NodeVisitor):
    """The PR-2 determinism checker, emitting (node, subcode, message)."""

    def __init__(self, ctx: FileContext):
        self.ctx = ctx
        self.numpy_aliases = {"numpy"}
        parts = ctx.parts
        self.in_kernel_path = ctx.in_kernel_path
        self.in_telemetry = "telemetry" in parts
        self.hits: List[Tuple[ast.AST, str, str]] = []

    def _flag(self, node: ast.AST, code: str, message: str) -> None:
        self.hits.append((node, code, message))

    # -- imports -------------------------------------------------------------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "numpy":
                self.numpy_aliases.add(alias.asname or "numpy")
            if self.in_telemetry and alias.name.split(".")[0] == "random":
                self._flag(node, "TEL001", "telemetry imports the random module")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if self.in_telemetry:
            if module.split(".")[0] == "random" or module.startswith(
                "numpy.random"
            ):
                self._flag(node, "TEL001", "telemetry imports an RNG module")
            # Both absolute (repro.parallel.colony) and relative
            # (..parallel.colony, any level) spellings resolve to a head
            # package; flag the scheduler-state ones.
            base = module[len("repro."):] if module.startswith("repro.") else module
            if base.split(".")[0] in TELEMETRY_FORBIDDEN_STATE:
                self._flag(
                    node,
                    "TEL002",
                    "telemetry imports scheduler state (%s); telemetry "
                    "must observe, never steer" % (("." * node.level) + module),
                )
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        name = dotted_name(node.func)
        if name:
            head, _, tail = name.partition(".")
            # stdlib: random.<func>()
            if head == "random" and tail in STDLIB_RNG_FUNCS:
                if tail == "seed":
                    pass  # handled below as RNG004
                elif self.in_kernel_path:
                    self._flag(
                        node,
                        "RNG001",
                        "module-level random.%s() in a kernel/ant path; "
                        "draw from an injected random.Random" % tail,
                    )
            if name in ("random.seed",):
                self._flag(node, "RNG004", "global random.seed() forbidden")
            # numpy: np.random.<func>()
            parts = name.split(".")
            if len(parts) >= 3 and parts[0] in self.numpy_aliases and parts[1] == "random":
                func = parts[2]
                if func == "seed":
                    self._flag(node, "RNG004", "global numpy.random.seed() forbidden")
                elif func in NUMPY_RNG_FUNCS:
                    self._flag(
                        node,
                        "RNG002",
                        "legacy global numpy.random.%s(); use "
                        "numpy.random.default_rng(seed)" % func,
                    )
                elif (
                    func == "default_rng"
                    and self.in_kernel_path
                    and not node.args
                    and not node.keywords
                ):
                    self._flag(
                        node,
                        "RNG003",
                        "numpy.random.default_rng() without a seed in a "
                        "kernel/ant path",
                    )
            # wall clock
            if (
                self.in_kernel_path
                and head == "time"
                and tail in WALL_CLOCK_FUNCS
            ):
                self._flag(
                    node,
                    "TIME001",
                    "wall-clock time.%s() in a kernel/ant path; use the "
                    "deterministic cost models" % tail,
                )
        self.generic_visit(node)


@register
class LegacyDeterminismRule(Rule):
    rule_id = "DET-001"
    name = "legacy-determinism-lint"
    severity = "error"
    summary = (
        "Composite AST determinism lint "
        "(sub-codes RNG001-RNG004, TEL001-TEL002, TIME001)"
    )
    rationale = (
        "Bit-identical seeded schedules are the repo's headline property; "
        "one module-level random call, a global reseed, or a telemetry "
        "module peeking at scheduler state silently breaks it. These are "
        "the original PR-2 lint checks, kept under their historical "
        "sub-codes."
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        checker = _LegacyChecker(ctx)
        checker.visit(ctx.tree)
        for node, code, message in checker.hits:
            yield ctx.finding(self, node, "%s %s" % (code, message), code=code)
