"""``DET-002`` … ``DET-005`` — determinism hazards.

The sequential and parallel schedulers must replay bit-for-bit from a
seed, across backends, shards, and fault retries. The hazard classes
(global RNG state is the RNG family's, ``RNG-103``):

* **unordered iteration** (``DET-002``): iterating a ``set`` in a
  kernel/ant path makes downstream decisions depend on hash order — for
  strings that order changes per process (hash randomization), the exact
  failure mode that makes parallel ACO runs "work on my machine";
* **environment reads** (``DET-003``): the process environment consulted
  anywhere in the library creates hidden inputs the seed does not capture, so
  two runs with equal seeds can diverge because a shell exported a var;
* **wall-clock reads** (``DET-004``): ``datetime.now()`` and friends
  anywhere in the library leak real time into outputs that must be
  byte-stable (bench fingerprints, baselines, goldens), and
  ``time.time()`` and friends in a kernel/ant path let real time steer
  scheduling decisions the cost models must own;
* **unordered merges** (``DET-005``): a function named like
  ``merge``/``reduce``/``combine`` iterating an unordered collection —
  the exact hazard class that would silently break the fleet layer's
  bit-identical shard merge, so it is policed everywhere, not just in
  kernel paths.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator

from ..core import Finding, FileContext, Rule, dotted_name, register


def _iteration_sites(tree: ast.AST) -> Iterator[ast.expr]:
    """Every expression something iterates over: for-loops, comprehensions."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.For, ast.AsyncFor)):
            yield node.iter
        elif isinstance(node, ast.comprehension):
            yield node.iter


def _is_set_expression(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        return name.split(".")[-1] in ("set", "frozenset")
    return False


@register
class UnorderedIterationRule(Rule):
    rule_id = "DET-002"
    name = "unordered-set-iteration"
    severity = "error"
    summary = "Iteration over a set in a kernel/ant path"
    rationale = (
        "Set iteration order follows hash order; for str keys it changes "
        "per process under hash randomization. Any scheduling or RNG "
        "decision fed by such a loop breaks seeded replay across "
        "processes, shards and retries. Use sorted(...) or "
        "dict.fromkeys(...) (insertion-ordered dedup) instead."
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not ctx.in_kernel_path:
            return
        for iter_expr in _iteration_sites(ctx.tree):
            if _is_set_expression(iter_expr):
                yield ctx.finding(
                    self,
                    iter_expr,
                    "iteration over a set in a kernel/ant path; order is "
                    "hash-dependent — use sorted(...) or dict.fromkeys(...)",
                )


@register
class EnvironmentReadRule(Rule):
    rule_id = "DET-003"
    name = "environment-read"
    severity = "warning"
    summary = "Environment read in the library"
    rationale = (
        "Environment variables are inputs the seed does not capture. "
        "Every runtime knob is a command-line flag or a repro.config "
        "field (or a documented gateway carrying an explicit "
        "suppression); environment reads make a run's behaviour depend on "
        "shell state that no fingerprint or checkpoint records."
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name in ("os.getenv", "os.environ.get", "os.environb.get"):
                    yield ctx.finding(
                        self,
                        node,
                        "%s() in the library; take the knob as a flag or a "
                        "repro.config field, or mark a documented gateway"
                        % name,
                    )
            elif isinstance(node, ast.Subscript) and isinstance(
                node.ctx, ast.Load
            ):
                name = dotted_name(node.value)
                if name in ("os.environ", "os.environb"):
                    yield ctx.finding(
                        self,
                        node,
                        "%s[...] read in the library; take the knob as a "
                        "flag or a repro.config field, or mark a documented "
                        "gateway" % name,
                    )


_WALL_CLOCK_TAILS = frozenset({"now", "utcnow", "today"})
_WALL_CLOCK_HEADS = frozenset({"datetime", "date"})
_CLOCK_READS = frozenset({"time", "monotonic", "perf_counter", "time_ns"})


@register
class WallClockReadRule(Rule):
    rule_id = "DET-004"
    name = "wall-clock-read"
    severity = "error"
    summary = (
        "datetime.now()/utcnow()/date.today() anywhere in the library, or "
        "time.time()/monotonic()/perf_counter()/time_ns() in a kernel/ant path"
    )
    rationale = (
        "All simulated time comes from the deterministic cost models and "
        "all artifacts (bench JSON, baselines, goldens, traces) must be "
        "byte-stable across runs; a wall-clock date embedded anywhere "
        "breaks byte-for-byte reproducibility, and a clock read in a "
        "kernel/ant path lets real time steer a scheduling decision."
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if not name:
                continue
            parts = name.split(".")
            if parts[-1] in _WALL_CLOCK_TAILS and any(
                p in _WALL_CLOCK_HEADS for p in parts[:-1]
            ):
                yield ctx.finding(
                    self,
                    node,
                    "wall-clock %s(); deterministic artifacts must not "
                    "embed real dates" % name,
                )
            elif (
                ctx.in_kernel_path
                and len(parts) == 2
                and parts[0] == "time"
                and parts[1] in _CLOCK_READS
            ):
                yield ctx.finding(
                    self,
                    node,
                    "wall-clock %s() in a kernel/ant path; use the "
                    "deterministic cost models" % name,
                )


#: Function names that mark a reduce path (substring match, any casing).
_MERGE_NAME = re.compile(r"merge|reduce|combine", re.IGNORECASE)

#: Method tails whose call result is an unordered set, regardless of how
#: the receiver was built (``a.union(b)`` has set iteration order).
_SET_OP_TAILS = frozenset(
    {"union", "intersection", "difference", "symmetric_difference"}
)


def _is_unordered_expression(node: ast.expr) -> bool:
    """Set-typed by construction: literals, comprehensions, set()/frozenset()
    calls, and set-operation method calls."""
    if _is_set_expression(node):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr in _SET_OP_TAILS
    return False


@register
class UnorderedMergeRule(Rule):
    rule_id = "DET-005"
    name = "unordered-merge-iteration"
    severity = "error"
    summary = "Unordered-collection iteration inside a merge/reduce/combine"
    rationale = (
        "A merge must be a deterministic reduce: the fleet layer's "
        "bit-identity contract (sharded result == single-device result) "
        "holds only if every merge/reduce/combine walks its inputs in a "
        "stable order. Iterating a set (or a set-operation result) inside "
        "such a function makes the merged output depend on hash order — "
        "per-process for str keys. Key the inputs and walk an explicit "
        "index order (range/sorted) instead."
    )

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        reported = set()  # a merge nested in a merge reports each site once
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not _MERGE_NAME.search(node.name):
                continue
            for iter_expr in _iteration_sites(node):
                if id(iter_expr) in reported:
                    continue
                if _is_unordered_expression(iter_expr):
                    reported.add(id(iter_expr))
                    yield ctx.finding(
                        self,
                        iter_expr,
                        "iteration over an unordered collection inside %r; "
                        "a merge/reduce must walk a stable order — use "
                        "sorted(...) or explicit indices" % node.name,
                    )
