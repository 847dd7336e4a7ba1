"""DDG and transitive-closure invariant linting.

The schedulers assume a long list of silent structural invariants about
:class:`~repro.ddg.graph.DDG` and
:class:`~repro.ddg.closure.TransitiveClosure` — edges follow program order,
successor/predecessor lists are exact duals, reachability bitsets are the
true transitive closure, and the Section V-A ready-list bound really does
dominate every ready list the colony ever builds. This module rechecks all
of them independently (reachability is recomputed with an iterative DFS,
not the bitset sweep the closure itself uses).
"""

from __future__ import annotations

from typing import List

from ..ddg.closure import TransitiveClosure
from ..ddg.graph import DDG, DepKind
from .report import VerificationReport


def lint_ddg(ddg: DDG) -> VerificationReport:
    """Check a DDG's structural invariants."""
    report = VerificationReport("DDG for %r" % ddg.region.name)
    n = ddg.num_instructions
    report.check(
        "node-count",
        n == len(ddg.region),
        "DDG has %d nodes for %d instructions" % (n, len(ddg.region)),
    )

    succ_of = [dict(ddg.successors[i]) for i in range(n)]
    pred_of = [dict(ddg.predecessors[i]) for i in range(n)]

    # The per-edge checks are counted in bulk; a message is built only for
    # a failing check, in the order the checks are listed.
    checks = 0
    for i in range(n):
        for j, latency in ddg.successors[i]:
            in_range = 0 <= j < n
            if not in_range or j == i:
                report.fail(
                    "edge-range", "edge %d -> %d leaves the region or is a self-loop" % (i, j)
                )
            if not in_range:
                checks += 1
                continue
            # edge-range, program-order, latency-sanity, duality
            checks += 4
            if not i < j:
                report.fail("program-order", "edge %d -> %d goes against program order" % (i, j))
            if not latency >= 0:
                report.fail(
                    "latency-sanity",
                    "edge %d -> %d has negative latency %d" % (i, j, latency),
                )
            if not pred_of[j].get(i) == latency:
                report.fail(
                    "duality",
                    "edge %d -> %d (latency %d) missing or mislabelled in the "
                    "predecessor list" % (i, j, latency),
                )
        checks += len(ddg.predecessors[i])
        for p, latency in ddg.predecessors[i]:
            if not (0 <= p < n and succ_of[p].get(i) == latency):
                report.fail(
                    "duality",
                    "predecessor edge %d -> %d (latency %d) missing from the "
                    "successor list" % (p, i, latency),
                )

    # Merged lists carry the max latency over parallel raw edges, and every
    # raw edge must be represented.
    merged = {}
    for edge in ddg.edges:
        kind = edge.kind
        checks += 1
        if not isinstance(kind, DepKind):
            report.fail(
                "raw-edge-kind",
                "edge %d -> %d has unknown kind %r" % (edge.src, edge.dst, kind),
            )
        if kind is DepKind.FLOW:
            checks += 1
            if not edge.latency >= 1:
                report.fail(
                    "flow-latency",
                    "flow edge %d -> %d has latency %d < 1"
                    % (edge.src, edge.dst, edge.latency),
                )
        key = (edge.src, edge.dst)
        previous = merged.get(key, 0)
        merged[key] = edge.latency if edge.latency > previous else previous
    checks += len(merged)
    for (src, dst), latency in merged.items():
        if not (0 <= src < n and succ_of[src].get(dst) == latency):
            report.fail(
                "merge-consistency",
                "merged edge %d -> %d should carry latency %d; successor list "
                "says %r" % (src, dst, latency, succ_of[src].get(dst) if src < n else None),
            )
    report.checks += checks

    # Derived fields.
    report.check(
        "pred-counts",
        tuple(ddg.num_predecessors) == tuple(len(p) for p in ddg.predecessors),
        "num_predecessors disagrees with the predecessor lists",
    )
    report.check(
        "roots",
        tuple(ddg.roots) == tuple(i for i in range(n) if not ddg.predecessors[i]),
        "roots list disagrees with the predecessor lists",
    )
    report.check(
        "leaves",
        tuple(ddg.leaves) == tuple(i for i in range(n) if not ddg.successors[i]),
        "leaves list disagrees with the successor lists",
    )
    return report


def _reachable_bitsets(ddg: DDG) -> List[int]:
    """Reachability recomputed by per-node iterative DFS (the referee)."""
    n = ddg.num_instructions
    out = [0] * n
    for start in range(n):
        seen = 0
        stack = [dst for dst, _lat in ddg.successors[start]]
        while stack:
            node = stack.pop()
            bit = 1 << node
            if seen & bit:
                continue
            seen |= bit
            stack.extend(dst for dst, _lat in ddg.successors[node])
        out[start] = seen
    return out


def lint_closure(closure: TransitiveClosure, ddg=None) -> VerificationReport:
    """Check a closure's bitsets against an independent recomputation."""
    if ddg is None:
        ddg = closure.ddg
    report = VerificationReport("closure for %r" % ddg.region.name)
    n = closure.num_instructions
    report.check(
        "node-count",
        n == ddg.num_instructions,
        "closure covers %d nodes for a %d-node DDG" % (n, ddg.num_instructions),
    )
    all_mask = (1 << n) - 1
    truth = _reachable_bitsets(ddg)
    for i in range(n):
        desc = closure.descendants[i]
        anc = closure.ancestors[i]
        report.check(
            "irreflexive",
            not (desc >> i) & 1 and not (anc >> i) & 1,
            "instruction %d reaches itself" % i,
        )
        report.check(
            "antisymmetry",
            desc & anc == 0,
            "instruction %d has a node that is both ancestor and descendant "
            "(dependence cycle)" % i,
        )
        report.check(
            "transitivity",
            desc == truth[i],
            "descendants[%d] disagrees with DFS reachability" % i,
        )
        report.check(
            "program-order",
            desc & ((1 << (i + 1)) - 1) == 0,
            "instruction %d reaches an earlier instruction" % i,
        )
        report.check(
            "independence",
            closure.independent[i] == all_mask & ~(desc | anc | (1 << i)),
            "independent[%d] disagrees with the reachability bitsets" % i,
        )
    # Duality needs the full ancestor matrix: j in desc[i] <=> i in anc[j].
    for i in range(n):
        desc = closure.descendants[i]
        ok = all(
            ((closure.ancestors[j] >> i) & 1) == ((desc >> j) & 1)
            for j in range(n)
        )
        report.check(
            "duality",
            ok,
            "descendants[%d] and the ancestor bitsets disagree" % i,
        )
    return report


def max_antichain_size(closure: TransitiveClosure) -> int:
    """Largest pairwise-independent set, by brute-force enumeration.

    Exponential — only for cross-checking ``ready_list_upper_bound`` on
    small DDGs in tests.
    """
    n = closure.num_instructions
    best = 0

    def extend(candidates: List[int], size: int) -> None:
        nonlocal best
        if size + len(candidates) <= best:
            return
        best = max(best, size)
        for pos, node in enumerate(candidates):
            rest = [
                other
                for other in candidates[pos + 1:]
                if closure.are_independent(node, other)
            ]
            extend(rest, size + 1)

    extend(list(range(n)), 0)
    return best


def audit_ready_bound(
    closure: TransitiveClosure, observed_peak: int
) -> VerificationReport:
    """Check an observed ready-list peak against the Section V-A bound.

    ``observed_peak`` is the largest available-list length any ant ever
    held (the colony's ``ready_peak``, exported on ``kernel_launch``
    events); the transitive-closure bound must dominate it.
    """
    report = VerificationReport("ready-list bound")
    bound = closure.ready_list_upper_bound()
    report.stats["bound"] = bound
    report.stats["observed_peak"] = observed_peak
    report.check(
        "ready-bound",
        0 <= observed_peak <= bound,
        "observed ready-list peak %d exceeds the closure bound %d"
        % (observed_peak, bound),
    )
    return report
