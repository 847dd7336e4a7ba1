"""Violation records and verification reports.

Every checker in :mod:`repro.analysis` accumulates its findings into a
:class:`VerificationReport` instead of raising on the first problem, so a
single pass over a schedule or DDG reports *everything* that is wrong with
it (the fault-injection tests rely on precise violation codes). Callers
that want fail-fast semantics use :meth:`VerificationReport.raise_if_failed`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import VerificationError


@dataclass(frozen=True)
class Violation:
    """One invariant violation found by a verification pass.

    ``code`` is a stable kebab-case identifier (tests match on it);
    ``message`` is the human-readable explanation.
    """

    code: str
    message: str

    def __str__(self) -> str:
        return "[%s] %s" % (self.code, self.message)


@dataclass
class VerificationReport:
    """The outcome of one verification pass.

    ``checks`` counts the individual invariants evaluated (for telemetry
    and for "this actually checked something" assertions in tests);
    ``stats`` carries derived observations that are not pass/fail, e.g.
    the necessary/optional stall split or the recertified peak pressure.
    """

    subject: str
    checks: int = 0
    violations: List[Violation] = field(default_factory=list)
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    def check(self, code: str, condition: bool, message: str) -> bool:
        """Record one invariant evaluation; returns ``condition``."""
        self.checks += 1
        if not condition:
            self.violations.append(Violation(code, message))
        return condition

    def fail(self, code: str, message: str) -> None:
        """Record one violation of a check the caller counts in ``checks``.

        Hot loops add their checks to ``checks`` in bulk and build a
        message only for a failing one.
        """
        self.violations.append(Violation(code, message))

    def codes(self) -> Tuple[str, ...]:
        return tuple(v.code for v in self.violations)

    def merge(self, other: "VerificationReport") -> "VerificationReport":
        self.checks += other.checks
        self.violations.extend(other.violations)
        self.stats.update(other.stats)
        return self

    def publish(self, telemetry, region: str) -> "VerificationReport":
        """Export this report as a ``verify`` trace event.

        ``telemetry`` is duck-typed (:class:`repro.telemetry.Telemetry`) so
        this module needs no telemetry import.
        """
        telemetry.emit(
            "verify",
            region=region,
            checks=self.checks,
            violations=len(self.violations),
        )
        return self

    def raise_if_failed(self) -> None:
        """Raise :class:`VerificationError` when any violation was found."""
        if self.violations:
            lines = "\n  ".join(str(v) for v in self.violations)
            raise VerificationError(
                "%s failed verification (%d violation(s)):\n  %s"
                % (self.subject, len(self.violations), lines),
                violations=self.violations,
            )

    def __repr__(self) -> str:
        return "VerificationReport(%r, checks=%d, violations=%d)" % (
            self.subject,
            self.checks,
            len(self.violations),
        )
