"""SLO accounting: compliance, error budget and burn rate.

The service-level objective composes with the resilience layer (PR 5):
a region *violates* the objective when its deadline budget trips (a
``deadline`` event), when it ships degraded (the ladder ran out of
engines), or when it is unrecoverable. Everything else — including
regions that faulted but recovered within budget — complies.

All quantities are derived from counts the aggregator already folded, so
a report is deterministic and byte-stable like the snapshot it lives in:

* ``compliance``          — fraction of regions that met the objective;
* ``error_budget``        — the allowed violation fraction, ``1 - target``;
* ``budget_consumed``     — fraction of the error budget spent
  (> 1.0 means the objective is blown);
* ``burn_rate``           — observed violation rate over allowed rate —
  the standard multi-window burn-rate numerator, denominated in regions
  rather than wall time because the reproduction's only clock is the
  cost model.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Dict

#: Default objective: 99% of regions meet their deadline un-degraded.
DEFAULT_SLO_TARGET = 0.99


def slo_target_arg(text: str) -> float:
    """argparse ``type=`` for ``--slo-target``: a fraction in (0, 1].

    A bad value is a usage error (exit 2), not a traceback from the
    aggregator after the run.
    """
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0.0 < value <= 1.0:
        raise argparse.ArgumentTypeError(
            "SLO target must be a fraction in (0, 1], got %r" % text
        )
    return value


@dataclass(frozen=True)
class SLOReport:
    """One deterministic evaluation of the deadline SLO."""

    target: float
    regions: int
    violations: int

    @property
    def compliance(self) -> float:
        if self.regions <= 0:
            return 1.0
        return 1.0 - self.violations / self.regions

    @property
    def error_budget(self) -> float:
        return 1.0 - self.target

    @property
    def budget_consumed(self) -> float:
        """Fraction of the error budget spent (can exceed 1.0)."""
        if self.regions <= 0:
            return 0.0
        allowed = self.error_budget * self.regions
        if allowed <= 0.0:
            return 0.0 if self.violations == 0 else float(self.violations)
        return self.violations / allowed

    @property
    def burn_rate(self) -> float:
        """Observed violation rate over the allowed violation rate.

        1.0 means the budget is burning exactly as fast as the objective
        allows; 2.0 means twice as fast. Identical to
        :attr:`budget_consumed` over a single window, which is all the
        deterministic reproduction has.
        """
        return self.budget_consumed

    @property
    def healthy(self) -> bool:
        return self.compliance >= self.target

    def as_dict(self) -> Dict[str, object]:
        """A plain, deterministic dict (snapshot embedding)."""
        return {
            "target": self.target,
            "regions": self.regions,
            "violations": self.violations,
            "compliance": self.compliance,
            "error_budget": self.error_budget,
            "budget_consumed": self.budget_consumed,
            "burn_rate": self.burn_rate,
            "healthy": self.healthy,
        }
