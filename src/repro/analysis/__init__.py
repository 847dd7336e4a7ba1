"""Static analysis and independent verification (the scheduler sanitizer).

The paper's correctness rests on invariants nothing used to recheck: every
ant-built schedule must be DDG-legal, pass-2 APRP must never exceed the
pass-1 target, and the SoA ready lists must never outgrow the
transitive-closure bound of Section V-A. This package recertifies all of
them from scratch — the ``-verify-machineinstrs`` of this reproduction:

* :mod:`~repro.analysis.verifier` — independent schedule verification and
  APRP recertification (:func:`verify_schedule`, :func:`verify_order`,
  :func:`verify_aco_result`, :func:`recompute_peak_pressure`);
* :mod:`~repro.analysis.ddg_lint` — DDG/closure structural linting and the
  ready-list bound audit (:func:`lint_ddg`, :func:`lint_closure`,
  :func:`audit_ready_bound`);
* :mod:`~repro.analysis.sanitizer` — the gpusim sanitizer mode
  (``--verify``): both-bound checks on computed per-ant state offsets,
  poison discipline,
  cross-ant aliasing and wavefront-uniformity checks;
* :mod:`~repro.analysis.static` — the rule-based static analyzer
  (``python -m repro.analysis.static``): determinism, RNG discipline,
  lockstep-divergence, accounting and import-layering rules, with inline
  rule-addressed suppressions and text/SARIF reports; the gate is zero
  findings.

Both ACO schedulers, the compile pipeline and the CLI expose the layer
behind a ``verify`` flag (``--verify`` on the CLI).
"""

from .ddg_lint import audit_ready_bound, lint_closure, lint_ddg, max_antichain_size
from .report import VerificationReport, Violation
from .sanitizer import ColonySanitizer
from .verifier import (
    classify_stalls,
    recompute_peak_pressure,
    verify_aco_result,
    verify_order,
    verify_schedule,
)

__all__ = [
    "VerificationReport",
    "Violation",
    "verify_schedule",
    "verify_order",
    "verify_aco_result",
    "recompute_peak_pressure",
    "classify_stalls",
    "lint_ddg",
    "lint_closure",
    "audit_ready_bound",
    "max_antichain_size",
    "ColonySanitizer",
]
