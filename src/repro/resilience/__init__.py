"""Fault-injected resilience layer (repro.resilience).

The subsystem that keeps the compile pipeline alive when the simulated
device misbehaves. Four cooperating pieces:

* the **fault model** (:mod:`repro.gpusim.faults`, re-exported here) —
  deterministic, seed-driven injection of launch failures, transfer
  corruption, hangs and preallocation OOM;
* the **watchdog / deadline budget** (:mod:`.watchdog`) — cost-model-second
  budgets that stop a stuck pass cleanly with partial results;
* **checkpoint/resume** (:mod:`.checkpoint`) — colony search state
  snapshots so a retried pass resumes mid-search instead of restarting;
* the **retry-with-degradation ladder** (:mod:`.ladder`) — deterministic
  backoff with seed rotation and backend downgrade, consumed by the
  pipeline and the multi-region batch scheduler.

The ladder imports the schedulers, so it is deliberately *not* imported
here (``import repro.resilience.ladder`` directly) — this package's
``__init__`` stays import-cycle-free for the schedulers that need only
budgets and checkpoints. :mod:`.chaos` (the chaos-testing harness) follows
the same rule.
"""

from __future__ import annotations

from ..gpusim.faults import (
    DEFAULT_CHAOS_RATES,
    FAULT_CLASSES,
    FaultPlan,
)
from .checkpoint import CHECKPOINT_VERSION, RegionCheckpoint
from .watchdog import DeadlineBudget

__all__ = [
    "CHECKPOINT_VERSION",
    "DEFAULT_CHAOS_RATES",
    "DeadlineBudget",
    "FAULT_CLASSES",
    "FaultPlan",
    "RegionCheckpoint",
]
