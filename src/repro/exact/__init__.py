"""Exact (branch-and-bound) reference schedulers for tiny regions.

The ACO scheduler of this paper descends from a line of *precise*
combinatorial schedulers (Shobaki et al., TACO 2013/2019 and CGO 2020 use
branch-and-bound enumeration). This package provides small-scale exact
solvers for both objectives:

* :func:`~repro.exact.bnb.min_pressure_order` — the minimum achievable
  peak-pressure cost over all instruction orders (pass 1's true optimum);
* :func:`~repro.exact.bnb.min_length_schedule` — the shortest latency-legal
  schedule whose pressure stays within a target (pass 2's true optimum).

They enumerate with aggressive pruning and are intended for regions of up
to ~16 instructions: the test suite uses them as ground truth for the ACO
and greedy schedulers, and ``tests/test_exact_crosscheck.py`` checks that
ACO reaches the optimum on pinned tiny regions (the paper terminates on
a *lower bound*, which is weaker than an optimum certificate).
"""

from .bnb import (
    ExactLimits,
    min_pressure_order,
    min_register_order,
    min_length_schedule,
)
from .crosscheck import (
    CROSSCHECK_MAX_INSTRUCTIONS,
    CrosscheckReport,
    StrategyOutcome,
    crosscheck,
)

__all__ = [
    "ExactLimits",
    "min_pressure_order",
    "min_register_order",
    "min_length_schedule",
    "CROSSCHECK_MAX_INSTRUCTIONS",
    "CrosscheckReport",
    "StrategyOutcome",
    "crosscheck",
]
