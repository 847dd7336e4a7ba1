"""Ant Colony Optimization for RP-aware instruction scheduling.

The sequential two-pass algorithm of Shobaki et al. (TACO 2022), as
summarized in Section IV-A of the CGO 2024 paper:

* pass 1 (RP pass) ignores latencies and minimizes the APRP-based register
  pressure cost;
* pass 2 (ILP pass) honors latencies and minimizes schedule length subject
  to the pass-1 pressure as a hard constraint, inserting necessary stalls
  (empty ready list) and heuristically chosen *optional* stalls.

The GPU-parallel version lives in :mod:`repro.parallel` and reuses the
pheromone table, the selection rule and the stall heuristic defined here.
Both schedulers are construction engines under one two-pass driver
(:mod:`repro.aco.driver`).
"""

from .pheromone import PheromoneTable
from .selection import select_index, roulette_index
from .ant import AntResult, ConstructionStats, construct_order, construct_cycles
from .stalls import OptionalStallHeuristic
from .strategy import (
    STRATEGIES,
    AntSystemStrategy,
    MaxMinAntSystem,
    make_strategy,
    resolve_strategy,
)
from .driver import ACOResult, PassResult
from .sequential import SequentialACOScheduler
from .weighted import WeightedSumACOScheduler, WeightedACOResult

__all__ = [
    "PheromoneTable",
    "select_index",
    "roulette_index",
    "AntResult",
    "ConstructionStats",
    "construct_order",
    "construct_cycles",
    "OptionalStallHeuristic",
    "STRATEGIES",
    "AntSystemStrategy",
    "MaxMinAntSystem",
    "make_strategy",
    "resolve_strategy",
    "SequentialACOScheduler",
    "ACOResult",
    "PassResult",
    "WeightedSumACOScheduler",
    "WeightedACOResult",
]
